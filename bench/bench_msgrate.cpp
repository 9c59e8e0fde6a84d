// R-3 (message-rate figure): small-message rate vs window size.
//
// Rank 0 streams 8-byte notifications to rank 1 with a bounded number of
// outstanding operations. Series: Photon PWC signals (ledger doorbells),
// Photon eager sends, two-sided isends. Expected shape: rate rises with the
// window then flattens at the injection limit; Photon sustains a much
// higher rate (no matching or bounce management per message).
#include <benchmark/benchmark.h>

#include <deque>
#include <map>

#include "benchsupport/harness.hpp"
#include "benchsupport/report.hpp"
#include "benchsupport/table.hpp"

using namespace photon;
using benchsupport::bench_fabric;
using benchsupport::mops;
using benchsupport::run_spmd_vtime;

namespace {

constexpr std::size_t kCount = 20000;
constexpr std::uint64_t kWait = 30'000'000'000ULL;

/// Photon signal stream. The window is implicitly the ledger depth; we size
/// the ledger to the requested window to model it directly.
double photon_rate_mops(std::size_t window) {
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(2), [&](runtime::Env& env) {
    core::Config cfg;
    cfg.ledger_entries = std::max<std::size_t>(window, 2);
    core::Photon ph(env.nic, env.bootstrap, cfg);
    benchsupport::sync_reset(env);
    if (env.rank == 0) {
      for (std::size_t i = 0; i < kCount; ++i) {
        if (ph.signal(1, i, kWait) != Status::Ok)
          throw std::runtime_error("signal failed");
      }
    } else {
      for (std::size_t i = 0; i < kCount; ++i) {
        core::ProbeEvent ev;
        if (ph.wait_event(ev, kWait) != Status::Ok)
          throw std::runtime_error("event missing");
      }
    }
    env.bootstrap.barrier(env.rank);
  });
  return mops(kCount, vt);
}

double eager_rate_mops(std::size_t window) {
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(2), [&](runtime::Env& env) {
    core::Config cfg;
    // Tiny messages only; ring sized to hold ~window 8-byte messages
    // (24 B footprint each), bounded below by the config minimum.
    cfg.eager_threshold = 64;
    cfg.eager_ring_bytes = std::max<std::size_t>(
        2 * core::ring_footprint(cfg.eager_threshold) + 16,
        ((window * 24 + 63) / 64) * 64);
    core::Photon ph(env.nic, env.bootstrap, cfg);
    std::uint64_t payload = 0;
    benchsupport::sync_reset(env);
    if (env.rank == 0) {
      for (std::size_t i = 0; i < kCount; ++i) {
        payload = i;
        if (ph.send_with_completion(1, std::as_bytes(std::span(&payload, 1)),
                                    std::nullopt, i, kWait) != Status::Ok)
          throw std::runtime_error("send failed");
      }
    } else {
      for (std::size_t i = 0; i < kCount; ++i) {
        core::ProbeEvent ev;
        if (ph.wait_event(ev, kWait) != Status::Ok)
          throw std::runtime_error("event missing");
      }
    }
    env.bootstrap.barrier(env.rank);
  });
  return mops(kCount, vt);
}

double twosided_rate_mops(std::size_t window) {
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(2), [&](runtime::Env& env) {
    msg::Config cfg;
    cfg.send_credits = std::max<std::size_t>(window, 2);
    msg::Engine eng(env.nic, env.bootstrap, cfg);
    std::uint64_t payload = 0;
    benchsupport::sync_reset(env);
    if (env.rank == 0) {
      std::deque<msg::ReqId> inflight;
      std::size_t posted = 0;
      const auto drained =
          eng.wait_for(kWait, [&](bool& moved) -> std::optional<bool> {
            if (posted == kCount && inflight.empty()) return true;
            while (posted < kCount && inflight.size() < window) {
              payload = posted;
              auto rq = eng.isend(1, 3, std::as_bytes(std::span(&payload, 1)));
              if (!rq.ok()) {
                if (!transient(rq.status()))
                  throw std::runtime_error("isend failed");
                break;
              }
              inflight.push_back(rq.value());
              ++posted;
              moved = true;
            }
            if (!inflight.empty()) {
              bool done = false;
              if (eng.test(inflight.front(), done) != Status::Ok)
                throw std::runtime_error("test failed");
              if (done) {
                inflight.pop_front();
                moved = true;
              }
            } else {
              eng.progress();
            }
            return std::nullopt;
          });
      if (!drained) throw std::runtime_error("stalled");
    } else {
      std::uint64_t sink = 0;
      for (std::size_t i = 0; i < kCount; ++i) {
        if (!eng.recv(0, 3, std::as_writable_bytes(std::span(&sink, 1)), kWait)
                 .ok())
          throw std::runtime_error("recv failed");
      }
    }
  });
  return mops(kCount, vt);
}

std::map<std::size_t, std::array<double, 3>> g_rows;

void BM_PhotonSignalRate(benchmark::State& st) {
  const auto w = static_cast<std::size_t>(st.range(0));
  for (auto _ : st) {
    const double r = photon_rate_mops(w);
    g_rows[w][0] = r;
    st.SetIterationTime(1e-3);
    st.counters["Mops"] = r;
  }
}
void BM_PhotonEagerRate(benchmark::State& st) {
  const auto w = static_cast<std::size_t>(st.range(0));
  for (auto _ : st) {
    const double r = eager_rate_mops(w);
    g_rows[w][1] = r;
    st.SetIterationTime(1e-3);
    st.counters["Mops"] = r;
  }
}
void BM_TwoSidedRate(benchmark::State& st) {
  const auto w = static_cast<std::size_t>(st.range(0));
  for (auto _ : st) {
    const double r = twosided_rate_mops(w);
    g_rows[w][2] = r;
    st.SetIterationTime(1e-3);
    st.counters["Mops"] = r;
  }
}

}  // namespace

BENCHMARK(BM_PhotonSignalRate)->RangeMultiplier(2)->Range(1, 256)->UseManualTime()->Iterations(1);
BENCHMARK(BM_PhotonEagerRate)->RangeMultiplier(2)->Range(1, 256)->UseManualTime()->Iterations(1);
BENCHMARK(BM_TwoSidedRate)->RangeMultiplier(2)->Range(1, 256)->UseManualTime()->Iterations(1);

int main(int argc, char** argv) {
  benchsupport::BenchReport report("msgrate");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  benchsupport::Table t("R-3  8-byte message rate vs window (virtual Mops/s)");
  t.columns({"window", "pwc_signal", "eager", "two-sided", "signal/2s"});
  for (const auto& [w, cols] : g_rows) {
    t.row({std::to_string(w), benchsupport::Table::num(cols[0]),
           benchsupport::Table::num(cols[1]), benchsupport::Table::num(cols[2]),
           cols[2] > 0 ? benchsupport::Table::num(cols[0] / cols[2]) : "-"});
  }
  t.print();
  benchsupport::print_resilience_table();
  return 0;
}
