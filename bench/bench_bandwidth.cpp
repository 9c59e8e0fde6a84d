// R-2 (bandwidth figure): streaming bandwidth vs message size.
//
// A window of outstanding transfers from rank 0 to rank 1. Series: Photon
// direct puts (zero-copy into a published buffer) vs two-sided isends.
// Expected shape: both saturate the modeled link; Photon reaches saturation
// at smaller message sizes (no per-message matching/copy overheads).
#include <benchmark/benchmark.h>

#include <deque>
#include <thread>
#include <map>

#include "benchsupport/harness.hpp"
#include "benchsupport/report.hpp"
#include "benchsupport/table.hpp"

using namespace photon;
using benchsupport::bench_fabric;
using benchsupport::mbps;
using benchsupport::run_spmd_vtime;

namespace {

constexpr int kWindow = 32;
constexpr std::uint64_t kTotalBytes = 32u << 20;  // per experiment
constexpr std::uint64_t kWait = 30'000'000'000ULL;

double photon_bw_mbps(std::size_t size) {
  const std::size_t count = std::max<std::size_t>(kTotalBytes / size, kWindow);
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(2), [&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    std::vector<std::byte> buf(size * 2);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);
    benchsupport::sync_reset(env);
    if (env.rank == 0) {
      std::size_t completed = 0, posted = 0;
      while (completed < count) {
        while (posted < count && posted - completed < kWindow) {
          std::optional<std::uint64_t> rid;
          if (posted + 1 == count) rid = 1;  // final notify to the target
          if (ph.put_with_completion(1, core::local_slice(desc, 0, size),
                                     core::slice(peers[1], 0, size), posted,
                                     rid, kWait) != Status::Ok)
            throw std::runtime_error("put failed");
          ++posted;
        }
        core::LocalComplete lc;
        if (ph.wait_local(lc, kWait) != Status::Ok)
          throw std::runtime_error("completion missing");
        ++completed;
      }
    } else {
      // Target CPU is idle until the final notify — the one-sided promise.
      core::ProbeEvent ev;
      if (ph.wait_event(ev, kWait) != Status::Ok)
        throw std::runtime_error("final notify missing");
    }
    env.bootstrap.barrier(env.rank);
  });
  return mbps(count * size, vt);
}

double twosided_bw_mbps(std::size_t size) {
  const std::size_t count = std::max<std::size_t>(kTotalBytes / size, kWindow);
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(2), [&](runtime::Env& env) {
    msg::Config mcfg;
    msg::Engine eng(env.nic, env.bootstrap, mcfg);
    std::vector<std::byte> buf(size);
    benchsupport::sync_reset(env);
    if (env.rank == 0) {
      std::deque<msg::ReqId> window;
      std::size_t posted = 0, completed = 0;
      util::Deadline dl(kWait);
      while (completed < count) {
        while (posted < count && window.size() < kWindow) {
          auto rq = eng.isend(1, 7, buf);
          if (rq.ok()) {
            window.push_back(rq.value());
            ++posted;
          } else if (transient(rq.status())) {
            break;  // credits exhausted; drain first
          } else {
            throw std::runtime_error("isend failed");
          }
        }
        if (window.empty()) {
          eng.progress();
          // Waiting through wait_for (yield first, then jump) moves this
          // bench's pinned virtual time, so the step stays jump-first.
          // idle-ok: jump-first idle step that the pinned vtime depends on.
          if (!eng.progress_jump()) std::this_thread::yield();
          if (dl.expired()) throw std::runtime_error("stalled");
          continue;
        }
        if (eng.wait(window.front(), nullptr, kWait) != Status::Ok)
          throw std::runtime_error("send wait failed");
        window.pop_front();
        ++completed;
      }
    } else {
      std::vector<std::byte> in(size);
      for (std::size_t i = 0; i < count; ++i) {
        if (!eng.recv(0, 7, in, kWait).ok())
          throw std::runtime_error("recv failed");
      }
    }
  });
  return mbps(count * size, vt);
}

std::map<std::size_t, std::array<double, 2>> g_rows;

void BM_PhotonStream(benchmark::State& st) {
  const std::size_t size = static_cast<std::size_t>(st.range(0));
  for (auto _ : st) {
    const double bw = photon_bw_mbps(size);
    g_rows[size][0] = bw;
    st.SetIterationTime(1e-3);  // bandwidth is the metric; time is nominal
    st.counters["MB/s"] = bw;
  }
}

void BM_TwoSidedStream(benchmark::State& st) {
  const std::size_t size = static_cast<std::size_t>(st.range(0));
  for (auto _ : st) {
    const double bw = twosided_bw_mbps(size);
    g_rows[size][1] = bw;
    st.SetIterationTime(1e-3);
    st.counters["MB/s"] = bw;
  }
}

}  // namespace

BENCHMARK(BM_PhotonStream)->RangeMultiplier(4)->Range(1 << 10, 4 << 20)->UseManualTime()->Iterations(1);
BENCHMARK(BM_TwoSidedStream)->RangeMultiplier(4)->Range(1 << 10, 4 << 20)->UseManualTime()->Iterations(1);

int main(int argc, char** argv) {
  benchsupport::BenchReport report("bandwidth");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  benchsupport::Table t("R-2  Streaming bandwidth vs message size (virtual MB/s)");
  t.columns({"size", "photon_put", "two-sided", "photon/2s"});
  for (const auto& [size, cols] : g_rows) {
    t.row({benchsupport::Table::bytes(size),
           benchsupport::Table::num(cols[0], 1),
           benchsupport::Table::num(cols[1], 1),
           cols[1] > 0 ? benchsupport::Table::num(cols[0] / cols[1]) : "-"});
  }
  t.print();
  benchsupport::print_resilience_table();
  return 0;
}
