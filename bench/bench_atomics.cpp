// R-10 (atomics figure): remote atomic latency and throughput under
// contention.
//
// Part 1: fetch-add / CAS round-trip latency (blocking, window 1).
// Part 2: aggregate throughput when P-1 ranks hammer either the SAME cell
// (contended) or per-rank cells (spread) on rank 0. Expected shape:
// fetch-add throughput is flat under contention (the NIC serializes
// usefully); a CAS retry loop degrades as contention rises.
#include <benchmark/benchmark.h>

#include <map>
#include <thread>

#include "benchsupport/harness.hpp"
#include "benchsupport/report.hpp"
#include "benchsupport/table.hpp"

using namespace photon;
using benchsupport::bench_fabric;
using benchsupport::mops;
using benchsupport::run_spmd_vtime;

namespace {

constexpr std::uint64_t kWait = 30'000'000'000ULL;
constexpr std::size_t kOpsPerRank = 4000;

struct Cells {
  std::vector<std::uint64_t> mem;
  core::BufferDescriptor desc;
};

double fadd_latency_us() {
  constexpr int kIters = 500;
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(2), [&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    std::vector<std::uint64_t> mem(8, 0);
    auto desc = ph.register_buffer(mem.data(), mem.size() * 8).value();
    auto peers = ph.exchange_descriptors(desc);
    benchsupport::sync_reset(env);
    if (env.rank == 0) {
      fabric::Completion c;
      for (int i = 0; i < kIters; ++i) {
        if (env.nic.post_fetch_add(1, {peers[1].addr, peers[1].rkey}, 1, 0) !=
            Status::Ok)
          throw std::runtime_error("fadd failed");
        if (env.nic.wait_send(c, kWait) != Status::Ok)
          throw std::runtime_error("fadd wait failed");
      }
    }
    env.bootstrap.barrier(env.rank);
  });
  return static_cast<double>(vt) / kIters / 1e3;
}

double cas_latency_us() {
  constexpr int kIters = 500;
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(2), [&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    std::vector<std::uint64_t> mem(8, 0);
    auto desc = ph.register_buffer(mem.data(), mem.size() * 8).value();
    auto peers = ph.exchange_descriptors(desc);
    benchsupport::sync_reset(env);
    if (env.rank == 0) {
      fabric::Completion c;
      std::uint64_t cur = 0;
      for (int i = 0; i < kIters; ++i) {
        if (env.nic.post_compare_swap(1, {peers[1].addr, peers[1].rkey}, cur,
                                      cur + 1, 0) != Status::Ok)
          throw std::runtime_error("cas failed");
        if (env.nic.wait_send(c, kWait) != Status::Ok)
          throw std::runtime_error("cas wait failed");
        cur = c.result + 1;  // uncontended: swap always succeeds
      }
    }
    env.bootstrap.barrier(env.rank);
  });
  return static_cast<double>(vt) / kIters / 1e3;
}

/// Aggregate fetch-add throughput, contended (one cell) or spread.
double fadd_throughput_mops(std::uint32_t nranks, bool contended) {
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(nranks), [&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    std::vector<std::uint64_t> mem(nranks, 0);
    auto desc = ph.register_buffer(mem.data(), mem.size() * 8).value();
    auto peers = ph.exchange_descriptors(desc);
    benchsupport::sync_reset(env);
    if (env.rank != 0) {
      const std::uint64_t off = contended ? 0 : env.rank * 8;
      const fabric::RemoteRef cell{peers[0].addr + off, peers[0].rkey};
      fabric::Completion c;
      std::size_t outstanding = 0;
      for (std::size_t i = 0; i < kOpsPerRank; ++i) {
        while (env.nic.post_fetch_add(0, cell, 1, 0) == Status::QueueFull)
          if (env.nic.poll_send(c) == Status::Ok) --outstanding;
        ++outstanding;
        while (outstanding > 32) {
          if (env.nic.wait_send(c, kWait) != Status::Ok)
            throw std::runtime_error("drain failed");
          --outstanding;
        }
      }
      while (outstanding > 0) {
        if (env.nic.wait_send(c, kWait) != Status::Ok)
          throw std::runtime_error("final drain failed");
        --outstanding;
      }
    }
    env.bootstrap.barrier(env.rank);
  });
  return mops(kOpsPerRank * (nranks - 1), vt);
}

/// CAS increment loop (optimistic retry) on one shared counter.
struct CasResult {
  double mops;
  double retries_per_op;
};

CasResult cas_contended(std::uint32_t nranks) {
  std::atomic<std::uint64_t> total_retries{0};
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(nranks), [&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    std::vector<std::uint64_t> mem(1, 0);
    auto desc = ph.register_buffer(mem.data(), 8).value();
    auto peers = ph.exchange_descriptors(desc);
    benchsupport::sync_reset(env);
    if (env.rank != 0) {
      const fabric::RemoteRef cell{peers[0].addr, peers[0].rkey};
      fabric::Completion c;
      std::uint64_t seen = 0;
      std::uint64_t retries = 0;
      for (std::size_t i = 0; i < kOpsPerRank / 4; ++i) {
        for (;;) {
          if (env.nic.post_compare_swap(0, cell, seen, seen + 1, 0) !=
              Status::Ok)
            throw std::runtime_error("cas failed");
          if (env.nic.wait_send(c, kWait) != Status::Ok)
            throw std::runtime_error("cas wait failed");
          if (c.result == seen) {
            seen = c.result + 1;  // success; expect our own value next
            // Encourage real-time interleaving on the single-core host so
            // contention actually manifests (virtual time is unaffected).
            // idle-ok: provokes host contention; this yield waits for nothing.
            std::this_thread::yield();
            break;
          }
          seen = c.result;  // lost the race; retry from the observed value
          ++retries;
        }
      }
      total_retries.fetch_add(retries);
    }
    env.bootstrap.barrier(env.rank);
  });
  const std::size_t ops = kOpsPerRank / 4 * (nranks - 1);
  return {mops(ops, vt),
          static_cast<double>(total_retries.load()) / static_cast<double>(ops)};
}

std::map<std::uint32_t, std::array<double, 4>> g_thr;  // fadd_spread, fadd_cont, cas_mops, cas_retries
double g_fadd_lat = 0, g_cas_lat = 0;

void BM_FaddLatency(benchmark::State& st) {
  for (auto _ : st) {
    g_fadd_lat = fadd_latency_us();
    st.SetIterationTime(g_fadd_lat / 1e6);
  }
}
void BM_CasLatency(benchmark::State& st) {
  for (auto _ : st) {
    g_cas_lat = cas_latency_us();
    st.SetIterationTime(g_cas_lat / 1e6);
  }
}
void BM_FaddSpread(benchmark::State& st) {
  const auto n = static_cast<std::uint32_t>(st.range(0));
  for (auto _ : st) {
    g_thr[n][0] = fadd_throughput_mops(n, false);
    st.SetIterationTime(1e-3);
    st.counters["Mops"] = g_thr[n][0];
  }
}
void BM_FaddContended(benchmark::State& st) {
  const auto n = static_cast<std::uint32_t>(st.range(0));
  for (auto _ : st) {
    g_thr[n][1] = fadd_throughput_mops(n, true);
    st.SetIterationTime(1e-3);
    st.counters["Mops"] = g_thr[n][1];
  }
}
void BM_CasContended(benchmark::State& st) {
  const auto n = static_cast<std::uint32_t>(st.range(0));
  for (auto _ : st) {
    const auto r = cas_contended(n);
    g_thr[n][2] = r.mops;
    g_thr[n][3] = r.retries_per_op;
    st.SetIterationTime(1e-3);
    st.counters["Mops"] = r.mops;
    st.counters["retries"] = r.retries_per_op;
  }
}

}  // namespace

BENCHMARK(BM_FaddLatency)->UseManualTime()->Iterations(1);
BENCHMARK(BM_CasLatency)->UseManualTime()->Iterations(1);
BENCHMARK(BM_FaddSpread)->Arg(2)->Arg(4)->Arg(8)->UseManualTime()->Iterations(1);
BENCHMARK(BM_FaddContended)->Arg(2)->Arg(4)->Arg(8)->UseManualTime()->Iterations(1);
BENCHMARK(BM_CasContended)->Arg(2)->Arg(4)->Arg(8)->UseManualTime()->Iterations(1);

int main(int argc, char** argv) {
  benchsupport::BenchReport report("atomics");
  // The contended-CAS series retries on real interleaving, so total op
  // counts drift slightly run-to-run; gate with tolerance, not exactly.
  report.deterministic(false);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("R-10a  Remote atomic round-trip latency: fetch-add %.2f us, "
              "CAS %.2f us\n\n",
              g_fadd_lat, g_cas_lat);
  benchsupport::Table t("R-10b  Atomic throughput vs ranks (virtual)");
  t.columns({"ranks", "fadd spread Mops", "fadd 1-cell Mops", "cas-loop Mops",
             "cas retries/op"});
  for (const auto& [n, c] : g_thr) {
    t.row({std::to_string(n), benchsupport::Table::num(c[0]),
           benchsupport::Table::num(c[1]), benchsupport::Table::num(c[2]),
           benchsupport::Table::num(c[3])});
  }
  t.print();
  benchsupport::print_resilience_table();
  return 0;
}
