// R-12 (application figure): 2-D Jacobi halo exchange, Photon one-sided
// ghost pushes vs two-sided send/recv ghost exchange.
//
// The application kernel (pack, exchange, unpack, sweep) is identical in
// both variants; only the exchange mechanism differs. Expected shape:
// per-iteration time is lower with one-sided pushes, with the advantage
// concentrated in the communication fraction (shrinks as the local grid —
// and thus the compute share — grows).
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>

#include "benchsupport/harness.hpp"
#include "benchsupport/report.hpp"
#include "benchsupport/table.hpp"
#include "coll/communicator.hpp"

using namespace photon;
using benchsupport::bench_fabric;
using benchsupport::run_spmd_vtime;

namespace {

constexpr std::uint32_t kPx = 2, kPy = 2;
constexpr int kIters = 40;
constexpr std::uint64_t kWait = 30'000'000'000ULL;
constexpr std::uint64_t kComputePerCellNs = 2;

struct Geometry {
  std::uint32_t rank;
  std::uint32_t cx() const { return rank % kPx; }
  std::uint32_t cy() const { return rank / kPx; }
  std::uint32_t west() const { return cx() == 0 ? UINT32_MAX : rank - 1; }
  std::uint32_t east() const { return cx() == kPx - 1 ? UINT32_MAX : rank + 1; }
  std::uint32_t north() const { return cy() == 0 ? UINT32_MAX : rank - kPx; }
  std::uint32_t south() const {
    return cy() == kPy - 1 ? UINT32_MAX : rank + kPx;
  }
};

/// One-sided variant: parity-double-buffered ghost strips pushed with PWC.
double photon_iter_us(std::size_t nx) {
  const std::size_t strip_bytes = nx * sizeof(double);
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(kPx * kPy), [&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    coll::Communicator comm(ph);
    Geometry g{env.rank};
    std::vector<double> halo(12 * nx, 0.0);
    auto desc =
        ph.register_buffer(halo.data(), halo.size() * sizeof(double)).value();
    auto peers = ph.exchange_descriptors(desc);
    std::unordered_map<int, int> arrived;
    enum { W, E, N, S };
    struct Push {
      std::uint32_t nbr;
      int out_dir, in_dir;
    };
    const Push pushes[] = {{g.west(), W, E}, {g.east(), E, W},
                           {g.north(), N, S}, {g.south(), S, N}};
    comm.barrier();
    benchsupport::sync_reset(env);

    for (int it = 0; it < kIters; ++it) {
      env.clock().add(4 * nx * 2);  // pack cost (~2 ns/element)
      int expected = 0;
      for (const Push& p : pushes) {
        if (p.nbr == UINT32_MAX) continue;
        const std::uint64_t rid =
            (static_cast<std::uint64_t>(it) << 8) | p.in_dir;
        const std::size_t in_off =
            (4 + 4 * (it & 1) + p.in_dir) * strip_bytes;
        if (ph.put_with_completion(
                p.nbr, core::local_slice(desc, p.out_dir * strip_bytes,
                                         strip_bytes),
                core::slice(peers[p.nbr], in_off, strip_bytes), std::nullopt,
                rid, kWait) != Status::Ok)
          throw std::runtime_error("halo put failed");
        ++expected;
      }
      // A neighbour that finished early may already have rung the closing
      // barrier; its keyed doorbells wait for comm.barrier(), not this probe.
      const auto landed =
          ph.wait_for(kWait, [&](bool& progressed) -> std::optional<bool> {
            if (arrived[it] >= expected) return true;
            if (auto ev = ph.probe_event()) {
              ++arrived[static_cast<int>(ev->id >> 8)];
              progressed = true;
            }
            return std::nullopt;
          });
      if (!landed) throw std::runtime_error("halo wait failed");
      arrived.erase(it);
      env.clock().add(4 * nx * 2);              // unpack
      env.clock().add(nx * nx * kComputePerCellNs);  // sweep
    }
    comm.barrier();
    // A rank leaves the barrier before its last doorbell is popped; keep
    // every Photon alive until all of them are.
    env.bootstrap.barrier(env.rank);
  });
  return static_cast<double>(vt) / kIters / 1e3;
}

/// Two-sided variant: the same kernel with send/recv ghost exchange.
double twosided_iter_us(std::size_t nx) {
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(kPx * kPy), [&](runtime::Env& env) {
    msg::Engine eng(env.nic, env.bootstrap, msg::Config{});
    Geometry g{env.rank};
    std::vector<double> strips(8 * nx, 0.0);
    enum { W, E, N, S };
    struct Xfer {
      std::uint32_t nbr;
      int out_dir, in_dir;
    };
    const Xfer xfers[] = {{g.west(), W, E}, {g.east(), E, W},
                          {g.north(), N, S}, {g.south(), S, N}};
    benchsupport::sync_reset(env);

    for (int it = 0; it < kIters; ++it) {
      env.clock().add(4 * nx * 2);  // pack
      // Post all receives, then all sends, then wait (the standard pattern).
      std::vector<msg::ReqId> rqs;
      for (const Xfer& x : xfers) {
        if (x.nbr == UINT32_MAX) continue;
        // Data from the neighbor in direction `out_dir` fills that ghost;
        // the neighbor tagged it with *our* slot direction (its in_dir).
        auto rq = eng.irecv(
            x.nbr, static_cast<msg::Tag>((it << 8) | x.out_dir),
            std::as_writable_bytes(std::span(
                strips.data() + (4 + x.out_dir) * nx, nx)));
        if (!rq.ok()) throw std::runtime_error("halo irecv failed");
        rqs.push_back(rq.value());
      }
      for (const Xfer& x : xfers) {
        if (x.nbr == UINT32_MAX) continue;
        // The strip we send lands tagged with the direction the *receiver*
        // sees it from.
        if (eng.send(x.nbr, static_cast<msg::Tag>((it << 8) | x.in_dir),
                     std::as_bytes(std::span(strips.data() + x.out_dir * nx,
                                             nx)),
                     kWait) != Status::Ok)
          throw std::runtime_error("halo send failed");
      }
      for (auto rq : rqs)
        if (eng.wait(rq, nullptr, kWait) != Status::Ok)
          throw std::runtime_error("halo wait failed");
      env.clock().add(4 * nx * 2);
      env.clock().add(nx * nx * kComputePerCellNs);
    }
  });
  return static_cast<double>(vt) / kIters / 1e3;
}

std::map<std::size_t, std::array<double, 2>> g_rows;

void BM_PhotonHalo(benchmark::State& st) {
  const auto nx = static_cast<std::size_t>(st.range(0));
  for (auto _ : st) {
    const double us = photon_iter_us(nx);
    g_rows[nx][0] = us;
    st.SetIterationTime(us / 1e6);
  }
}
void BM_TwoSidedHalo(benchmark::State& st) {
  const auto nx = static_cast<std::size_t>(st.range(0));
  for (auto _ : st) {
    const double us = twosided_iter_us(nx);
    g_rows[nx][1] = us;
    st.SetIterationTime(us / 1e6);
  }
}

}  // namespace

BENCHMARK(BM_PhotonHalo)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->UseManualTime()->Iterations(1);
BENCHMARK(BM_TwoSidedHalo)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->UseManualTime()->Iterations(1);

int main(int argc, char** argv) {
  benchsupport::BenchReport report("halo_app");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  benchsupport::Table t(
      "R-12  2-D halo-exchange iteration time on a 2x2 grid (virtual us)");
  t.columns({"local N", "photon", "two-sided", "speedup"});
  for (const auto& [nx, c] : g_rows) {
    t.row({std::to_string(nx), benchsupport::Table::num(c[0]),
           benchsupport::Table::num(c[1]),
           c[0] > 0 ? benchsupport::Table::num(c[1] / c[0]) : "-"});
  }
  t.print();
  benchsupport::print_resilience_table();
  return 0;
}
