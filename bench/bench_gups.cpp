// R-9 (irregular-access figure): GUPS-style random remote updates.
//
// A distributed table of 64-bit counters; every rank streams random
// increments at random owners. Photon path: one-sided fetch-add — a single
// wire round trip, no target CPU. Two-sided path: request/reply — the owner
// must receive, apply, and respond. Expected shape: one-sided sustains a
// multiple of the two-sided update rate, and the gap persists as ranks
// scale.
#include <benchmark/benchmark.h>

#include <map>

#include "benchsupport/harness.hpp"
#include "benchsupport/report.hpp"
#include "benchsupport/table.hpp"
#include "benchsupport/workloads.hpp"

using namespace photon;
using benchsupport::bench_fabric;
using benchsupport::mops;
using benchsupport::run_spmd_vtime;

namespace {

constexpr std::size_t kUpdatesPerRank = 4000;
constexpr std::uint32_t kSlots = 4096;
constexpr std::uint64_t kWait = 30'000'000'000ULL;
constexpr std::size_t kWindow = 64;

double photon_mups(std::uint32_t nranks) {
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(nranks), [&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    std::vector<std::uint64_t> shard(kSlots, 0);
    auto desc = ph.register_buffer(shard.data(), shard.size() * 8).value();
    auto shards = ph.exchange_descriptors(desc);
    auto stream = benchsupport::gups_stream(kUpdatesPerRank, nranks, kSlots,
                                            500 + env.rank);
    benchsupport::sync_reset(env);
    std::size_t outstanding = 0;
    fabric::Completion c;
    for (const auto& u : stream) {
      const fabric::RemoteRef cell{shards[u.rank].addr + u.slot * 8,
                                   shards[u.rank].rkey};
      while (env.nic.post_fetch_add(u.rank, cell, 1, 0) == Status::QueueFull)
        if (env.nic.poll_send(c) == Status::Ok) --outstanding;
      ++outstanding;
      while (outstanding > kWindow) {
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
    env.bootstrap.barrier(env.rank);
  });
  return mops(kUpdatesPerRank * nranks, vt);
}

double twosided_mups(std::uint32_t nranks) {
  const std::uint64_t vt = run_spmd_vtime(bench_fabric(nranks), [&](runtime::Env& env) {
    msg::Engine eng(env.nic, env.bootstrap, msg::Config{});
    std::vector<std::uint64_t> shard(kSlots, 0);
    auto stream = benchsupport::gups_stream(kUpdatesPerRank, nranks, kSlots,
                                            500 + env.rank);
    benchsupport::sync_reset(env);
    // Each rank is both updater and owner: interleave sending requests with
    // serving incoming ones. Request: {slot}; reply: empty ack.
    std::size_t sent = 0, acked = 0, served = 0;
    const std::size_t expect_serve = kUpdatesPerRank;  // expectation: uniform
    std::uint64_t done_peers = 0;
    auto serve_one = [&]() -> bool {
      auto info = eng.iprobe(msg::kAnySource, msg::kAnyTag);
      if (!info) return false;
      if (info->tag == 1) {  // update request
        std::uint64_t slot = 0;
        auto r = eng.recv(info->source, 1,
                          std::as_writable_bytes(std::span(&slot, 1)), kWait);
        if (!r.ok()) throw std::runtime_error("serve recv failed");
        ++shard[slot % kSlots];
        env.clock().add(20);  // apply cost
        if (eng.send(info->source, 2, {}, kWait) != Status::Ok)
          throw std::runtime_error("ack failed");
        ++served;
      } else if (info->tag == 2) {  // ack
        if (!eng.recv(info->source, 2, {}, kWait).ok())
          throw std::runtime_error("ack recv failed");
        ++acked;
      } else {  // done marker
        if (!eng.recv(info->source, 3, {}, kWait).ok())
          throw std::runtime_error("done recv failed");
        ++done_peers;
      }
      return true;
    };
    const auto issued =
        eng.wait_for(kWait, [&](bool& moved) -> std::optional<bool> {
          if (sent == stream.size() && acked == sent) return true;
          if (sent < stream.size() && sent - acked < kWindow) {
            std::uint64_t slot = stream[sent].slot;
            if (eng.send(stream[sent].rank, 1, std::as_bytes(std::span(&slot, 1)),
                         kWait) != Status::Ok)
              throw std::runtime_error("request failed");
            ++sent;
            moved = true;
          }
          while (serve_one()) moved = true;
          return std::nullopt;
        });
    if (!issued) throw std::runtime_error("gups stalled");
    // Tell peers we are done issuing; keep serving until all are done.
    for (std::uint32_t r = 0; r < env.size; ++r)
      if (r != env.rank && eng.send(r, 3, {}, kWait) != Status::Ok)
        throw std::runtime_error("done send failed");
    const auto drained =
        eng.wait_for(kWait, [&](bool& moved) -> std::optional<bool> {
          if (done_peers == env.size - 1) return true;
          moved = serve_one();
          return std::nullopt;
        });
    if (!drained) throw std::runtime_error("gups drain stalled");
    (void)expect_serve;
    (void)served;
  });
  return mops(kUpdatesPerRank * nranks, vt);
}

std::map<std::uint32_t, std::array<double, 2>> g_rows;

void BM_PhotonGups(benchmark::State& st) {
  const auto n = static_cast<std::uint32_t>(st.range(0));
  for (auto _ : st) {
    const double r = photon_mups(n);
    g_rows[n][0] = r;
    st.SetIterationTime(1e-3);
    st.counters["MUPS"] = r;
  }
}
void BM_TwoSidedGups(benchmark::State& st) {
  const auto n = static_cast<std::uint32_t>(st.range(0));
  for (auto _ : st) {
    const double r = twosided_mups(n);
    g_rows[n][1] = r;
    st.SetIterationTime(1e-3);
    st.counters["MUPS"] = r;
  }
}

}  // namespace

BENCHMARK(BM_PhotonGups)->Arg(2)->Arg(4)->Arg(8)->UseManualTime()->Iterations(1);
BENCHMARK(BM_TwoSidedGups)->Arg(2)->Arg(4)->Arg(8)->UseManualTime()->Iterations(1);

int main(int argc, char** argv) {
  benchsupport::BenchReport report("gups");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  benchsupport::Table t(
      "R-9  Random remote updates, aggregate rate (virtual MUPS)");
  t.columns({"ranks", "one-sided fadd", "two-sided req/rep", "ratio"});
  for (const auto& [n, c] : g_rows) {
    t.row({std::to_string(n), benchsupport::Table::num(c[0]),
           benchsupport::Table::num(c[1]),
           c[1] > 0 ? benchsupport::Table::num(c[0] / c[1]) : "-"});
  }
  t.print();
  benchsupport::print_resilience_table();
  return 0;
}
