// Parcel-runtime property tests: transport parity (the same seeded program
// must compute the same answer over Photon and over the two-sided
// baseline), randomized spawn trees, and large-body sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "parcels/parcel_engine.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace photon::parcels {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

enum class Kind { kPhoton, kTwoSided };

/// Runs a seeded scatter/ack program and returns the checksum accumulated
/// on rank 0.
std::uint64_t run_scatter_program(Kind kind, std::uint64_t seed,
                                  std::uint32_t nranks, int rounds) {
  Cluster cluster(quiet_fabric(nranks));
  std::atomic<std::uint64_t> result{0};
  cluster.run([&](Env& env) {
    HandlerRegistry reg;
    auto body = [&](ParcelEngine& eng) {
      std::atomic<std::uint64_t> local_sum{0};
      std::atomic<int> acks{0};
      const HandlerId ack = reg.add([&](Context& ctx) {
        std::uint64_t v;
        std::memcpy(&v, ctx.args().data(), 8);
        local_sum.fetch_add(v);
        acks.fetch_add(1);
      });
      const HandlerId work = reg.add([&, ack](Context& ctx) {
        std::uint64_t v;
        std::memcpy(&v, ctx.args().data(), 8);
        std::uint64_t r = v * 2654435761u + ctx.rank();
        ctx.reply(ack, std::as_bytes(std::span(&r, 1)));
      });
      const HandlerId stop = reg.add([&](Context&) { acks.fetch_add(1000000); });

      env.bootstrap.barrier(env.rank);
      if (env.rank == 0) {
        util::Xoshiro256 rng(seed);
        int expected = 0;
        for (int i = 0; i < rounds; ++i) {
          const auto dst =
              static_cast<fabric::Rank>(1 + rng.below(nranks - 1));
          std::uint64_t v = rng.next();
          eng.send(dst, work, std::as_bytes(std::span(&v, 1)));
          ++expected;
        }
        EXPECT_TRUE(eng.run_until([&] { return acks.load() == expected; }));
        result.store(local_sum.load());
        for (fabric::Rank d = 1; d < nranks; ++d) eng.send(d, stop, {});
      } else {
        EXPECT_TRUE(eng.run_until([&] { return acks.load() >= 1000000; }));
      }
      env.bootstrap.barrier(env.rank);
    };
    if (kind == Kind::kPhoton) {
      core::Photon ph(env.nic, env.bootstrap, core::Config{});
      PhotonTransport tr(ph);
      ParcelEngine eng(tr, reg);
      body(eng);
    } else {
      msg::Engine me(env.nic, env.bootstrap, msg::Config{});
      MsgTransport tr(me);
      ParcelEngine eng(tr, reg);
      body(eng);
    }
  });
  return result.load();
}

TEST(ParcelParity, TransportsComputeIdenticalResults) {
  for (std::uint64_t seed : {1ull, 42ull, 777ull}) {
    const auto a = run_scatter_program(Kind::kPhoton, seed, 4, 60);
    const auto b = run_scatter_program(Kind::kTwoSided, seed, 4, 60);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_NE(a, 0u);
  }
}

class BodySizeSweep
    : public ::testing::TestWithParam<std::tuple<Kind, std::size_t>> {};

TEST_P(BodySizeSweep, BodiesArriveIntact) {
  const auto [kind, size] = GetParam();
  Cluster cluster(quiet_fabric(2));
  cluster.run([&, size = size, kind = kind](Env& env) {
    HandlerRegistry reg;
    auto body = [&](ParcelEngine& eng) {
      std::atomic<bool> ok{false};
      const HandlerId check = reg.add([&](Context& ctx) {
        auto expect = pattern(size, static_cast<std::uint8_t>(size % 250));
        ok.store(ctx.args().size() == size &&
                 (size == 0 || std::memcmp(ctx.args().data(), expect.data(),
                                           size) == 0));
      });
      env.bootstrap.barrier(env.rank);
      if (env.rank == 0) {
        eng.send(1, check, pattern(size, static_cast<std::uint8_t>(size % 250)));
        env.bootstrap.barrier(env.rank);
        eng.run_until([&] { return true; });
      } else {
        EXPECT_TRUE(eng.run_until([&] { return eng.stats().dispatched >= 1; }));
        EXPECT_TRUE(ok.load());
        env.bootstrap.barrier(env.rank);
      }
      env.bootstrap.barrier(env.rank);
    };
    if (kind == Kind::kPhoton) {
      core::Photon ph(env.nic, env.bootstrap, core::Config{});
      PhotonTransport tr(ph);
      ParcelEngine eng(tr, reg);
      body(eng);
    } else {
      msg::Engine me(env.nic, env.bootstrap, msg::Config{});
      MsgTransport tr(me);
      ParcelEngine eng(tr, reg);
      body(eng);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BodySizeSweep,
    ::testing::Combine(::testing::Values(Kind::kPhoton, Kind::kTwoSided),
                       ::testing::Values<std::size_t>(0, 1, 64, 8192, 8193,
                                                      100000)));

// Randomized spawn tree: every parcel spawns children until a depth limit;
// a global counter of dispatched parcels must equal the tree size computed
// analytically from the seed.
TEST(ParcelProperty, RandomSpawnTreeCountsMatch) {
  constexpr std::uint32_t kRanks = 4;
  Cluster cluster(quiet_fabric(kRanks));
  std::atomic<std::uint64_t> total_dispatched{0};
  // Precompute expected tree size with the same deterministic rule the
  // handler uses: node (depth, path) has children iff depth < 3, count =
  // 1 + (hash(path) % 2).
  std::function<std::uint64_t(std::uint64_t, int)> tree_size =
      [&](std::uint64_t path, int depth) -> std::uint64_t {
    if (depth >= 3) return 1;
    const std::uint64_t kids = 1 + ((path * 2654435761u) >> 7) % 2;
    std::uint64_t n = 1;
    for (std::uint64_t k = 0; k < kids; ++k)
      n += tree_size(path * 31 + k + 1, depth + 1);
    return n;
  };
  const std::uint64_t expected = tree_size(1, 0);

  cluster.run([&](Env& env) {
    HandlerRegistry reg;
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    PhotonTransport tr(ph);
    ParcelEngine eng(tr, reg);

    struct Node {
      std::uint64_t path;
      std::uint32_t depth;
    };
    std::atomic<bool> stop{false};
    HandlerId grow = 0;
    const HandlerId stop_h = reg.add([&](Context&) { stop.store(true); });
    grow = reg.add([&](Context& ctx) {
      Node n;
      std::memcpy(&n, ctx.args().data(), sizeof(n));
      total_dispatched.fetch_add(1);
      if (n.depth >= 3) return;
      const std::uint64_t kids = 1 + ((n.path * 2654435761u) >> 7) % 2;
      for (std::uint64_t k = 0; k < kids; ++k) {
        Node child{n.path * 31 + k + 1, n.depth + 1};
        ctx.spawn(static_cast<fabric::Rank>((n.path + k) % ctx.size()), grow,
                  std::as_bytes(std::span<const Node, 1>(&child, 1)));
      }
    });

    env.bootstrap.barrier(env.rank);
    if (env.rank == 0) {
      Node root{1, 0};
      eng.send(1 % kRanks, grow, std::as_bytes(std::span<const Node, 1>(&root, 1)));
    }
    // Everyone serves until the global count converges (checked by rank 0
    // polling the shared atomic), then rank 0 broadcasts stop.
    if (env.rank == 0) {
      EXPECT_TRUE(eng.run_until(
          [&] { return total_dispatched.load() == expected; }));
      for (fabric::Rank d = 1; d < kRanks; ++d) eng.send(d, stop_h, {});
      eng.run_until([&] { return true; });
    } else {
      EXPECT_TRUE(eng.run_until([&] { return stop.load(); }));
    }
    env.bootstrap.barrier(env.rank);
  });
  EXPECT_EQ(total_dispatched.load(), expected);
}

}  // namespace
}  // namespace photon::parcels
