#include <gtest/gtest.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>

#include "runtime/cluster.hpp"
#include "test_helpers.hpp"
#include "util/idle_wait.hpp"

namespace photon::runtime {
namespace {

using photon::testing::quiet_fabric;

TEST(Exchanger, AllExchangeDeliversEveryBlob) {
  Exchanger ex(4);
  std::vector<std::thread> ts;
  std::atomic<int> failures{0};
  for (std::uint32_t r = 0; r < 4; ++r) {
    ts.emplace_back([&, r] {
      std::vector<std::byte> blob(r + 1, static_cast<std::byte>(r));
      auto all = ex.all_exchange(r, blob);
      for (std::uint32_t s = 0; s < 4; ++s) {
        if (all[s].size() != s + 1 ||
            all[s][0] != static_cast<std::byte>(s))
          ++failures;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Exchanger, ConsecutiveRoundsDoNotBleed) {
  Exchanger ex(3);
  std::vector<std::thread> ts;
  std::atomic<int> failures{0};
  for (std::uint32_t r = 0; r < 3; ++r) {
    ts.emplace_back([&, r] {
      for (std::uint32_t round = 0; round < 50; ++round) {
        const std::uint64_t v = (std::uint64_t{round} << 8) | r;
        auto all = ex.all_gather(r, v);
        for (std::uint32_t s = 0; s < 3; ++s)
          if (all[s] != ((std::uint64_t{round} << 8) | s)) ++failures;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Exchanger, BarrierSynchronizes) {
  Exchanger ex(4);
  std::atomic<int> phase{0};
  std::vector<std::thread> ts;
  std::atomic<int> violations{0};
  for (std::uint32_t r = 0; r < 4; ++r) {
    ts.emplace_back([&, r] {
      phase.fetch_add(1);
      ex.barrier(r);
      if (phase.load() != 4) ++violations;
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(Cluster, RunsBodyOncePerRank) {
  Cluster cluster(quiet_fabric(4));
  std::atomic<std::uint32_t> mask{0};
  cluster.run([&](Env& env) {
    mask.fetch_or(1u << env.rank);
    EXPECT_EQ(env.size, 4u);
    EXPECT_EQ(env.nic.rank(), env.rank);
  });
  EXPECT_EQ(mask.load(), 0xFu);
}

TEST(Cluster, PropagatesRankExceptions) {
  Cluster cluster(quiet_fabric(2));
  EXPECT_THROW(
      cluster.run([&](Env& env) {
        if (env.rank == 1) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(Cluster, RunIsRepeatable) {
  Cluster cluster(quiet_fabric(2));
  int total = 0;
  for (int i = 0; i < 3; ++i) {
    std::atomic<int> count{0};
    cluster.run([&](Env&) { count.fetch_add(1); });
    total += count.load();
  }
  EXPECT_EQ(total, 6);
}

TEST(Cluster, ResetVirtualTimeZeroesClocks) {
  fabric::FabricConfig cfg = photon::testing::timed_fabric(2);
  Cluster cluster(cfg);
  cluster.run([&](Env& env) { env.clock().add(1000); });
  EXPECT_GT(cluster.fabric().nic(0).clock().now(), 0u);
  cluster.reset_virtual_time();
  EXPECT_EQ(cluster.fabric().nic(0).clock().now(), 0u);
  EXPECT_EQ(cluster.fabric().nic(1).clock().now(), 0u);
}

// Cluster::run marks its rank threads shared or dedicated from the calling
// thread's affinity mask; each rank reports the verdict it runs under.
std::array<bool, 2> rank_verdicts(Cluster& cluster) {
  std::array<bool, 2> shared{};
  cluster.run([&](Env& env) { shared[env.rank] = util::t_cpu_shared; });
  return shared;
}

TEST(Cluster, RanksStartedFromOneCpuShareIt) {
  EXPECT_TRUE(util::t_cpu_shared);  // the gtest main thread's default
  Cluster cluster(quiet_fabric(2));
  std::array<bool, 2> shared{};
  bool pinned = false;
  std::thread helper([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    int cpu = 0;
    while (!CPU_ISSET(cpu, &set)) ++cpu;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pinned = sched_setaffinity(0, sizeof set, &set) == 0;
    if (pinned) shared = rank_verdicts(cluster);
  });
  helper.join();
  ASSERT_TRUE(pinned);
  EXPECT_TRUE(shared[0]);
  EXPECT_TRUE(shared[1]);
}

TEST(Cluster, RanksStartedFromEnoughCpusGetOneEach) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  if (CPU_COUNT(&set) < 2) GTEST_SKIP() << "fewer than 2 CPUs allowed";
  Cluster cluster(quiet_fabric(2));
  const std::array<bool, 2> shared = rank_verdicts(cluster);
  EXPECT_FALSE(shared[0]);
  EXPECT_FALSE(shared[1]);
  EXPECT_TRUE(util::t_cpu_shared);  // the caller's own verdict is untouched
}

TEST(Cluster, CrossRankRdmaInsideRun) {
  Cluster cluster(quiet_fabric(2));
  std::vector<std::uint64_t> cells(2, 0);
  struct Info {
    std::uint64_t addr;
    std::uint64_t rkey;
  };
  cluster.run([&](Env& env) {
    auto mr = env.nic.registry().register_memory(&cells[env.rank], 8,
                                                 fabric::kAccessAll);
    auto infos = env.bootstrap.all_gather(
        env.rank, Info{mr.value().begin(), mr.value().rkey});
    const fabric::Rank peer = 1 - env.rank;
    const std::uint64_t v = 100 + env.rank;
    ASSERT_EQ(env.nic.post_put_inline(peer, &v, 8,
                                      {infos[peer].addr, infos[peer].rkey}, 0,
                                      0, false, false),
              Status::Ok);
    env.bootstrap.barrier(env.rank);
  });
  EXPECT_EQ(cells[0], 101u);
  EXPECT_EQ(cells[1], 100u);
}

}  // namespace
}  // namespace photon::runtime
