// PhotonHA correctness: replicated DDS shards with epoch-fenced failover.
//
// These tests drive the dds/ha.hpp ownership directory end to end: writes
// replicated primary+backup behind a replication fence, promotion when the
// primary is killed, redirect of clients to the promoted owner, and
// re-replication (state transfer) when the dead rank rejoins. The chaos
// campaign (--ha) explores the same machinery under randomized kill
// schedules; here each scenario is pinned down deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "coll/communicator.hpp"
#include "dds/hash_table.hpp"
#include "dds/lock.hpp"
#include "dds/queue.hpp"
#include "dds/service.hpp"
#include "runtime/cluster.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"

namespace photon::dds {
namespace {

using fabric::Rank;
using photon::testing::abort_on_fatal_failure;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

constexpr std::uint64_t kWait = 10'000'000'000ULL;

/// First `n` keys (1000+i) whose home under `ht` is `home`.
std::vector<std::uint64_t> keys_homed_at(const HashTable& ht, Rank home,
                                         std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1000; out.size() < n; ++k)
    if (ht.home_of(k) == home) out.push_back(k);
  return out;
}

// ---- failover: acked writes survive the primary ------------------------------

class DdsHaHashTable : public ::testing::TestWithParam<Backend> {};

TEST_P(DdsHaHashTable, AckedInsertsSurvivePrimaryKill) {
  Cluster cluster(quiet_fabric(4));
  cluster.run(abort_on_fatal_failure([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    HashTableConfig cfg;
    cfg.backend = GetParam();
    cfg.replicate = true;
    cfg.op_timeout_ns = kWait;
    HashTable ht(svc, cfg);

    auto& reg = svc.metrics();
    const std::uint64_t promos_before =
        reg.enabled() ? reg.counter("dds.ha.promotions").get() : 0;

    // Every rank writes a disjoint slice of keys homed at the victim; each
    // ack means the op is durable on ranks 1 AND 2. keys[16..] are spare
    // rank-distinct sentinels for post-failover writes (survivors run
    // concurrently, so they must not overwrite keys peers are verifying).
    const auto keys = keys_homed_at(ht, 1, 20);
    for (std::size_t i = env.rank * 4; i < env.rank * 4 + 4; ++i)
      ASSERT_EQ(ht.insert(keys[i], keys[i] * 3), Status::Ok);
    ASSERT_EQ(svc.fence(), Status::Ok);

    if (env.rank == 0) env.cluster.fabric().kill(1);
    env.bootstrap.barrier(env.rank);

    if (env.rank != 1) {
      // Survivors still read every acked key: the first resolve bumps the
      // shard's epoch and promotes the backup (rank 2), later ones adopt.
      for (std::size_t i = 0; i < 16; ++i) {
        const std::uint64_t k = keys[i];
        const auto v = ht.find(k);
        ASSERT_TRUE(v.ok()) << "key " << k << " lost after primary kill: "
                            << status_name(v.status());
        EXPECT_EQ(v.value(), k * 3);
      }
      // New writes keep working against the promoted owner.
      const std::uint64_t mine = keys[16 + (env.rank > 1 ? env.rank - 1 : 0)];
      EXPECT_EQ(ht.insert(mine, 99), Status::Ok);
      EXPECT_EQ(ht.find(mine).value(), 99u);
      EXPECT_EQ(svc.fence(), Status::Ok);  // fence spans survivors only
      svc.engine().transport().quiesce(kWait);
      if (env.rank == 0 && reg.enabled()) {
        EXPECT_GE(reg.counter("dds.ha.promotions").get(), promos_before + 1);
      }
    }
    env.bootstrap.barrier(env.rank);
  }));
}

INSTANTIATE_TEST_SUITE_P(Backends, DdsHaHashTable,
                         ::testing::Values(Backend::kRma, Backend::kRpc),
                         [](const auto& param_info) {
                           return std::string(backend_name(param_info.param));
                         });

// ---- queue failover conserves values -----------------------------------------

TEST(DdsHaQueue, FailoverConservesEveryAckedValue) {
  static std::mutex mu;
  static std::vector<std::uint64_t> dequeued;
  dequeued.clear();
  Cluster cluster(quiet_fabric(4));
  cluster.run(abort_on_fatal_failure([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    QueueConfig cfg;
    cfg.backend = Backend::kRma;
    cfg.home = 1;
    cfg.replicate = true;
    cfg.op_timeout_ns = kWait;
    Queue q(svc, cfg);

    for (std::uint64_t i = 0; i < 3; ++i)
      ASSERT_EQ(q.enqueue((env.rank + 1) * 100 + i), Status::Ok);
    env.bootstrap.barrier(env.rank);

    if (env.rank == 0) env.cluster.fabric().kill(1);
    env.bootstrap.barrier(env.rank);

    if (env.rank != 1) {
      // 12 acked values, 3 survivors: four dequeues each, all served from
      // the promoted backup's mirrored ring.
      for (int i = 0; i < 4; ++i) {
        const auto v = q.dequeue();
        ASSERT_TRUE(v.ok()) << status_name(v.status());
        std::lock_guard<std::mutex> lock(mu);
        dequeued.push_back(v.value());
      }
    }
    env.bootstrap.barrier(env.rank);  // drain settled before the echo round

    // The promoted ring keeps serving new traffic too. Survivors run
    // concurrently against one MPMC queue, so a rank may well pop a peer's
    // sentinel — check the echo round as a multiset, like the drain.
    if (env.rank != 1) {
      ASSERT_EQ(q.enqueue(700 + env.rank), Status::Ok);
      env.bootstrap.barrier(env.rank);
      const auto back = q.dequeue();
      ASSERT_TRUE(back.ok());
      std::lock_guard<std::mutex> lock(mu);
      dequeued.push_back(back.value());
    } else {
      env.bootstrap.barrier(env.rank);
    }
    env.bootstrap.barrier(env.rank);
    if (env.rank == 0) {
      std::vector<std::uint64_t> expected;
      for (std::uint32_t r = 0; r < env.size; ++r)
        for (std::uint64_t i = 0; i < 3; ++i)
          expected.push_back((r + 1) * 100 + i);
      for (std::uint32_t r = 0; r < env.size; ++r)
        if (r != 1) expected.push_back(700 + r);
      std::lock_guard<std::mutex> lock(mu);
      std::sort(dequeued.begin(), dequeued.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(dequeued, expected);
    }
    env.bootstrap.barrier(env.rank);
  }));
}

// ---- lock failover keeps excluding -------------------------------------------

TEST(DdsHaLock, MutualExclusionHoldsAcrossFailover) {
  constexpr int kRounds = 5;
  static std::uint64_t shared_count;
  static std::atomic<int> holders;
  shared_count = 0;
  holders.store(0);
  Cluster cluster(quiet_fabric(4));
  cluster.run(abort_on_fatal_failure([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    LockConfig cfg;
    cfg.backend = Backend::kRma;
    cfg.home = 1;
    cfg.replicate = true;
    cfg.op_timeout_ns = kWait;
    Lock lk(svc, cfg);

    auto cycle = [&] {
      ASSERT_EQ(lk.acquire(), Status::Ok);
      ASSERT_EQ(holders.fetch_add(1), 0) << "two ranks inside the lock";
      const std::uint64_t v = shared_count;
      std::this_thread::yield();
      shared_count = v + 1;
      holders.fetch_sub(1);
      ASSERT_EQ(lk.release(), Status::Ok);
    };
    for (int i = 0; i < kRounds; ++i) cycle();
    env.bootstrap.barrier(env.rank);  // quiesced: the lock is free

    if (env.rank == 0) env.cluster.fabric().kill(1);
    env.bootstrap.barrier(env.rank);

    if (env.rank != 1)
      for (int i = 0; i < kRounds; ++i) cycle();  // via the promoted owner
    env.bootstrap.barrier(env.rank);
    if (env.rank == 0) {
      EXPECT_EQ(shared_count,
                static_cast<std::uint64_t>(kRounds * env.size +
                                           kRounds * (env.size - 1)));
    }
    env.bootstrap.barrier(env.rank);
  }));
}

// ---- rejoin: re-replication makes the rejoiner a real backup again -----------

TEST(DdsHaRejoin, StateTransferSurvivesSecondFailover) {
  Cluster cluster(quiet_fabric(4));
  cluster.run(abort_on_fatal_failure([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    coll::Communicator comm(ph);
    HashTableConfig cfg;
    cfg.backend = Backend::kRma;
    cfg.replicate = true;
    cfg.op_timeout_ns = kWait;
    HashTable ht(svc, cfg);
    const auto keys = keys_homed_at(ht, 1, 15);  // [12..14]: per-rank sentinels

    // Phase 1: all alive. keys[0..5] acked on ranks 1 and 2.
    if (env.rank == 0) {
      for (int i = 0; i < 6; ++i)
        ASSERT_EQ(ht.insert(keys[i], keys[i] + 7), Status::Ok);
    }
    env.bootstrap.barrier(env.rank);

    // Phase 2: primary dies. keys[6..11] acked on rank 2 alone (the
    // would-be backup is the corpse).
    if (env.rank == 0) env.cluster.fabric().kill(1);
    env.bootstrap.barrier(env.rank);
    if (env.rank != 1) {
      ASSERT_EQ(comm.shrink(), 1u);
      if (env.rank == 0) {
        for (int i = 6; i < 12; ++i)
          ASSERT_EQ(ht.insert(keys[i], keys[i] + 7), Status::Ok);
      }
    }
    env.bootstrap.barrier(env.rank);

    // Phase 3: rank 1 comes back. Rejoin choreography, then re-replication:
    // the promoted owner (rank 2) pushes shard 1's state — including the
    // writes rank 1 never saw — back into rank 1's region, and the
    // directory rows follow.
    if (env.rank == 0) env.cluster.fabric().revive(1);
    env.bootstrap.barrier(env.rank);
    Status st = Status::Timeout;
    for (int attempt = 0; attempt < 3 && st != Status::Ok; ++attempt)
      st = comm.rejoin(1);
    ASSERT_EQ(st, Status::Ok);
    ASSERT_EQ(svc.directory().resync(1, kWait), Status::Ok);
    ASSERT_EQ(ht.ha_resync(1), Status::Ok);
    env.bootstrap.barrier(env.rank);

    // Phase 4: the promoted owner dies. The re-replicated rank 1 must now
    // serve everything — including keys acked while it was dead.
    if (env.rank == 0) env.cluster.fabric().kill(2);
    env.bootstrap.barrier(env.rank);
    if (env.rank != 2) {
      for (std::size_t i = 0; i < 12; ++i) {
        const std::uint64_t k = keys[i];
        const auto v = ht.find(k);
        ASSERT_TRUE(v.ok()) << "key " << k
                            << " lost after second failover (re-replication "
                               "did not stick): "
                            << status_name(v.status());
        EXPECT_EQ(v.value(), k + 7);
      }
      // Writes keep flowing after the second promotion (rank-distinct keys:
      // survivors verify concurrently, so nobody touches the shared set).
      const std::uint64_t mine = keys[12 + (env.rank > 2 ? env.rank - 1 : env.rank)];
      EXPECT_EQ(ht.insert(mine, 123), Status::Ok);
      EXPECT_EQ(ht.find(mine).value(), 123u);
    }
    env.bootstrap.barrier(env.rank);
  }));
}

// ---- HandlerRegistry::remove vs in-flight stragglers -------------------------

TEST(DdsHaHandlerLifetime, DestroyWhileRequestsInFlightDropsStragglers) {
  Cluster cluster(quiet_fabric(2));
  cluster.run(abort_on_fatal_failure([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    HashTableConfig cfg;
    cfg.backend = Backend::kRpc;
    cfg.op_timeout_ns = 50'000'000;  // short: stragglers time out fast
    std::optional<HashTable> ht;
    ht.emplace(svc, cfg);
    const auto keys = keys_homed_at(*ht, 0, 6);
    env.bootstrap.barrier(env.rank);

    if (env.rank == 0) {
      // Destroy the table while rank 1 is (possibly) mid-request, then keep
      // polling: stragglers addressed to the removed handlers must be
      // dropped by the dispatcher, not crash or leak into a later table.
      ht.reset();
      for (int i = 0; i < 20000; ++i) {
        svc.progress();
        if ((i & 1023) == 0) std::this_thread::yield();
      }
    } else {
      // Race the destruction. Each op either completes against the live
      // table (Ok/NotFound) or its request/reply is dropped and the short
      // deadline expires — anything else is a lifetime bug.
      for (const std::uint64_t k : keys) {
        const Status ist = ht->insert(k, k);
        EXPECT_TRUE(ist == Status::Ok || ist == Status::Timeout)
            << status_name(ist);
        const auto f = ht->find(k);
        EXPECT_TRUE(f.ok() || f.status() == Status::Timeout ||
                    f.status() == Status::NotFound)
            << status_name(f.status());
      }
      ht.reset();
    }
    env.bootstrap.barrier(env.rank);

    // A second table on the same service draws fresh handler ids (never
    // reused), so any ht1-era parcels still in flight cannot be mistaken
    // for ht2 traffic.
    HashTableConfig cfg2;
    cfg2.backend = Backend::kRpc;
    cfg2.op_timeout_ns = kWait;
    HashTable ht2(svc, cfg2);
    const auto keys2 = keys_homed_at(ht2, 0, 4);
    if (env.rank == 1) {
      for (const std::uint64_t k : keys2)
        EXPECT_EQ(ht2.insert(k, k * 5), Status::Ok);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
    for (const std::uint64_t k : keys2) {
      const auto v = ht2.find(k);
      ASSERT_TRUE(v.ok()) << status_name(v.status());
      EXPECT_EQ(v.value(), k * 5);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
    svc.engine().transport().quiesce(kWait);
    env.bootstrap.barrier(env.rank);
  }));
}

}  // namespace
}  // namespace photon::dds
