// PhotonDDS correctness: hash table / queue / lock, RMA vs RPC twins, and
// the remote-atomic result cache driven through the DDS fast path under
// wire loss.
//
// Suite naming note: DdsHashTable/DdsQueue/DdsLock/DdsParity run again in
// the ci.sh soak leg under a random lossy wire; DdsAtomicRetrans scripts its
// own faults and stays out of that leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <vector>

#include "dds/hash_table.hpp"
#include "fabric/fault.hpp"
#include "dds/lock.hpp"
#include "dds/queue.hpp"
#include "dds/service.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"

namespace photon::dds {
namespace {

using fabric::OpCode;
using fabric::Rank;
using fabric::WireFault;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

void with_service(std::uint32_t nranks,
                  const std::function<void(Env&, Service&)>& body) {
  Cluster cluster(quiet_fabric(nranks));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    body(env, svc);
    // Serving fence, not a hard barrier: even a rank whose body bailed early
    // (failed ASSERT) must keep answering peers' RPC requests on the way out.
    svc.fence();
    svc.engine().transport().quiesce(5'000'000'000ULL);
    env.bootstrap.barrier(env.rank);
  });
}

/// First `n` keys (1000+i) whose home under `ht` is `home`.
std::vector<std::uint64_t> keys_homed_at(const HashTable& ht, Rank home,
                                         std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1000; out.size() < n; ++k)
    if (ht.home_of(k) == home) out.push_back(k);
  return out;
}

// ---- hash table -------------------------------------------------------------

class DdsHashTable : public ::testing::TestWithParam<Backend> {};

TEST_P(DdsHashTable, InsertFindEveryHomeIncludingSelf) {
  with_service(3, [](Env& env, Service& svc) {
    HashTableConfig cfg;
    cfg.backend = GetParam();
    HashTable ht(svc, cfg);
    // Each rank inserts keys homed at *every* rank — including itself, so
    // the self-targeted (loopback) atomic path is exercised too.
    std::vector<std::uint64_t> mine;
    for (Rank home = 0; home < env.size; ++home)
      for (std::uint64_t k : keys_homed_at(ht, home, 8))
        mine.push_back(k * env.size + env.rank);  // rank-unique keys
    for (std::uint64_t k : mine)
      ASSERT_EQ(ht.insert(k, k ^ 0xABCDu), Status::Ok);
    ASSERT_EQ(svc.fence(), Status::Ok);
    // Every rank finds every other rank's inserts.
    for (std::uint32_t r = 0; r < env.size; ++r) {
      for (Rank home = 0; home < env.size; ++home)
        for (std::uint64_t base : keys_homed_at(ht, home, 8)) {
          const std::uint64_t k = base * env.size + r;
          auto v = ht.find(k);
          ASSERT_TRUE(v.ok())
              << "key " << k << ": " << status_name(v.status());
          EXPECT_EQ(v.value(), k ^ 0xABCDu);
        }
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

TEST_P(DdsHashTable, UpdateOverwritesAndMissIsNotFound) {
  with_service(2, [](Env& env, Service& svc) {
    HashTableConfig cfg;
    cfg.backend = GetParam();
    HashTable ht(svc, cfg);
    if (env.rank == 0) {
      ASSERT_EQ(ht.insert(77, 1), Status::Ok);
      ASSERT_EQ(ht.insert(77, 2), Status::Ok);
      auto v = ht.find(77);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(v.value(), 2u);
      EXPECT_EQ(ht.find(78).status(), Status::NotFound);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
    if (env.rank == 1) {
      auto v = ht.find(77);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(v.value(), 2u);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

TEST(DdsHashTable, FullProbeChainReportsQueueFull) {
  with_service(2, [](Env& env, Service& svc) {
    HashTableConfig cfg;
    cfg.backend = Backend::kRma;
    cfg.slots_per_rank = 4;
    cfg.probe_limit = 4;
    HashTable ht(svc, cfg);
    if (env.rank == 0) {
      // Five distinct keys homed at rank 1 cannot fit in a 4-slot shard.
      auto keys = keys_homed_at(ht, 1, 5);
      Status last = Status::Ok;
      for (std::uint64_t k : keys) last = ht.insert(k, k);
      EXPECT_EQ(last, Status::QueueFull);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

TEST(DdsHashTable, RejectsOversizedKeys) {
  with_service(2, [](Env&, Service& svc) {
    HashTable ht(svc, HashTableConfig{});
    EXPECT_EQ(ht.insert(HashTable::kMaxKey + 1, 1), Status::BadArgument);
    EXPECT_EQ(ht.find(HashTable::kMaxKey + 1).status(), Status::BadArgument);
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

/// Start of `key`'s probe chain in a shard of `slots` slots (the RMA
/// table's slot selection).
std::uint32_t home_slot(std::uint64_t key, std::uint32_t slots) {
  return static_cast<std::uint32_t>((mix64(key) >> 20) % slots);
}

TEST(DdsHashTable, FindCostsOneReadPerProbedSlot) {
  with_service(2, [](Env& env, Service& svc) {
    HashTableConfig cfg;
    cfg.backend = Backend::kRma;
    cfg.slots_per_rank = 64;
    HashTable ht(svc, cfg);
    if (env.rank == 0) {
      // Three keys sharing one home slot in rank 1's shard occupy slots
      // s, s+1, s+2; `miss` is homed at a slot outside that chain.
      std::map<std::uint32_t, std::vector<std::uint64_t>> by_slot;
      std::vector<std::uint64_t> chain;
      for (std::uint64_t k = 1000; chain.empty(); ++k) {
        if (ht.home_of(k) != 1) continue;
        auto& keys = by_slot[home_slot(k, cfg.slots_per_rank)];
        keys.push_back(k);
        if (keys.size() == 3) chain = keys;
      }
      const std::uint32_t s = home_slot(chain[0], cfg.slots_per_rank);
      std::uint64_t miss = 1000;
      while (ht.home_of(miss) != 1 ||
             (home_slot(miss, cfg.slots_per_rank) + cfg.slots_per_rank - s) %
                     cfg.slots_per_rank <
                 3)
        ++miss;
      for (std::uint64_t k : chain) ASSERT_EQ(ht.insert(k, k + 1), Status::Ok);

      // Remote reads a find posts: CoreStats::atomics counts one per
      // get_u64x2, however many words it returns.
      auto reads_of = [&](std::uint64_t k, util::Result<std::uint64_t>& r) {
        const std::uint64_t before = svc.photon().stats().atomics;
        r = ht.find(k);
        return svc.photon().stats().atomics - before;
      };
      util::Result<std::uint64_t> r = Status::NotFound;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(reads_of(chain[i], r), i + 1)
            << "hit at probe position " << i + 1;
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value(), chain[i] + 1);
      }
      EXPECT_EQ(reads_of(miss, r), 1u) << "miss at an empty home slot";
      EXPECT_EQ(r.status(), Status::NotFound);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, DdsHashTable,
                         ::testing::Values(Backend::kRma, Backend::kRpc),
                         [](const auto& param_info) {
                           return std::string(backend_name(param_info.param));
                         });

// ---- concurrent writers and finders (TSan leg) -----------------------------

class DdsHashTableConcurrent : public ::testing::TestWithParam<Backend> {};

TEST_P(DdsHashTableConcurrent, EveryHitCarriesItsKeyAndABegunVersion) {
  // Ranks 0 and 1 write: each round updates a hot key and inserts a fresh
  // one. Rank 2 finds hot keys, the newest acked fresh key of each writer,
  // and the fresh key that writer may be inserting right now. Values are
  // key << 32 | version << 1 | writer; a hit must carry its own key and a
  // version its writer has begun to write (the kv_zipf check).
  constexpr std::uint64_t kHot = 16;  // keys 1..kHot, preloaded at version 0
  constexpr std::uint64_t kRounds = 400;
  std::array<std::atomic<std::uint64_t>, 2> begun{};  // per writer
  std::array<std::atomic<std::uint64_t>, 2> acked{};  // fresh keys inserted
  const auto value_of = [](std::uint64_t key, std::uint64_t version,
                           std::uint64_t writer) {
    return key << 32 | version << 1 | writer;
  };
  const auto fresh_key = [](std::uint64_t writer, std::uint64_t i) {
    return 1'000'000 * (writer + 1) + i;
  };
  with_service(3, [&](Env& env, Service& svc) {
    HashTableConfig cfg;
    cfg.backend = GetParam();
    HashTable ht(svc, cfg);
    if (env.rank == 0) {
      for (std::uint64_t k = 1; k <= kHot; ++k)
        ASSERT_EQ(ht.insert(k, value_of(k, 0, 0)), Status::Ok);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);

    const auto check_hit = [&](std::uint64_t key, std::uint64_t v) {
      const std::uint64_t writer = v & 1;
      const std::uint64_t version = (v >> 1) & 0x7fffffffu;
      EXPECT_EQ(v >> 32, key) << "hit for key " << key << " carries " << v;
      EXPECT_LE(version, begun[writer].load(std::memory_order_acquire))
          << "key " << key << " carries a version never begun";
    };
    if (env.rank < 2) {
      const std::uint64_t w = env.rank;
      for (std::uint64_t i = 1; i <= kRounds; ++i) {
        const std::uint64_t hot = 1 + (i * 7 + w) % kHot;
        const std::uint64_t fresh = fresh_key(w, i);
        begun[w].store(i, std::memory_order_release);
        ASSERT_EQ(ht.insert(hot, value_of(hot, i, w)), Status::Ok);
        ASSERT_EQ(ht.insert(fresh, value_of(fresh, i, w)), Status::Ok);
        acked[w].store(i, std::memory_order_release);
      }
    } else {
      for (std::uint64_t i = 0; i < 2 * kRounds; ++i) {
        const std::uint64_t hot = 1 + i % kHot;
        auto h = ht.find(hot);
        ASSERT_TRUE(h.ok()) << "hot key " << hot << ": "
                            << status_name(h.status());
        check_hit(hot, h.value());
        const std::uint64_t w = i & 1;
        const std::uint64_t n = acked[w].load(std::memory_order_acquire);
        if (n > 0) {
          // Acked anywhere => findable everywhere.
          auto f = ht.find(fresh_key(w, n));
          ASSERT_TRUE(f.ok()) << "acked key " << fresh_key(w, n) << ": "
                              << status_name(f.status());
          check_hit(fresh_key(w, n), f.value());
        }
        auto g = ht.find(fresh_key(w, n + 1));  // possibly mid-insert
        if (g.ok()) {
          check_hit(fresh_key(w, n + 1), g.value());
        } else {
          EXPECT_EQ(g.status(), Status::NotFound);
        }
      }
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, DdsHashTableConcurrent,
                         ::testing::Values(Backend::kRma, Backend::kRpc),
                         [](const auto& param_info) {
                           return std::string(backend_name(param_info.param));
                         });

// ---- RMA vs RPC parity ------------------------------------------------------

TEST(DdsParity, TwinsAgreeOnTheSameOperationSequence) {
  with_service(2, [](Env& env, Service& svc) {
    HashTableConfig rma_cfg, rpc_cfg;
    rma_cfg.backend = Backend::kRma;
    rpc_cfg.backend = Backend::kRpc;
    HashTable rma(svc, rma_cfg);
    HashTable rpc(svc, rpc_cfg);
    // Same deterministic op sequence into both structures.
    for (std::uint64_t i = 0; i < 64; ++i) {
      const std::uint64_t k = (env.rank + 1) * 10'000 + i;
      ASSERT_EQ(rma.insert(k, mix64(k)), Status::Ok);
      ASSERT_EQ(rpc.insert(k, mix64(k)), Status::Ok);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
    for (std::uint32_t r = 0; r < env.size; ++r) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t k = (r + 1) * 10'000 + i;
        auto a = rma.find(k);
        auto b = rpc.find(k);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a.value(), b.value());
      }
      EXPECT_EQ(rma.find(999'999).status(), rpc.find(999'999).status());
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

// ---- queue ------------------------------------------------------------------

class DdsQueue : public ::testing::TestWithParam<Backend> {};

TEST_P(DdsQueue, RemoteFifoSingleProducer) {
  with_service(2, [](Env& env, Service& svc) {
    QueueConfig cfg;
    cfg.backend = GetParam();
    cfg.home = 1;  // rank 0 drives a purely remote ring
    cfg.capacity = 8;
    Queue q(svc, cfg);
    if (env.rank == 0) {
      for (std::uint64_t v = 1; v <= 32; ++v) {
        ASSERT_EQ(q.enqueue(v), Status::Ok);
        // Wrap the 8-slot ring: drain every 4 to keep capacity pressure on.
        if (v % 4 == 0)
          for (int i = 0; i < 4; ++i) {
            auto got = q.dequeue();
            ASSERT_TRUE(got.ok());
            ASSERT_EQ(got.value(), v - 3 + i);
          }
      }
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

TEST_P(DdsQueue, MpmcConservesEveryElement) {
  constexpr std::uint64_t kPerRank = 24;
  with_service(3, [](Env& env, Service& svc) {
    QueueConfig cfg;
    cfg.backend = GetParam();
    // Every rank enqueues its full batch before anyone dequeues, so the ring
    // must hold all of them at once (capacity wrap is RemoteFifo's job).
    cfg.capacity = 128;
    Queue q(svc, cfg);
    for (std::uint64_t i = 0; i < kPerRank; ++i)
      ASSERT_EQ(q.enqueue(env.rank * 1000 + i), Status::Ok);
    std::vector<std::uint64_t> got;
    for (std::uint64_t i = 0; i < kPerRank; ++i) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.ok());
      got.push_back(v.value());
    }
    // Serve until every rank is done before the *blocking* out-of-band
    // gather: a rank parked in all_exchange cannot answer RPC requests.
    ASSERT_EQ(svc.fence(), Status::Ok);
    // Gather everyone's dequeues: the union must be exactly the union of
    // enqueues (each element delivered once).
    auto all = env.bootstrap.all_exchange(
        env.rank, std::as_bytes(std::span(got.data(), got.size())));
    if (env.rank == 0) {
      std::vector<std::uint64_t> merged;
      for (const auto& blob : all) {
        const auto n = blob.size() / 8;
        const auto* p = reinterpret_cast<const std::uint64_t*>(blob.data());
        merged.insert(merged.end(), p, p + n);
      }
      std::sort(merged.begin(), merged.end());
      std::vector<std::uint64_t> expect;
      for (std::uint32_t r = 0; r < env.size; ++r)
        for (std::uint64_t i = 0; i < kPerRank; ++i)
          expect.push_back(r * 1000 + i);
      EXPECT_EQ(merged, expect);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, DdsQueue,
                         ::testing::Values(Backend::kRma, Backend::kRpc),
                         [](const auto& param_info) {
                           return std::string(backend_name(param_info.param));
                         });

// ---- lock -------------------------------------------------------------------

class DdsLock : public ::testing::TestWithParam<Backend> {};

TEST_P(DdsLock, MutualExclusionOverSharedCounter) {
  constexpr int kRounds = 25;
  // Plain (non-atomic) shared state: only mutual exclusion keeps the final
  // count exact; the holders flag catches any overlap directly.
  static std::uint64_t shared_count;
  static std::atomic<int> holders;
  shared_count = 0;
  holders.store(0);
  with_service(3, [](Env& env, Service& svc) {
    LockConfig cfg;
    cfg.backend = GetParam();
    Lock lk(svc, cfg);
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_EQ(lk.acquire(), Status::Ok);
      ASSERT_EQ(holders.fetch_add(1), 0) << "two ranks inside the lock";
      const std::uint64_t v = shared_count;
      std::this_thread::yield();  // widen any race window
      shared_count = v + 1;
      holders.fetch_sub(1);
      ASSERT_EQ(lk.release(), Status::Ok);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
    if (env.rank == 0) {
      EXPECT_EQ(shared_count, kRounds * env.size);
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

TEST_P(DdsLock, NonReentrantAndReleaseRequiresHold) {
  with_service(2, [](Env& env, Service& svc) {
    LockConfig cfg;
    cfg.backend = GetParam();
    Lock lk(svc, cfg);
    EXPECT_EQ(lk.release(), Status::BadArgument);
    if (env.rank == 0) {
      ASSERT_EQ(lk.acquire(), Status::Ok);
      EXPECT_EQ(lk.acquire(), Status::BadArgument);
      EXPECT_TRUE(lk.held());
      ASSERT_EQ(lk.release(), Status::Ok);
      EXPECT_FALSE(lk.held());
    }
    ASSERT_EQ(svc.fence(), Status::Ok);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, DdsLock,
                         ::testing::Values(Backend::kRma, Backend::kRpc),
                         [](const auto& param_info) {
                           return std::string(backend_name(param_info.param));
                         });

// ---- fast-fail against a dead owner -----------------------------------------

class DdsFastFail : public ::testing::TestWithParam<Backend> {};

TEST_P(DdsFastFail, OpsToDeadOwnerSurfacePeerUnreachableImmediately) {
  // Unreplicated structures whose owner is latched Down must surface
  // Status::PeerUnreachable as an error, promptly — not sit out the op
  // timeout. The op budget here is 10 s of virtual time; the whole batch
  // must fail in well under one.
  Cluster cluster(quiet_fabric(3));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    HashTableConfig hc;
    hc.backend = GetParam();
    HashTable ht(svc, hc);
    QueueConfig qc;
    qc.backend = GetParam();
    qc.home = 2;
    Queue q(svc, qc);
    LockConfig lc;
    lc.backend = GetParam();
    lc.home = 2;
    Lock lk(svc, lc);
    env.bootstrap.barrier(env.rank);
    if (env.rank == 0) env.cluster.fabric().kill(2);
    env.bootstrap.barrier(env.rank);
    if (env.rank != 2) {
      const std::uint64_t key = keys_homed_at(ht, 2, 1)[0];
      const std::uint64_t t0 = env.clock().now();
      EXPECT_EQ(ht.insert(key, 7), Status::PeerUnreachable);
      EXPECT_EQ(ht.find(key).status(), Status::PeerUnreachable);
      EXPECT_EQ(q.enqueue(1), Status::PeerUnreachable);
      EXPECT_EQ(q.dequeue().status(), Status::PeerUnreachable);
      EXPECT_EQ(lk.acquire(), Status::PeerUnreachable);
      EXPECT_FALSE(lk.held());
      EXPECT_LT(env.clock().now() - t0, 1'000'000'000ULL)
          << "fast-fail burned virtual time against a latched-Down owner";
      // Survivors can still fence among themselves (rank 2 is excluded).
      EXPECT_EQ(svc.fence(), Status::Ok);
    }
    env.bootstrap.barrier(env.rank);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, DdsFastFail,
                         ::testing::Values(Backend::kRma, Backend::kRpc),
                         [](const auto& param_info) {
                           return std::string(backend_name(param_info.param));
                         });

// ---- remote-atomic result cache through the DDS fast path -------------------

TEST(DdsAtomicRetrans, QueueTicketFetchAddIsExactlyOnceUnderAckLoss) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    QueueConfig cfg;
    cfg.home = 1;
    Queue q(svc, cfg);
    if (env.rank == 0) {
      // The ack of the ticket fetch-add is lost: the NIC retransmits and the
      // home's result cache must replay ticket 0, not hand out ticket 1.
      env.nic.faults().arm_wire(
          {WireFault::kAckDrop, OpCode::FetchAdd, Rank{1}});
      ASSERT_EQ(q.enqueue(42), Status::Ok);
      ASSERT_EQ(q.enqueue(43), Status::Ok);
      // A re-executed duplicate would burn ticket 1: value 43 would land in
      // slot 2 and this dequeue of ticket 1 would time out.
      auto a = q.dequeue();
      auto b = q.dequeue();
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), 42u);
      EXPECT_EQ(b.value(), 43u);
    }
    env.bootstrap.barrier(env.rank);
  });
  EXPECT_GE(cluster.fabric().nic(0).counters().wire_ack_drops.load(), 1u);
  EXPECT_GE(cluster.fabric().nic(1).counters().dup_suppressed.load(), 1u);
}

TEST(DdsAtomicRetrans, HashClaimCasIsExactlyOnceUnderAckLoss) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    HashTable ht(svc, HashTableConfig{});
    if (env.rank == 0) {
      std::uint64_t key = 1000;
      while (ht.home_of(key) != 1) ++key;
      env.nic.faults().arm_wire(
          {WireFault::kAckDrop, OpCode::CompareSwap, Rank{1}});
      ASSERT_EQ(ht.insert(key, 7), Status::Ok);
      auto v = ht.find(key);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(v.value(), 7u);
    }
    env.bootstrap.barrier(env.rank);
  });
  EXPECT_GE(cluster.fabric().nic(1).counters().dup_suppressed.load(), 1u);
}

TEST(DdsAtomicRetrans, LockTailSwapIsDupSuppressedUnderAckLoss) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    LockConfig cfg;
    cfg.home = 1;
    Lock lk(svc, cfg);
    if (env.rank == 0) {
      env.nic.faults().arm_wire({WireFault::kAckDrop, OpCode::Swap, Rank{1}});
      // The replayed swap result must still be 0 (uncontended claim); a
      // re-execution would return our own node id and we'd wait forever for
      // a predecessor handoff.
      ASSERT_EQ(lk.acquire(), Status::Ok);
      ASSERT_EQ(lk.release(), Status::Ok);
      ASSERT_EQ(lk.acquire(), Status::Ok);
      ASSERT_EQ(lk.release(), Status::Ok);
    }
    env.bootstrap.barrier(env.rank);
  });
  EXPECT_GE(cluster.fabric().nic(1).counters().dup_suppressed.load(), 1u);
}

TEST(DdsAtomicRetrans, FixtureWithoutDedupCorruptsTheTicketCursor) {
  // Positive control for the suite: with the atomic-result cache disabled
  // (the seeded chaos bug fixture), the same ack-loss schedule re-executes
  // the fetch-add and the queue visibly breaks — proving the tests above
  // would catch a dedup regression.
  fabric::FabricConfig fcfg = quiet_fabric(2);
  fcfg.nic.chaos_fixture_no_atomic_dedup = true;
  Cluster cluster(fcfg);
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    QueueConfig cfg;
    cfg.home = 1;
    cfg.op_timeout_ns = 300'000'000ULL;  // the broken dequeue must time out
    Queue q(svc, cfg);
    if (env.rank == 0) {
      env.nic.faults().arm_wire(
          {WireFault::kAckDrop, OpCode::FetchAdd, Rank{1}});
      // The dropped ack makes the NIC retransmit; without the result cache
      // the home re-executes the fetch-add, so rank 0 observes the *second*
      // execution (ticket 1) and ticket 0 is burned: no enqueue ever fills
      // slot 0. EXPECTs (not ASSERTs) so every path reaches the barrier.
      EXPECT_EQ(q.enqueue(42), Status::Ok);  // observed ticket 1; 0 burned
      EXPECT_EQ(q.enqueue(43), Status::Ok);  // ticket 2
      auto a = q.dequeue();  // ticket 0: nothing ever lands there
      EXPECT_EQ(a.status(), Status::Timeout);
    }
    env.bootstrap.barrier(env.rank);
  });
  EXPECT_EQ(cluster.fabric().nic(1).counters().dup_suppressed.load(), 0u);
}

TEST(DdsAtomicRetrans, RandomAckLossConservesQueueContents) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Service svc(ph, env.bootstrap);
    QueueConfig cfg;
    cfg.home = 1;
    cfg.capacity = 8;
    Queue q(svc, cfg);
    if (env.rank == 0) {
      // Sustained random ack loss on every op class (the PHOTON_WIRE_* knob
      // as an in-test config): every ticket and value must still move
      // exactly once.
      fabric::FaultInjector::WireRandomConfig wr;
      wr.only_peer = Rank{1};
      wr.ack_drop_p = 0.2;
      wr.seed = 0xDD5;
      env.nic.faults().set_wire_random(wr);
      for (std::uint64_t v = 0; v < 64; ++v) {
        ASSERT_EQ(q.enqueue(v), Status::Ok);
        auto got = q.dequeue();
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.value(), v);
      }
    }
    env.bootstrap.barrier(env.rank);
  });
  EXPECT_GE(cluster.fabric().nic(1).counters().dup_suppressed.load(), 1u);
}

}  // namespace
}  // namespace photon::dds
