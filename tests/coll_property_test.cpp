// Collective property sweeps: payload sizes across chunking boundaries,
// mixed types/ops, foreign-event preservation (application events and
// parcels sharing the Photon), and randomized back-to-back sequences.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "coll/communicator.hpp"
#include "parcels/parcel_engine.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace photon::coll {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

void with_comm(std::uint32_t nranks,
               const std::function<void(Env&, core::Photon&, Communicator&)>& body) {
  Cluster cluster(quiet_fabric(nranks));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Communicator comm(ph);
    body(env, ph, comm);
    env.bootstrap.barrier(env.rank);
  });
}

// Broadcast payload sizes straddling the chunking boundary (default eager
// threshold 8192): 1 chunk, exactly 1 chunk, several chunks, ragged tail.
class BcastSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BcastSizeSweep, PayloadIntactAtEverySize) {
  const std::size_t n = GetParam();
  with_comm(4, [&](Env& env, core::Photon&, Communicator& comm) {
    std::vector<std::byte> data(n);
    if (env.rank == 2) {
      auto p = pattern(n, static_cast<std::uint8_t>(n % 251));
      std::memcpy(data.data(), p.data(), n);
    }
    comm.broadcast(data, /*root=*/2);
    auto expect = pattern(n, static_cast<std::uint8_t>(n % 251));
    ASSERT_EQ(std::memcmp(data.data(), expect.data(), n), 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, BcastSizeSweep,
                         ::testing::Values(1, 8191, 8192, 8193, 16384, 30000,
                                           100000));

// Allgather with multi-chunk blocks.
TEST(CollProperty, AllgatherLargeBlocks) {
  with_comm(3, [](Env& env, core::Photon&, Communicator& comm) {
    constexpr std::size_t kBlock = 20'000;
    auto mine = pattern(kBlock, static_cast<std::uint8_t>(env.rank + 1));
    std::vector<std::byte> all(kBlock * 3);
    comm.allgather(mine, all);
    for (std::uint32_t r = 0; r < 3; ++r) {
      auto expect = pattern(kBlock, static_cast<std::uint8_t>(r + 1));
      ASSERT_EQ(std::memcmp(all.data() + kBlock * r, expect.data(), kBlock), 0)
          << "block " << r;
    }
  });
}

TEST(CollProperty, AlltoallLargeBlocks) {
  with_comm(3, [](Env& env, core::Photon&, Communicator& comm) {
    constexpr std::size_t kBlock = 12'000;
    std::vector<std::byte> send(kBlock * 3), recv(kBlock * 3);
    for (std::uint32_t d = 0; d < 3; ++d) {
      auto p = pattern(kBlock, static_cast<std::uint8_t>(env.rank * 16 + d));
      std::memcpy(send.data() + kBlock * d, p.data(), kBlock);
    }
    comm.alltoall(send, recv, kBlock);
    for (std::uint32_t s = 0; s < 3; ++s) {
      auto expect = pattern(kBlock, static_cast<std::uint8_t>(s * 16 + env.rank));
      ASSERT_EQ(std::memcmp(recv.data() + kBlock * s, expect.data(), kBlock), 0)
          << "from " << s;
    }
  });
}

// Typed allreduce across element types.
TEST(CollProperty, AllreduceTypedVariants) {
  with_comm(4, [](Env& env, core::Photon&, Communicator& comm) {
    {
      std::vector<std::int32_t> v(5, static_cast<std::int32_t>(env.rank) - 1);
      comm.allreduce(std::span(v), ReduceOp::kSum);
      for (auto x : v) ASSERT_EQ(x, (-1) + 0 + 1 + 2);
    }
    {
      std::vector<float> v(3, 0.5f * static_cast<float>(env.rank + 1));
      comm.allreduce(std::span(v), ReduceOp::kMax);
      for (auto x : v) ASSERT_FLOAT_EQ(x, 2.0f);
    }
    {
      std::vector<std::uint64_t> v(2, env.rank + 1);
      comm.allreduce(std::span(v), ReduceOp::kProd);
      for (auto x : v) ASSERT_EQ(x, 24u);
    }
  });
}

// Application events arriving during a collective stay in the probe FIFO:
// the collective takes only its own keyed ids, so wait_event alone finds it.
TEST(CollProperty, ForeignEventsSurviveCollectives) {
  with_comm(2, [](Env& env, core::Photon& ph, Communicator& comm) {
    constexpr std::uint64_t kWait = 2'000'000'000ULL;
    if (env.rank == 0) {
      // Send an application event, then join the barrier immediately so the
      // peer's barrier traffic interleaves with the app event.
      ASSERT_EQ(ph.signal(1, 0x1234, kWait), Status::Ok);
      comm.barrier();
    } else {
      comm.barrier();
      core::ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 0x1234u);
      EXPECT_EQ(ev.peer, 0u);
      EXPECT_EQ(ph.probe_event(), std::nullopt);
    }
    env.bootstrap.barrier(env.rank);
  });
}

// A ParcelEngine and a Communicator share one Photon. Rank 1 sends parcels
// and enters allreduce at once; rank 0, already waiting inside allreduce,
// must leave every parcel queued for its engine to dispatch afterwards.
TEST(CollParcels, SharedPhoton) {
  constexpr int kN = 16;
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    parcels::HandlerRegistry reg;
    parcels::PhotonTransport tr(ph);
    parcels::ParcelEngine eng(tr, reg);
    Communicator comm(ph);
    int dispatched = 0;
    const parcels::HandlerId h = reg.add([&](parcels::Context&) { ++dispatched; });
    if (env.rank == 1) {
      const std::uint64_t arg = 42;
      for (int i = 0; i < kN; ++i)
        eng.send(0, h, std::as_bytes(std::span(&arg, 1)));
    }
    EXPECT_EQ(comm.allreduce_one<std::uint64_t>(1, ReduceOp::kSum), 2u);
    if (env.rank == 0) {
      EXPECT_TRUE(eng.run_until([&] { return dispatched == kN; }, 2'000'000'000ULL));
      EXPECT_EQ(dispatched, kN);
    }
    env.bootstrap.barrier(env.rank);
  });
}

// Randomized sequences of collectives (same seed on all ranks) — ordering
// discipline is the only requirement; results must be exact.
TEST(CollProperty, RandomizedCollectiveSequences) {
  constexpr std::uint32_t kRanks = 4;
  with_comm(kRanks, [](Env& env, core::Photon&, Communicator& comm) {
    util::Xoshiro256 rng(77);  // same schedule everywhere
    for (int step = 0; step < 30; ++step) {
      switch (rng.below(4)) {
        case 0:
          comm.barrier();
          break;
        case 1: {
          const auto root = static_cast<fabric::Rank>(rng.below(kRanks));
          // Every rank must draw (keeps the shared schedule in lockstep).
          const std::uint64_t payload = rng.next();
          std::uint64_t v = env.rank == root ? payload : 0;
          comm.broadcast(std::as_writable_bytes(std::span(&v, 1)), root);
          ASSERT_EQ(v, payload);
          break;
        }
        case 2: {
          std::uint64_t v = env.rank + static_cast<std::uint64_t>(step);
          v = comm.allreduce_one(v, ReduceOp::kSum);
          std::uint64_t expect = 0;
          for (std::uint32_t r = 0; r < kRanks; ++r)
            expect += r + static_cast<std::uint64_t>(step);
          ASSERT_EQ(v, expect);
          break;
        }
        default: {
          std::uint64_t mine = env.rank * 31 + static_cast<std::uint64_t>(step);
          std::vector<std::uint64_t> all(kRanks);
          comm.allgather(std::as_bytes(std::span(&mine, 1)),
                         std::as_writable_bytes(std::span(all)));
          for (std::uint32_t r = 0; r < kRanks; ++r)
            ASSERT_EQ(all[r], r * 31 + static_cast<std::uint64_t>(step));
          break;
        }
      }
    }
  });
}

// Broadcast value agreement under a randomized root with non-pow2 ranks.
TEST(CollProperty, NonPowerOfTwoRootsAgree) {
  with_comm(5, [](Env& env, core::Photon&, Communicator& comm) {
    for (fabric::Rank root = 0; root < 5; ++root) {
      std::array<std::uint64_t, 3> v{};
      if (env.rank == root) v = {root * 10ull, root * 20ull, root * 30ull};
      comm.broadcast(std::as_writable_bytes(std::span(v)), root);
      ASSERT_EQ(v[0], root * 10ull);
      ASSERT_EQ(v[1], root * 20ull);
      ASSERT_EQ(v[2], root * 30ull);
      // And a reduce back to the same root.
      std::array<std::uint64_t, 1> sum{env.rank + 1ull};
      comm.reduce(std::span<std::uint64_t>(sum), ReduceOp::kSum, root);
      if (env.rank == root) {
        ASSERT_EQ(sum[0], 15u);
      }
    }
  });
}

}  // namespace
}  // namespace photon::coll
