// Recovery racing in-flight operations: the gap the chaos campaign probes
// hardest, pinned down as deterministic regression tests.
//
//   * ShrinkRejoinDuringInflightCollective — a rank dies while the rest of
//     the group is parked inside an allreduce. Survivors get an attributed
//     abort, shrink(), redo the collective over the contracted group, then
//     revive + rejoin and run a full-group collective — all without a hang
//     and without a checker violation (runs under PHOTON_CHECK in CI).
//   * KillMidRendezvousReceiverSide — a rank dies after advertising a
//     rendezvous-sized parcel but before the receiver pulls it. The
//     receiver's advert/os_get path must resolve PeerUnreachable, drop the
//     parcel gracefully (poll -> nullopt), and quiesce clean.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "coll/communicator.hpp"
#include "core/photon.hpp"
#include "parcels/transport.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"

namespace photon {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

constexpr std::uint64_t kWait = 5'000'000'000ULL;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(RecoveryRace, ShrinkRejoinDuringInflightCollective) {
  constexpr fabric::Rank kVictim = 2;
  Cluster cluster(quiet_fabric(4));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    coll::Communicator comm(ph);
    env.bootstrap.barrier(env.rank);

    // Round 1: full-group sanity.
    {
      std::vector<std::uint64_t> v{env.rank + 1ull};
      comm.allreduce(std::span(v), coll::ReduceOp::kSum);
      EXPECT_EQ(v[0], 10u);  // 1+2+3+4
    }
    env.bootstrap.barrier(env.rank);

    // Round 2: the victim dies while the survivors are already parked
    // inside the collective await.
    if (env.rank == kVictim) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      env.cluster.fabric().kill(kVictim);
    } else {
      std::vector<std::uint64_t> v{env.rank + 1ull};
      const auto t0 = std::chrono::steady_clock::now();
      bool aborted = false;
      std::string what;
      try {
        comm.allreduce(std::span(v), coll::ReduceOp::kSum);
      } catch (const std::runtime_error& e) {
        aborted = true;
        what = e.what();
      }
      EXPECT_TRUE(aborted) << "collective completed despite dead member";
      EXPECT_LT(seconds_since(t0), 5.0);
      EXPECT_NE(what.find("nreachable"), std::string::npos) << what;

      // Survivors contract the group and redo the interrupted collective.
      EXPECT_EQ(comm.shrink(), 1u);
      v = {env.rank + 1ull};
      comm.allreduce(std::span(v), coll::ReduceOp::kSum);
      EXPECT_EQ(v[0], 7u);  // 1+2+4: the victim's contribution is gone
      EXPECT_EQ(comm.group().size(), 3u);
    }
    env.bootstrap.barrier(env.rank);

    // Round 3: revive + rejoin races straight back into a collective.
    if (env.rank == 0) env.cluster.fabric().revive(kVictim);
    env.bootstrap.barrier(env.rank);
    Status rj = Status::Timeout;
    for (int attempt = 0; attempt < 3 && rj != Status::Ok; ++attempt)
      rj = comm.rejoin(kVictim);
    ASSERT_EQ(rj, Status::Ok);
    {
      std::vector<std::uint64_t> v{env.rank + 10ull};
      comm.allreduce(std::span(v), coll::ReduceOp::kSum);
      EXPECT_EQ(v[0], 46u);  // 10+11+12+13 over the re-admitted group
    }
    env.bootstrap.barrier(env.rank);
    EXPECT_EQ(ph.quiesce(kWait), Status::Ok);
    EXPECT_EQ(env.nic.checker().violation_count(), 0u);
  });
}

TEST(RecoveryRace, KillMidRendezvousReceiverSide) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    parcels::PhotonTransport tr(ph);
    if (env.rank == 1) {
      // Advertise a rendezvous-sized parcel: the control frame lands in
      // rank 0's event queue, the body stays pinned awaiting the FIN.
      const auto big = pattern(12'000, 3);
      ASSERT_EQ(tr.send(0, /*handler=*/5, big), Status::Ok);
      env.bootstrap.barrier(env.rank);
      // Full partition mid-rendezvous: from rank 0's universe rank 1 is
      // dead, and from rank 1's universe rank 0 is dead. Both sides must
      // now reclaim their half of the stranded rendezvous.
      env.cluster.fabric().kill(1);
      env.cluster.fabric().kill(0);
      env.bootstrap.barrier(env.rank);
      // Sender side: the pinned advert resolves PeerUnreachable via the
      // health sweep instead of leaking past quiesce/finalize.
      EXPECT_EQ(tr.quiesce(kWait), Status::Ok);
      EXPECT_EQ(ph.quiesce(kWait), Status::Ok);
      return;
    }
    env.bootstrap.barrier(env.rank);
    env.bootstrap.barrier(env.rank);  // partition is latched past this point

    // Receiver side: processing the advert issues an os_get against the
    // dead peer, which must resolve PeerUnreachable quickly and surface as
    // "no parcel" — never a hang, never a crash.
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 50; ++i) {
      EXPECT_FALSE(tr.poll().has_value());
      tr.progress();
    }
    EXPECT_LT(seconds_since(t0), 5.0);
    EXPECT_EQ(tr.quiesce(kWait), Status::Ok);
    EXPECT_EQ(ph.quiesce(kWait), Status::Ok);
    EXPECT_EQ(env.nic.checker().violation_count(), 0u);
  });
}

}  // namespace
}  // namespace photon
