// Epoch-fenced peer recovery: the reconnect/fence/resync protocol that
// un-latches Down.
//
//   * PeerHealthProperty — randomized transition-matrix property test for
//     the Up/Suspect/Down/Probing/Recovering lattice: monotone epoch and
//     generation counters, and no interleaving of observations resurrects
//     a peer without the explicit fence path.
//   * NicRecovery       — the tentpole contract at the fabric layer: a peer
//     driven Down by a scripted outage returns to kUp after the link
//     reopens and a fence runs; frames from the dead epoch are counted as
//     stale_epoch_drops and never delivered.
//   * CoreRecovery      — auto_recover policy at the Photon layer: posts
//     fail fast while the link is cut, then transparently fence and flow
//     once it reopens; payloads are byte-exact post-recovery; ops that
//     failed with PeerUnreachable stay failed (at-most-once).
//   * CollShrinkRejoin  — Communicator::shrink()/rejoin(): collectives over
//     the contracted group, then over the re-admitted full group.
//   * RecoverySoak      — scripted link flapping (down/up/down/up) during a
//     mixed parcel + one-sided put/get workload. Runs under PHOTON_CHECK
//     and TSan in CI: zero checker violations, clean quiesce on every
//     cycle, byte-exact payloads after each recovery.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "coll/communicator.hpp"
#include "core/photon.hpp"
#include "fabric/fabric.hpp"
#include "parcels/transport.hpp"
#include "resilience/peer_health.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"

namespace photon {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;
using resilience::PeerHealth;
using resilience::PeerState;
using runtime::Cluster;
using runtime::Env;

constexpr std::uint64_t kWait = 5'000'000'000ULL;  // 5 s wall

// ---- PeerHealth property test ------------------------------------------------

/// Reference model of one peer slot, mirroring peer_health.hpp exactly
/// (including the pre-CAS epoch publish in complete_recovery).
struct ModelSlot {
  PeerState state = PeerState::kUp;
  std::uint32_t fails = 0;
  std::uint32_t epoch = 0;
};

struct Model {
  explicit Model(std::uint32_t npeers, resilience::PeerHealthConfig cfg)
      : cfg_(cfg), slots_(npeers) {}

  void success(std::uint32_t p) {
    ModelSlot& s = slots_[p];
    if (s.state != PeerState::kUp && s.state != PeerState::kSuspect) return;
    s.fails = 0;
    s.state = PeerState::kUp;
  }
  void failure(std::uint32_t p) {
    ModelSlot& s = slots_[p];
    if (s.state == PeerState::kDown) return;
    if (s.state == PeerState::kProbing || s.state == PeerState::kRecovering) {
      down(s);
      return;
    }
    if (++s.fails >= cfg_.down_after)
      down(s);
    else if (s.fails >= cfg_.suspect_after)
      s.state = PeerState::kSuspect;
  }
  void force_down(std::uint32_t p) { down(slots_[p]); }
  bool begin_probe(std::uint32_t p) {
    if (slots_[p].state != PeerState::kDown) return false;
    slots_[p].state = PeerState::kProbing;
    return true;
  }
  bool mark_recovering(std::uint32_t p) {
    if (slots_[p].state != PeerState::kProbing) return false;
    slots_[p].state = PeerState::kRecovering;
    return true;
  }
  bool complete_recovery(std::uint32_t p, std::uint32_t e) {
    ModelSlot& s = slots_[p];
    if (e <= s.epoch) return false;
    s.epoch = e;  // published even when the state CAS below loses
    s.fails = 0;
    if (s.state != PeerState::kRecovering) return false;
    s.state = PeerState::kUp;
    ++up_gen;
    return true;
  }

  resilience::PeerHealthConfig cfg_;
  std::vector<ModelSlot> slots_;
  std::uint64_t down_gen = 0;
  std::uint64_t up_gen = 0;

 private:
  void down(ModelSlot& s) {
    if (s.state != PeerState::kDown) ++down_gen;
    s.state = PeerState::kDown;
  }
};

TEST(PeerHealthProperty, RandomizedSequencesMatchTransitionMatrix) {
  constexpr std::uint32_t kPeers = 4;
  for (std::uint32_t seed : {1u, 17u, 4242u}) {
    resilience::PeerHealthConfig cfg;  // suspect_after=1, down_after=3
    PeerHealth h(kPeers, cfg);
    Model m(kPeers, cfg);
    std::mt19937 rng(seed);
    std::uint64_t last_down_gen = 0, last_up_gen = 0;
    std::vector<std::uint32_t> last_epoch(kPeers, 0);

    for (int step = 0; step < 20000; ++step) {
      const std::uint32_t p = rng() % kPeers;
      const PeerState before = h.state(p);
      const int op = static_cast<int>(rng() % 6);
      bool fenced = false;
      switch (op) {
        case 0:
          h.record_success(p);
          m.success(p);
          break;
        case 1: {
          // record_failure returns the post-transition state.
          const PeerState got = h.record_failure(p);
          m.failure(p);
          EXPECT_EQ(got, m.slots_[p].state) << "step " << step;
          break;
        }
        case 2:
          h.force_down(p);
          m.force_down(p);
          break;
        case 3:
          EXPECT_EQ(h.begin_probe(p), m.begin_probe(p));
          break;
        case 4:
          EXPECT_EQ(h.mark_recovering(p), m.mark_recovering(p));
          break;
        case 5: {
          const std::uint32_t e = h.epoch(p) + 1;
          const bool got = h.complete_recovery(p, e);
          EXPECT_EQ(got, m.complete_recovery(p, e));
          fenced = got;
          // A stale epoch can never win.
          EXPECT_FALSE(h.complete_recovery(p, e));
          m.complete_recovery(p, e);
          break;
        }
      }
      const PeerState after = h.state(p);
      EXPECT_EQ(after, m.slots_[p].state) << "step " << step << " op " << op;
      EXPECT_EQ(h.epoch(p), m.slots_[p].epoch);
      EXPECT_EQ(h.down_generation(), m.down_gen);
      EXPECT_EQ(h.up_generation(), m.up_gen);

      // Monotone counters.
      EXPECT_GE(h.down_generation(), last_down_gen);
      EXPECT_GE(h.up_generation(), last_up_gen);
      EXPECT_GE(h.epoch(p), last_epoch[p]);
      last_down_gen = h.down_generation();
      last_up_gen = h.up_generation();
      last_epoch[p] = h.epoch(p);

      // No resurrection without a fence: a peer observed outside Up/Suspect
      // returns to Up only through a successful complete_recovery, and that
      // fence always bumps the epoch.
      if ((before == PeerState::kDown || before == PeerState::kProbing ||
           before == PeerState::kRecovering) &&
          after == PeerState::kUp) {
        EXPECT_TRUE(fenced) << "op " << op << " resurrected without a fence";
        EXPECT_GT(h.epoch(p), 0u);
      }
      // usable() is exactly {Up, Suspect}.
      EXPECT_EQ(h.usable(p),
                after == PeerState::kUp || after == PeerState::kSuspect);
    }
  }
}

// ---- NIC-level fence: Down -> reopen -> kUp, stale frames dropped -----------

TEST(NicRecovery, FenceReturnsPeerToUpAndDropsPreFenceFrames) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    env.bootstrap.barrier(env.rank);

    if (env.rank == 1) {
      // Two pre-outage messages land in rank 0's recv CQ (delivery is
      // synchronous) but are not consumed yet.
      ASSERT_EQ(ph.send_with_completion(0, pattern(64, 1), std::nullopt, 100,
                                        kWait),
                Status::Ok);
      ASSERT_EQ(ph.send_with_completion(0, pattern(64, 2), std::nullopt, 101,
                                        kWait),
                Status::Ok);
      env.bootstrap.barrier(env.rank);  // frames parked at rank 0

      // Scripted outage toward rank 0, then reopen and fence.
      env.cluster.fabric().kill(0);
      ASSERT_TRUE(env.nic.peer_down(0));
      EXPECT_EQ(env.nic.health().state(0), PeerState::kDown);
      // Link still cut: the probe aborts back to Down without fencing.
      EXPECT_FALSE(env.nic.try_recover(0));
      EXPECT_EQ(env.nic.health().state(0), PeerState::kDown);

      env.cluster.fabric().revive(0);
      ASSERT_TRUE(env.nic.try_recover(0));
      EXPECT_EQ(env.nic.health().state(0), PeerState::kUp);
      EXPECT_FALSE(env.nic.peer_down(0));
      EXPECT_EQ(env.nic.tx_epoch(0), 1u);
      EXPECT_GE(env.nic.counters().recoveries.load(), 1u);

      // Post-fence traffic flows (the Photon layer resyncs on the epoch
      // edge transparently).
      ASSERT_EQ(ph.send_with_completion(0, pattern(64, 3), std::nullopt, 200,
                                        kWait),
                Status::Ok);
      env.bootstrap.barrier(env.rank);  // rank 0 may now consume
      env.bootstrap.barrier(env.rank);  // rank 0 done verifying
    } else {
      env.bootstrap.barrier(env.rank);  // pre-outage frames parked here
      env.bootstrap.barrier(env.rank);  // rank 1 fenced + sent fresh frame

      // Only the post-fence message may surface; the dead epoch's frames
      // are counted and dropped, never delivered.
      core::ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 200u);
      const auto expect = pattern(64, 3);
      ASSERT_EQ(ev.payload.size(), expect.size());
      EXPECT_EQ(std::memcmp(ev.payload.data(), expect.data(), expect.size()),
                0);
      EXPECT_FALSE(ph.probe_event().has_value());
      EXPECT_GE(env.nic.counters().stale_epoch_drops.load(), 2u);
      env.bootstrap.barrier(env.rank);
    }
  });
}

// ---- Photon auto_recover policy ---------------------------------------------

TEST(CoreRecovery, AutoRecoverFailsFastWhileCutThenFencesTransparently) {
  fabric::FabricConfig fc = quiet_fabric(2);
  fc.nic.auto_recover = true;
  Cluster cluster(fc);
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    std::vector<std::byte> buf(4096, std::byte{0});
    auto desc = ph.register_buffer(buf.data(), buf.size());
    ASSERT_TRUE(desc.ok());
    auto all = ph.exchange_descriptors(desc.value());
    env.bootstrap.barrier(env.rank);

    if (env.rank == 0) {
      const auto payload = pattern(512, 9);
      std::memcpy(buf.data(), payload.data(), payload.size());

      env.cluster.fabric().kill(1);
      // Link still cut: the auto-probe aborts within its stall budget and
      // the post fails fast — it must NOT hang or silently succeed.
      EXPECT_EQ(ph.try_put_with_completion(1, core::local_slice(desc.value(), 0, 512),
                                           core::slice(all[1], 0, 512), 7,
                                           std::nullopt),
                Status::PeerUnreachable);
      EXPECT_TRUE(ph.peer_down(1));

      // Reopen: the next post runs the fence itself and succeeds.
      env.cluster.fabric().revive(1);
      ASSERT_EQ(ph.put_with_completion(1, core::local_slice(desc.value(), 0, 512),
                                       core::slice(all[1], 0, 512), 8,
                                       std::nullopt, kWait),
                Status::Ok);
      core::LocalComplete lc;
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, 8u);
      EXPECT_FALSE(ph.peer_down(1));

      // Read the bytes back one-sided: byte-exact post-recovery.
      std::vector<std::byte> scratch(512);
      auto sdesc = ph.register_buffer(scratch.data(), scratch.size());
      ASSERT_TRUE(sdesc.ok());
      ASSERT_EQ(ph.get_with_completion(1, core::local_mut_slice(sdesc.value(), 0, 512),
                                       core::slice(all[1], 0, 512), 9,
                                       std::nullopt, kWait),
                Status::Ok);
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, 9u);
      EXPECT_EQ(std::memcmp(scratch.data(), payload.data(), 512), 0);
      EXPECT_GE(env.nic.counters().recoveries.load(), 1u);
      EXPECT_GE(env.nic.counters().recovery_probes.load(), 2u);
      ph.unregister_buffer(sdesc.value());
    }
    env.bootstrap.barrier(env.rank);
    EXPECT_EQ(ph.quiesce(kWait), Status::Ok);
    env.bootstrap.barrier(env.rank);
    ph.unregister_buffer(desc.value());
  });
}

// ---- Communicator shrink/rejoin ---------------------------------------------

TEST(CollShrinkRejoin, CollectivesSurviveShrinkThenRejoin) {
  Cluster cluster(quiet_fabric(3));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    coll::Communicator comm(ph);
    env.bootstrap.barrier(env.rank);

    // Warm-up collective over the full group.
    std::vector<std::uint64_t> v{env.rank + 1ull};
    comm.allreduce(std::span(v), coll::ReduceOp::kSum);
    EXPECT_EQ(v[0], 6u);  // 1+2+3

    if (env.rank == 0) env.cluster.fabric().kill(2);
    env.bootstrap.barrier(env.rank);  // everyone observes the kill

    if (env.rank != 2) {
      // Survivors contract the group and keep computing.
      EXPECT_EQ(comm.shrink(), 1u);
      EXPECT_EQ(comm.group().size(), 2u);
      std::vector<std::uint64_t> w{env.rank + 10ull};
      comm.allreduce(std::span(w), coll::ReduceOp::kSum);
      EXPECT_EQ(w[0], 21u);  // 10+11
      comm.barrier();
    } else {
      // The victim's own view never shrank (the outage cut the others'
      // links toward it, not its links toward them).
      EXPECT_EQ(comm.group().size(), 3u);
    }
    env.bootstrap.barrier(env.rank);

    if (env.rank == 0) env.cluster.fabric().revive(2);
    env.bootstrap.barrier(env.rank);

    // Everyone (survivors and the recovering rank) runs the rejoin.
    EXPECT_EQ(comm.rejoin(2), Status::Ok);
    EXPECT_EQ(comm.group().size(), 3u);

    // Full-group collectives flow again, byte-exact.
    std::vector<std::uint64_t> z{env.rank + 100ull};
    comm.allreduce(std::span(z), coll::ReduceOp::kSum);
    EXPECT_EQ(z[0], 303u);  // 100+101+102
    comm.barrier();

    env.bootstrap.barrier(env.rank);
    EXPECT_EQ(ph.quiesce(kWait), Status::Ok);
    env.bootstrap.barrier(env.rank);
  });
}

// ---- Soak: link flapping under a mixed workload -----------------------------

TEST(RecoverySoak, LinkFlapDuringMixedWorkloadStaysClean) {
  fabric::FabricConfig fc = quiet_fabric(2);
  fc.nic.auto_recover = true;
  Cluster cluster(fc);
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    parcels::PhotonTransport tr(ph);
    const fabric::Rank peer = env.rank ^ 1u;

    // One-sided landing zone on each rank; rank 0 is the only initiator of
    // raw put/get (local ids only — nothing enters the peer's parcel event
    // stream, and the peer never touches the RDMA'd bytes).
    std::vector<std::byte> buf(8192, std::byte{0});
    auto desc = ph.register_buffer(buf.data(), buf.size());
    ASSERT_TRUE(desc.ok());
    auto all = ph.exchange_descriptors(desc.value());
    std::vector<std::byte> scratch(1024);
    auto sdesc = ph.register_buffer(scratch.data(), scratch.size());
    ASSERT_TRUE(sdesc.ok());
    env.bootstrap.barrier(env.rank);

    constexpr int kParcels = 8;
    // Both directions exchange kParcels small parcels and verify payloads
    // byte-exact (per-peer eager order is preserved).
    auto exchange = [&](int round) {
      for (int i = 0; i < kParcels; ++i) {
        const auto body = pattern(96, round * 64 + i + env.rank * 31);
        ASSERT_EQ(tr.send(peer, 1, body), Status::Ok);
      }
      for (int got = 0; got < kParcels; ++got) {
        const auto p = ph.wait_for(util::kNoDeadline, [&] {
          auto parcel = tr.poll();
          if (!parcel) tr.progress();
          return parcel;
        });
        EXPECT_EQ(p->handler, 1u);
        EXPECT_EQ(p->src, peer);
        const auto expect = pattern(96, round * 64 + got + peer * 31);
        ASSERT_EQ(p->args.size(), expect.size());
        EXPECT_EQ(std::memcmp(p->args.data(), expect.data(), expect.size()),
                  0);
      }
    };
    // Rank 0 pushes a fresh pattern into the peer's buffer and reads it
    // back one-sided; byte-exact round trip proves the post-recovery epoch
    // carries data correctly.
    auto rdma_round = [&](int round) {
      if (env.rank != 0) return;
      const auto payload = pattern(512, 200 + round);
      std::memcpy(buf.data() + 4096, payload.data(), payload.size());
      const std::uint64_t put_id = 0x9000u + static_cast<std::uint64_t>(round);
      ASSERT_EQ(ph.put_with_completion(
                    1, core::local_slice(desc.value(), 4096, 512),
                    core::slice(all[1], 4096, 512), put_id, std::nullopt,
                    kWait),
                Status::Ok);
      core::LocalComplete lc;
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, put_id);
      ASSERT_EQ(ph.get_with_completion(
                    1, core::local_mut_slice(sdesc.value(), 0, 512),
                    core::slice(all[1], 4096, 512), put_id + 1, std::nullopt,
                    kWait),
                Status::Ok);
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, put_id + 1);
      EXPECT_EQ(std::memcmp(scratch.data(), payload.data(), 512), 0);
    };

    // Soak depth: the ci.sh soak leg raises PHOTON_SOAK_CYCLES to grind the
    // flap/fence/resync path harder; the default keeps local runs fast.
    const char* soak_env = std::getenv("PHOTON_SOAK_CYCLES");
    const int env_cycles = soak_env != nullptr ? std::atoi(soak_env) : 0;
    const int kCycles = env_cycles > 0 ? env_cycles : 2;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      // Healthy phase: mixed traffic both directions. The first round after
      // a revive exercises the transparent auto-fence.
      exchange(cycle * 2);
      rdma_round(cycle * 2);
      env.bootstrap.barrier(env.rank);

      // Outage: cut the link toward rank 1. Only rank 0's NIC is affected;
      // rank 1 sits at the barrier. Posts fail fast — the auto-probe aborts
      // inside its stall budget while the window is closed.
      if (env.rank == 0) {
        env.cluster.fabric().kill(1);
        EXPECT_EQ(tr.send(1, 1, pattern(96, 7)), Status::PeerUnreachable);
        EXPECT_EQ(ph.try_put_with_completion(
                      1, core::local_slice(desc.value(), 4096, 256),
                      core::slice(all[1], 4096, 256), 0xdead, std::nullopt),
                  Status::PeerUnreachable);
        EXPECT_TRUE(ph.peer_down(1));
        env.cluster.fabric().revive(1);
      }
      env.bootstrap.barrier(env.rank);

      // Post-revive phase: traffic flows again through the new epoch.
      exchange(cycle * 2 + 1);
      rdma_round(cycle * 2 + 1);
      env.bootstrap.barrier(env.rank);
    }

    // Finalize: everything drains, nothing leaked, nothing violated.
    EXPECT_EQ(tr.quiesce(kWait), Status::Ok);
    EXPECT_EQ(ph.quiesce(kWait), Status::Ok);
    env.bootstrap.barrier(env.rank);
    EXPECT_EQ(env.nic.checker().violation_count(), 0u);
    if (env.rank == 0) {
      EXPECT_GE(env.nic.counters().recoveries.load(),
                static_cast<std::uint64_t>(kCycles));
    }
    env.bootstrap.barrier(env.rank);
    ph.unregister_buffer(sdesc.value());
    ph.unregister_buffer(desc.value());
  });
}

}  // namespace
}  // namespace photon
