// Negative tests for the PhotonCheck shadow-state validator: each violation
// class must fire exactly once, attributed to the op that broke the rule.
// Built only when PHOTON_CHECK is ON (the hooks are compiled out otherwise).
//
// Every test flips the fabric's checker into collect mode, provokes one
// violation, drains it with take_violations(), and asserts the record —
// including that legitimate traffic around the misuse stays silent.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/checker.hpp"
#include "core/photon.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"
#include "util/timing.hpp"

namespace photon::core {
namespace {

using check::CheckOpKind;
using check::Mode;
using check::ViolationKind;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

constexpr std::uint64_t kWait = 2'000'000'000ULL;

/// Arms collect mode; returns false (-> skip) if the env disabled the checker.
bool arm_collect(check::Checker& ck) {
  if (!ck.enabled()) return false;
  ck.set_mode(Mode::kCollect);
  return true;
}

// ---- class 1: use-after-put --------------------------------------------------

TEST(PhotonCheckViolations, UseAfterPutFiresOnceOnPinnedSourceWrite) {
  Cluster cluster(quiet_fabric(1));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);

    // Self-put with disjoint src [0,128) and landing [1024,1152).
    ASSERT_EQ(ph.try_put_with_completion(0, local_slice(desc, 0, 128),
                                         slice(peers[0], 1024, 128), 7, 9),
              Status::Ok);
    // Touching the pinned source before its local id pops is class 1.
    ck.note_user_write(ph.rank(), buf.data(), 64);

    auto v = ck.take_violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, ViolationKind::kUseAfterPut);
    EXPECT_EQ(v[0].op.kind, CheckOpKind::kUserAccess);
    ASSERT_TRUE(v[0].prior.has_value());
    EXPECT_EQ(v[0].prior->kind, CheckOpKind::kPut);
    EXPECT_TRUE(v[0].prior->has_local_id);
    EXPECT_EQ(v[0].prior->local_id, 7u);

    // Drain both completions; touching the source afterwards is legal.
    LocalComplete lc;
    ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
    ProbeEvent ev;
    ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
    ck.note_user_write(ph.rank(), buf.data(), 64);
    EXPECT_TRUE(ck.take_violations().empty());
  });
}

// ---- class 2: read-of-unlanded -----------------------------------------------

TEST(PhotonCheckViolations, ReadOfUnlandedFiresOnceOnEarlyLandingRead) {
  Cluster cluster(quiet_fabric(1));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);

    ASSERT_EQ(ph.try_put_with_completion(0, local_slice(desc, 0, 128),
                                         slice(peers[0], 1024, 128), 7, 9),
              Status::Ok);
    // Reading the landing range before the remote id pops is class 2.
    ck.note_user_read(ph.rank(), buf.data() + 1024, 64);

    auto v = ck.take_violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, ViolationKind::kReadOfUnlanded);
    EXPECT_EQ(v[0].op.kind, CheckOpKind::kUserAccess);
    ASSERT_TRUE(v[0].prior.has_value());
    EXPECT_EQ(v[0].prior->kind, CheckOpKind::kPut);
    EXPECT_TRUE(v[0].prior->has_remote_id);
    EXPECT_EQ(v[0].prior->remote_id, 9u);

    LocalComplete lc;
    ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
    ProbeEvent ev;
    ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
    ck.note_user_read(ph.rank(), buf.data() + 1024, 64);
    EXPECT_TRUE(ck.take_violations().empty());
  });
}

// ---- class 3: rma race -------------------------------------------------------

TEST(PhotonCheckViolations, RmaRaceFiresOnceOnOverlappingPutsFromTwoRanks) {
  Cluster cluster(quiet_fabric(3));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);

    // rank1 lands [0,128) at rank2; before rank2 pops, rank0 puts the same
    // range. Barriers pin the order so the overlap is deterministic.
    if (env.rank == 1) {
      ASSERT_EQ(ph.put_with_completion(2, local_slice(desc, 0, 128),
                                       slice(peers[2], 0, 128), std::nullopt,
                                       1, kWait),
                Status::Ok);
    }
    env.bootstrap.barrier(env.rank);
    if (env.rank == 0) {
      ASSERT_EQ(ph.put_with_completion(2, local_slice(desc, 0, 128),
                                       slice(peers[2], 0, 128), std::nullopt,
                                       2, kWait),
                Status::Ok);
    }
    env.bootstrap.barrier(env.rank);
    if (env.rank == 2) {
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
    }
    env.bootstrap.barrier(env.rank);

    if (env.rank == 0) {
      auto v = ck.take_violations();
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(v[0].kind, ViolationKind::kRmaRace);
      EXPECT_EQ(v[0].op.kind, CheckOpKind::kPut);
      EXPECT_EQ(v[0].op.initiator, 0u);
      EXPECT_EQ(v[0].op.target, 2u);
      ASSERT_TRUE(v[0].prior.has_value());
      EXPECT_EQ(v[0].prior->kind, CheckOpKind::kPut);
      EXPECT_EQ(v[0].prior->initiator, 1u);
    }
    env.bootstrap.barrier(env.rank);
  });
}

// ---- class 4: bad slice ------------------------------------------------------

TEST(PhotonCheckViolations, BadSliceFiresOnceOnOutOfBoundsLocalSlice) {
  Cluster cluster(quiet_fabric(1));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> src(256), dst(1024);
    auto src_desc = ph.register_buffer(src.data(), src.size()).value();
    auto dst_desc = ph.register_buffer(dst.data(), dst.size()).value();
    auto peers = ph.exchange_descriptors(dst_desc);

    // Local slice runs past its 256-byte registration (the remote window is
    // big enough, so only the NIC's local bounds check can reject): the
    // synchronous rejection itself is the class-4 report.
    LocalSlice oob{src.data(), 512, src_desc.lkey};
    EXPECT_NE(ph.try_put_with_completion(0, oob, slice(peers[0], 0, 512),
                                         std::nullopt, 1),
              Status::Ok);

    auto v = ck.take_violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, ViolationKind::kBadSlice);
    EXPECT_EQ(v[0].op.kind, CheckOpKind::kPut);
    EXPECT_EQ(v[0].op.len, 512u);
  });
}

TEST(PhotonCheckViolations, BadSliceFiresOnceOnForgedRemoteKey) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(256);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);
    if (env.rank == 0) {
      // Forged rkey: the post succeeds (remote checks are async) but the
      // checker flags the unresolvable remote slice at commit.
      RemoteSlice bad = slice(peers[1], 0, 64);
      bad.rkey = 0xdeadbeef;
      ASSERT_EQ(ph.put_with_completion(1, local_slice(desc, 0, 64), bad,
                                       std::nullopt, std::nullopt, kWait),
                Status::Ok);
      auto v = ck.take_violations();
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(v[0].kind, ViolationKind::kBadSlice);
      EXPECT_EQ(v[0].op.kind, CheckOpKind::kPut);
      EXPECT_EQ(v[0].op.target, 1u);
      // The async error completion still surfaces to the application.
      util::Deadline dl(kWait);
      std::optional<Status> err;
      while (!err && !dl.expired()) err = ph.probe_error();
      ASSERT_TRUE(err.has_value());
    }
    env.bootstrap.barrier(env.rank);
  });
}

// ---- class 5: completion-id hygiene ------------------------------------------

TEST(PhotonCheckViolations, IdHygieneFiresOnceOnDuplicateOutstandingLocalId) {
  Cluster cluster(quiet_fabric(1));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);

    // Two posts share local id 5 with no pop in between (disjoint ranges, so
    // only the id reuse can trip a report).
    ASSERT_EQ(ph.try_put_with_completion(0, local_slice(desc, 0, 64),
                                         slice(peers[0], 1024, 64), 5, 11),
              Status::Ok);
    ASSERT_EQ(ph.try_put_with_completion(0, local_slice(desc, 128, 64),
                                         slice(peers[0], 2048, 64), 5, 12),
              Status::Ok);

    auto v = ck.take_violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, ViolationKind::kIdHygiene);
    EXPECT_EQ(v[0].op.kind, CheckOpKind::kPut);
    EXPECT_TRUE(v[0].op.has_local_id);
    EXPECT_EQ(v[0].op.local_id, 5u);
    ASSERT_TRUE(v[0].prior.has_value());
    EXPECT_EQ(v[0].prior->local_id, 5u);
  });
}

TEST(PhotonCheckViolations, IdHygieneFiresOnceOnDoubleUnregister) {
  Cluster cluster(quiet_fabric(1));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(256);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    ASSERT_EQ(ph.unregister_buffer(desc), Status::Ok);
    EXPECT_EQ(ph.unregister_buffer(desc), Status::InvalidKey);

    auto v = ck.take_violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, ViolationKind::kIdHygiene);
    EXPECT_EQ(v[0].op.kind, CheckOpKind::kRegister);
  });
}

TEST(PhotonCheckViolations, IdHygieneFiresOnceOnOrphanRemoteId) {
  Cluster cluster(quiet_fabric(1));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    // A doorbell with no recorded post can only come from protocol-layer
    // corruption, so drive the completion-delivery hook directly.
    ck.on_remote_id_popped(/*target=*/0, /*initiator=*/0, /*id=*/77);
    auto v = ck.take_violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, ViolationKind::kIdHygiene);
    EXPECT_TRUE(v[0].op.has_remote_id);
    EXPECT_EQ(v[0].op.remote_id, 77u);
  });
}

TEST(PhotonCheckViolations, IdHygieneFiresOnceOnOpLeakedPastFinalize) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    {
      Photon ph(env.nic, env.bootstrap, Config{});
      if (env.rank == 0) {
        // The remote id is deposited at rank1, which never probes it: the
        // signal op is still outstanding when rank0 finalizes.
        ASSERT_EQ(ph.signal(1, 9, kWait), Status::Ok);
      }
      env.bootstrap.barrier(env.rank);
    }
    env.bootstrap.barrier(env.rank);
    if (env.rank == 0) {
      auto v = ck.take_violations();
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(v[0].kind, ViolationKind::kIdHygiene);
      EXPECT_EQ(v[0].op.kind, CheckOpKind::kSignal);
      EXPECT_TRUE(v[0].op.has_remote_id);
      EXPECT_EQ(v[0].op.remote_id, 9u);
    }
    env.bootstrap.barrier(env.rank);
  });
}

TEST(PhotonCheckViolations, PopOfDepositLandedBeforeDeathVerdictStaysSilent) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    if (env.rank == 1) {
      std::vector<std::byte> payload(16);
      ASSERT_EQ(ph.send_with_completion(0, payload, std::nullopt, 5, kWait),
                Status::Ok);
      // Rank 1 declares rank 0 dead while the deposit sits in its ring.
      env.cluster.fabric().kill(0);
      ph.progress();
      ASSERT_TRUE(ph.peer_down(0));
    }
    env.bootstrap.barrier(env.rank);
    if (env.rank == 0) {
      // A killed rank's thread keeps running and may still pop it.
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 5u);
    }
    env.bootstrap.barrier(env.rank);
    EXPECT_EQ(ck.violation_count(), 0u);
    EXPECT_TRUE(ck.take_violations().empty());
    env.bootstrap.barrier(env.rank);
  });
}

// ---- zero false positives on a legal mixed workload --------------------------

TEST(PhotonCheckViolations, CleanProtocolTrafficStaysSilent) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);
    const auto peer = static_cast<fabric::Rank>(1 - env.rank);

    // Sources live in [0,128) and landings in [2048,2176): the ranges never
    // overlap, so both directions can be in flight at once.
    ASSERT_EQ(ph.put_with_completion(peer, local_slice(desc, 0, 128),
                                     slice(peers[peer], 2048, 128),
                                     std::nullopt, 1, kWait),
              Status::Ok);
    std::vector<std::byte> payload(64);
    ASSERT_EQ(ph.send_with_completion(peer, payload, std::nullopt, 2, kWait),
              Status::Ok);
    for (int got = 0; got < 2;) {
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      ++got;
    }
    ASSERT_EQ(ph.flush(peer, kWait), Status::Ok);
    env.bootstrap.barrier(env.rank);
    EXPECT_EQ(ck.violation_count(), 0u);
    EXPECT_TRUE(ck.take_violations().empty());
    env.bootstrap.barrier(env.rank);
  });
}

TEST(PhotonCheckViolations, TwoWordReadsRacingCellWritesStaySilent) {
  Cluster cluster(quiet_fabric(2));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    if (!arm_collect(ck)) GTEST_SKIP() << "checker disabled via PHOTON_CHECK";
    ck.set_race_mode(true);
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::uint64_t> cells(2, 0);  // rank 0 hosts {tag, value}
    auto desc = ph.register_buffer(cells.data(), 16).value();
    auto peers = ph.exchange_descriptors(desc);

    // Rank 1 writes the value with put_u64 and advances the tag with
    // compare_swap while both ranks read the pair with get_u64x2 (rank 0
    // over loopback): concurrent cell ops on the same bytes are legal.
    for (std::uint64_t i = 1; i <= 200; ++i) {
      if (env.rank == 1) {
        ASSERT_EQ(ph.put_u64(0, slice(peers[0], 8, 8), i, kWait), Status::Ok);
        auto prior = ph.compare_swap(0, slice(peers[0], 0, 8), i - 1, i, kWait);
        ASSERT_TRUE(prior.ok());
        EXPECT_EQ(prior.value(), i - 1);
      }
      auto pair = ph.get_u64x2(0, slice(peers[0], 0, 16), kWait);
      ASSERT_TRUE(pair.ok()) << status_name(pair.status());
      EXPECT_LE(pair.value()[0], pair.value()[1]);
    }
    env.bootstrap.barrier(env.rank);
    EXPECT_EQ(ck.violation_count(), 0u);
    EXPECT_TRUE(ck.take_violations().empty());
    env.bootstrap.barrier(env.rank);
  });
}

}  // namespace
}  // namespace photon::core
