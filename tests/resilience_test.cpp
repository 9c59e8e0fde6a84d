// Reliable-delivery layer: CRC32C, retry policy, peer health, fault
// targeting, and the NIC retransmission machinery under scripted wire
// faults (drop / ack-drop / corruption / delay / link flaps / peer death).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fabric/fabric.hpp"
#include "resilience/crc32c.hpp"
#include "resilience/peer_health.hpp"
#include "resilience/retry.hpp"
#include "test_helpers.hpp"

namespace photon::fabric {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;

// ---- CRC32C -----------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 check value for the Castagnoli polynomial.
  const char digits[] = "123456789";
  EXPECT_EQ(resilience::crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(resilience::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, SeedChainingMatchesOneShot) {
  auto buf = pattern(1000, 3);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{499},
                            std::size_t{999}, std::size_t{1000}}) {
    const std::uint32_t head = resilience::crc32c(buf.data(), split);
    const std::uint32_t whole =
        resilience::crc32c(buf.data() + split, buf.size() - split, head);
    EXPECT_EQ(whole, resilience::crc32c(buf.data(), buf.size()))
        << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  auto buf = pattern(64, 9);
  const std::uint32_t good = resilience::crc32c(buf.data(), buf.size());
  for (std::size_t bit = 0; bit < buf.size() * 8; bit += 37) {
    auto damaged = buf;
    damaged[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
    EXPECT_NE(resilience::crc32c(damaged.data(), damaged.size()), good)
        << "bit " << bit;
  }
}

// ---- RetryPolicy ------------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicAndBounded) {
  resilience::RetryPolicy rp;
  for (std::uint32_t attempt = 1; attempt <= 12; ++attempt) {
    const std::uint64_t a = rp.backoff_ns(attempt, /*key=*/42);
    EXPECT_EQ(a, rp.backoff_ns(attempt, 42)) << "attempt " << attempt;
    // Base doubles up to the cap; jitter adds at most a quarter on top.
    std::uint64_t base = rp.rto_ns;
    for (std::uint32_t i = 1; i < attempt && base < rp.max_backoff_ns; ++i)
      base <<= 1;
    if (base > rp.max_backoff_ns) base = rp.max_backoff_ns;
    EXPECT_GE(a, base);
    EXPECT_LE(a, base + base / 4 + 1);
  }
}

TEST(RetryPolicy, JitterDecorrelatesStreams) {
  resilience::RetryPolicy rp;
  // Not a hard requirement of any one pair, but across a handful of stream
  // keys the jitter must not collapse to a constant.
  bool differs = false;
  const std::uint64_t first = rp.backoff_ns(3, 0);
  for (std::uint64_t key = 1; key < 8; ++key)
    differs = differs || rp.backoff_ns(3, key) != first;
  EXPECT_TRUE(differs);
}

// ---- PeerHealth -------------------------------------------------------------

TEST(PeerHealth, UpSuspectDownTransitionsAndLatch) {
  resilience::PeerHealth h(2);  // suspect_after=1, down_after=3
  EXPECT_EQ(h.state(1), resilience::PeerState::kUp);

  EXPECT_EQ(h.record_failure(1), resilience::PeerState::kSuspect);
  EXPECT_FALSE(h.down(1));
  h.record_success(1);
  EXPECT_EQ(h.state(1), resilience::PeerState::kUp);

  EXPECT_EQ(h.record_failure(1), resilience::PeerState::kSuspect);
  EXPECT_EQ(h.record_failure(1), resilience::PeerState::kSuspect);
  EXPECT_EQ(h.down_generation(), 0u);
  EXPECT_EQ(h.record_failure(1), resilience::PeerState::kDown);
  EXPECT_TRUE(h.down(1));
  EXPECT_EQ(h.down_generation(), 1u);

  // Down is latched: successes and further failures change nothing.
  h.record_success(1);
  EXPECT_TRUE(h.down(1));
  EXPECT_EQ(h.record_failure(1), resilience::PeerState::kDown);
  EXPECT_EQ(h.down_generation(), 1u);

  // The other peer is untouched.
  EXPECT_EQ(h.state(0), resilience::PeerState::kUp);
}

TEST(PeerHealth, ForceDownBumpsGenerationOnce) {
  resilience::PeerHealth h(3);
  h.force_down(2);
  EXPECT_TRUE(h.down(2));
  EXPECT_EQ(h.down_generation(), 1u);
  h.force_down(2);  // idempotent
  EXPECT_EQ(h.down_generation(), 1u);
  h.force_down(0);
  EXPECT_EQ(h.down_generation(), 2u);
}

TEST(PeerHealth, PeerStateNames) {
  EXPECT_STREQ(peer_state_name(resilience::PeerState::kUp), "Up");
  EXPECT_STREQ(peer_state_name(resilience::PeerState::kSuspect), "Suspect");
  EXPECT_STREQ(peer_state_name(resilience::PeerState::kDown), "Down");
}

// ---- FaultInjector targeting ------------------------------------------------

TEST(FaultInjector, PerPeerAndNthTargeting) {
  FaultInjector fi;
  fi.arm({OpCode::Put, Status::FaultInjected, /*only_peer=*/Rank{2},
          /*nth=*/3});
  EXPECT_TRUE(fi.armed());

  // Wrong peer and wrong op never count against the plan entry.
  EXPECT_FALSE(fi.maybe_fail(OpCode::Put, Rank{1}).has_value());
  EXPECT_FALSE(fi.maybe_fail(OpCode::Get, Rank{2}).has_value());

  // Matching posts count down; the third fires.
  EXPECT_FALSE(fi.maybe_fail(OpCode::Put, Rank{2}).has_value());
  EXPECT_FALSE(fi.maybe_fail(OpCode::Put, Rank{2}).has_value());
  auto st = fi.maybe_fail(OpCode::Put, Rank{2});
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(*st, Status::FaultInjected);
  EXPECT_EQ(fi.fired(), 1u);
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.maybe_fail(OpCode::Put, Rank{2}).has_value());
}

TEST(FaultInjector, LegacyAnyPeerFaultStillFiresOnNextMatch) {
  FaultInjector fi;
  // Pre-targeting aggregate init: op + status only, filters defaulted.
  fi.arm({OpCode::Put, Status::InvalidKey, std::nullopt, 1});
  EXPECT_FALSE(fi.maybe_fail(OpCode::Send, Rank{1}).has_value());
  auto st = fi.maybe_fail(OpCode::Put, Rank{1});
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(*st, Status::InvalidKey);
}

// ---- NIC reliable delivery under scripted wire faults -----------------------

class WireFaultTest : public ::testing::Test {
 protected:
  WireFaultTest() : fab(quiet_fabric(2)), a(fab.nic(0)), b(fab.nic(1)) {
    src.resize(4096);
    dst.resize(4096);
    auto p = pattern(src.size());
    std::memcpy(src.data(), p.data(), p.size());
    src_mr = a.registry().register_memory(src.data(), src.size(), kAccessAll)
                 .value();
    dst_mr = b.registry().register_memory(dst.data(), dst.size(), kAccessAll)
                 .value();
  }

  LocalRef lref(std::size_t off, std::size_t len) {
    return {src.data() + off, len, src_mr.lkey};
  }
  RemoteRef rref(std::size_t off) {
    return {dst_mr.begin() + off, dst_mr.rkey};
  }

  Fabric fab;
  Nic& a;
  Nic& b;
  std::vector<std::byte> src, dst;
  MemoryRegion src_mr, dst_mr;
};

TEST_F(WireFaultTest, DroppedFrameIsMaskedByRetransmission) {
  a.faults().arm_wire({WireFault::kDrop, OpCode::Put, Rank{1}});
  ASSERT_EQ(a.post_put(1, lref(0, 4096), rref(0), 7, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.jump_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0);
  EXPECT_EQ(a.counters().wire_drops.load(), 1u);
  EXPECT_GE(a.counters().retransmits.load(), 1u);
  EXPECT_GE(a.faults().fired(), 1u);
  // The retransmission cost is charged in virtual time, not hidden.
  EXPECT_GT(c.vtime, 0u);
}

TEST_F(WireFaultTest, CorruptedFrameIsRejectedByCrcAndRetransmitted) {
  a.faults().arm_wire({WireFault::kCorrupt, OpCode::Put, Rank{1}});
  ASSERT_EQ(a.post_put(1, lref(0, 4096), rref(0), 8, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.jump_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
  // The damaged frame was discarded before touching memory; the clean
  // retransmission landed the true payload.
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0);
  EXPECT_EQ(a.counters().wire_corruptions.load(), 1u);
  EXPECT_EQ(b.counters().crc_rejects.load(), 1u);
  EXPECT_GE(a.counters().retransmits.load(), 1u);
}

TEST_F(WireFaultTest, LostAckDuplicateIsSuppressedAtTarget) {
  a.faults().arm_wire({WireFault::kAckDrop, OpCode::PutImm, Rank{1}});
  ASSERT_EQ(a.post_put_imm(1, lref(0, 256), rref(0), 0xABCD, 9, true),
            Status::Ok);
  Completion c;
  ASSERT_EQ(a.jump_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 256), 0);
  EXPECT_EQ(a.counters().wire_ack_drops.load(), 1u);
  EXPECT_EQ(b.counters().dup_suppressed.load(), 1u);
  // Exactly one target event despite the retransmission.
  Completion ev;
  ASSERT_EQ(b.jump_recv(ev), Status::Ok);
  EXPECT_EQ(ev.imm, 0xABCDu);
  EXPECT_EQ(b.poll_recv(ev), Status::NotFound);
}

TEST_F(WireFaultTest, AtomicDuplicateReplaysCachedResult) {
  auto* ctr = reinterpret_cast<std::uint64_t*>(dst.data());
  *ctr = 100;
  a.faults().arm_wire({WireFault::kAckDrop, OpCode::FetchAdd, Rank{1}});
  ASSERT_EQ(a.post_fetch_add(1, rref(0), 5, 11), Status::Ok);
  Completion c;
  ASSERT_EQ(a.jump_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
  // The duplicate must not re-execute: one increment, and the fetched value
  // replayed from the responder cache is the original.
  EXPECT_EQ(c.result, 100u);
  EXPECT_EQ(*ctr, 105u);
  EXPECT_EQ(b.counters().dup_suppressed.load(), 1u);
}

TEST_F(WireFaultTest, DelaySpikeArrivesLateButIntact) {
  a.faults().arm_wire(
      {WireFault::kDelay, OpCode::Put, Rank{1}, /*nth=*/1, /*delay_ns=*/70'000});
  ASSERT_EQ(a.post_put(1, lref(0, 512), rref(0), 12, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.jump_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 512), 0);
  EXPECT_EQ(a.counters().wire_delays.load(), 1u);
  EXPECT_EQ(a.counters().retransmits.load(), 0u);
  EXPECT_GE(c.vtime, 70'000u);
}

TEST_F(WireFaultTest, LinkFlapWindowStallsThenDelivers) {
  a.faults().set_link_window({Rank{1}, /*down_from=*/0, /*up_at=*/50'000});
  ASSERT_EQ(a.post_put(1, lref(0, 1024), rref(0), 13, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.jump_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 1024), 0);
  EXPECT_GE(a.counters().link_down_stalls.load(), 1u);
  EXPECT_GE(c.vtime, 50'000u);  // nothing crossed the wire while it was down
}

TEST_F(WireFaultTest, PermanentLinkCutTimesOutAtTheDeadline) {
  a.faults().set_link_window({Rank{1}, 0, kLinkDownForever});
  const auto before = pattern(dst.size(), 0);  // dst stays all-initial
  std::memcpy(dst.data(), before.data(), before.size());
  ASSERT_EQ(a.post_put(1, lref(0, 2048), rref(0), 14, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.jump_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Timeout);
  EXPECT_EQ(c.wr_id, 14u);
  // Failure is stamped at the op's virtual deadline, not at infinity.
  EXPECT_GE(c.vtime, a.config().retry.deadline_ns);
  EXPECT_EQ(a.counters().op_timeouts.load(), 1u);
  EXPECT_EQ(std::memcmp(dst.data(), before.data(), 2048), 0);
  // One budget exhaustion -> Suspect (not yet Down).
  EXPECT_EQ(a.health().state(1), resilience::PeerState::kSuspect);
  EXPECT_FALSE(a.peer_down(1));
}

TEST_F(WireFaultTest, RepeatedTimeoutsLatchPeerDownAndFastFail) {
  a.faults().set_link_window({Rank{1}, 0, kLinkDownForever});
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(a.post_put(1, lref(0, 64), rref(0), 20 + i, true), Status::Ok);
    Completion c;
    ASSERT_EQ(a.jump_send(c), Status::Ok);
    ASSERT_EQ(c.status, Status::Timeout);
  }
  EXPECT_TRUE(a.peer_down(1));
  // Down is observed at post time: synchronous fast-fail, no completion.
  EXPECT_EQ(a.post_put(1, lref(0, 64), rref(0), 30, true),
            Status::PeerUnreachable);
  EXPECT_EQ(a.counters().peer_unreachable.load(), 1u);
  Completion c;
  EXPECT_EQ(a.poll_send(c), Status::NotFound);
  EXPECT_EQ(a.in_flight(1), 0u);
}

TEST(FabricKill, MarksPeerDownOnEveryNicAndCutsLinks) {
  Fabric fab(quiet_fabric(3));
  fab.kill(2);
  EXPECT_TRUE(fab.nic(0).peer_down(2));
  EXPECT_TRUE(fab.nic(1).peer_down(2));
  EXPECT_FALSE(fab.nic(0).peer_down(1));

  std::vector<std::byte> buf(64), far(64);
  auto mr =
      fab.nic(0).registry().register_memory(buf.data(), buf.size(), kAccessAll);
  auto mr1 =
      fab.nic(1).registry().register_memory(far.data(), far.size(), kAccessAll);
  ASSERT_TRUE(mr.ok());
  ASSERT_TRUE(mr1.ok());
  EXPECT_EQ(fab.nic(0).post_put(2, {buf.data(), 64, mr.value().lkey},
                                {mr1.value().begin(), mr1.value().rkey}, 1,
                                true),
            Status::PeerUnreachable);
  // Survivors keep talking.
  ASSERT_EQ(fab.nic(0).post_put(1, {buf.data(), 64, mr.value().lkey},
                                {mr1.value().begin(), mr1.value().rkey}, 2,
                                true),
            Status::Ok);
  Completion c;
  ASSERT_EQ(fab.nic(0).jump_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
}

TEST_F(WireFaultTest, ResilienceTotalsAggregateAcrossNics) {
  a.faults().arm_wire({WireFault::kDrop, OpCode::Put, Rank{1}});
  a.faults().arm_wire({WireFault::kCorrupt, OpCode::Put, Rank{1}, /*nth=*/2});
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(a.post_put(1, lref(0, 128), rref(0), 40 + i, true), Status::Ok);
    Completion c;
    ASSERT_EQ(a.jump_send(c), Status::Ok);
    ASSERT_EQ(c.status, Status::Ok);
  }
  telemetry::MetricsRegistry reg;
  reg.set_enabled(true);
  fab.fold_metrics(reg);
  const telemetry::Snapshot t = reg.snapshot();
  EXPECT_EQ(t.counter_or("fabric.retransmits", 0),
            a.counters().retransmits.load() + b.counters().retransmits.load());
  EXPECT_GE(t.counter_or("fabric.retransmits", 0), 2u);
  EXPECT_EQ(t.counter_or("fabric.crc_rejects", 0), 1u);  // counted at target
  EXPECT_GE(t.counter_or("fabric.wire_faults_fired", 0), 2u);
  EXPECT_EQ(t.counter_or("fabric.op_timeouts", 0), 0u);
}

TEST_F(WireFaultTest, RandomLossyWireIsSeededAndEventuallyMasked) {
  FaultInjector::WireRandomConfig cfg;
  cfg.only_peer = Rank{1};
  cfg.drop_p = 0.25;
  cfg.corrupt_p = 0.1;
  cfg.seed = 2024;
  a.faults().set_wire_random(cfg);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.post_put(1, lref(0, 4096), rref(0), 100 + i, true), Status::Ok);
    Completion c;
    ASSERT_EQ(a.jump_send(c), Status::Ok);
    ASSERT_EQ(c.status, Status::Ok) << "op " << i;
    ASSERT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0) << "op " << i;
  }
  EXPECT_GT(a.counters().retransmits.load(), 0u);
  EXPECT_GT(a.counters().wire_drops.load(), 0u);
  const std::uint64_t fired_once = a.faults().fired();
  EXPECT_GT(fired_once, 0u);
  EXPECT_EQ(a.health().state(1), resilience::PeerState::kUp);
}

}  // namespace
}  // namespace photon::fabric
