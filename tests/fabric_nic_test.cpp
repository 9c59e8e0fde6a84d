#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "fabric/fabric.hpp"
#include "test_helpers.hpp"

namespace photon::fabric {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;

class NicTest : public ::testing::Test {
 protected:
  NicTest() : fab(quiet_fabric(2)), a(fab.nic(0)), b(fab.nic(1)) {
    src.resize(4096);
    dst.resize(4096);
    auto p = pattern(src.size());
    std::memcpy(src.data(), p.data(), p.size());
    auto ma = a.registry().register_memory(src.data(), src.size(), kAccessAll);
    auto mb = b.registry().register_memory(dst.data(), dst.size(), kAccessAll);
    src_mr = ma.value();
    dst_mr = mb.value();
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

TEST_F(NicTest, PutMovesDataAndCompletesLocally) {
  ASSERT_EQ(a.post_put(1, lref(0, 4096), rref(0), 42, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 42u);
  EXPECT_EQ(c.op, OpCode::Put);
  EXPECT_EQ(c.status, Status::Ok);
  EXPECT_EQ(c.peer, 1u);
  EXPECT_EQ(c.byte_len, 4096u);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0);
}

TEST_F(NicTest, PutImmRaisesTargetEvent) {
  ASSERT_EQ(a.post_put_imm(1, lref(0, 64), rref(128), 0xBEEF, 1, true),
            Status::Ok);
  Completion ev;
  ASSERT_EQ(b.poll_recv(ev), Status::Ok);
  EXPECT_EQ(ev.op, OpCode::PutImm);
  EXPECT_EQ(ev.imm, 0xBEEFu);
  EXPECT_EQ(ev.peer, 0u);
  EXPECT_EQ(ev.byte_len, 64u);
  EXPECT_EQ(std::memcmp(src.data(), dst.data() + 128, 64), 0);
}

TEST_F(NicTest, PlainPutRaisesNoTargetEvent) {
  ASSERT_EQ(a.post_put(1, lref(0, 64), rref(0), 1, true), Status::Ok);
  Completion ev;
  EXPECT_EQ(b.poll_recv(ev), Status::NotFound);
}

TEST_F(NicTest, UnsignaledPutProducesNoLocalCompletion) {
  ASSERT_EQ(a.post_put(1, lref(0, 64), rref(0), 1, false), Status::Ok);
  Completion c;
  EXPECT_EQ(a.poll_send(c), Status::NotFound);
  EXPECT_EQ(a.in_flight(1), 0u);
}

TEST_F(NicTest, ZeroLengthPutImmIsPureDoorbell) {
  LocalRef empty{nullptr, 0, kInvalidKey};
  ASSERT_EQ(a.post_put_imm(1, empty, RemoteRef{}, 7, 1, true), Status::Ok);
  Completion ev;
  ASSERT_EQ(b.poll_recv(ev), Status::Ok);
  EXPECT_EQ(ev.imm, 7u);
  EXPECT_EQ(ev.byte_len, 0u);
}

TEST_F(NicTest, InlinePutNeedsNoRegistration) {
  const std::uint64_t v = 0x1122334455667788ULL;
  ASSERT_EQ(a.post_put_inline(1, &v, 8, rref(8), 0, 0, false, false),
            Status::Ok);
  std::uint64_t got = 0;
  std::memcpy(&got, dst.data() + 8, 8);
  EXPECT_EQ(got, v);
}

TEST_F(NicTest, InlinePutTooLargeRejected) {
  std::vector<std::byte> big(fab.config().nic.max_inline + 1);
  EXPECT_EQ(a.post_put_inline(1, big.data(), big.size(), rref(0), 0, 0, false,
                              false),
            Status::BadArgument);
}

TEST_F(NicTest, GetReadsRemoteMemory) {
  // b's buffer holds a pattern; a reads it back.
  auto p = pattern(256, 99);
  std::memcpy(dst.data() + 512, p.data(), 256);
  std::vector<std::byte> sink(256);
  auto mr = a.registry().register_memory(sink.data(), sink.size(), kAccessAll);
  ASSERT_EQ(a.post_get(1, {sink.data(), 256, mr.value().lkey},
                       {dst_mr.begin() + 512, dst_mr.rkey}, 5),
            Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.op, OpCode::Get);
  EXPECT_EQ(c.status, Status::Ok);
  EXPECT_EQ(std::memcmp(sink.data(), p.data(), 256), 0);
}

TEST_F(NicTest, RemoteValidationFailuresArriveAsErrorCompletions) {
  // Bad rkey.
  ASSERT_EQ(a.post_put(1, lref(0, 64), RemoteRef{dst_mr.begin(), 9999}, 1, true),
            Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::InvalidKey);

  // Out of bounds.
  ASSERT_EQ(a.post_put(1, lref(0, 64),
                       RemoteRef{dst_mr.begin() + 4090, dst_mr.rkey}, 2, true),
            Status::Ok);
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::OutOfBounds);
}

TEST_F(NicTest, LocalValidationFailsSynchronously) {
  EXPECT_EQ(a.post_put(1, LocalRef{src.data(), 64, 424242}, rref(0), 1, true),
            Status::InvalidKey);
  Completion c;
  EXPECT_EQ(a.poll_send(c), Status::NotFound);
}

TEST_F(NicTest, ErrorCompletionDeliveredEvenWhenUnsignaled) {
  ASSERT_EQ(a.post_put(1, lref(0, 64), RemoteRef{dst_mr.begin(), 9999}, 77,
                       /*signaled=*/false),
            Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::InvalidKey);
  EXPECT_EQ(c.wr_id, 77u);
}

TEST_F(NicTest, FetchAddReturnsOldValueAndAccumulates) {
  auto* cell = reinterpret_cast<std::uint64_t*>(dst.data());
  *cell = 100;
  ASSERT_EQ(a.post_fetch_add(1, rref(0), 5, 1), Status::Ok);
  ASSERT_EQ(a.post_fetch_add(1, rref(0), 7, 2), Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.result, 100u);
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.result, 105u);
  EXPECT_EQ(*cell, 112u);
}

TEST_F(NicTest, CompareSwapReportsObservedValue) {
  auto* cell = reinterpret_cast<std::uint64_t*>(dst.data());
  *cell = 10;
  ASSERT_EQ(a.post_compare_swap(1, rref(0), 10, 20, 1), Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.result, 10u);
  EXPECT_EQ(*cell, 20u);
  // Failed CAS: observed value returned, memory unchanged.
  ASSERT_EQ(a.post_compare_swap(1, rref(0), 10, 30, 2), Status::Ok);
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.result, 20u);
  EXPECT_EQ(*cell, 20u);
}

TEST_F(NicTest, MisalignedAtomicFails) {
  ASSERT_EQ(a.post_fetch_add(1, rref(4), 1, 1), Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Misaligned);
}

TEST_F(NicTest, SendMatchesPostedReceive) {
  std::vector<std::byte> rbuf(128);
  auto mr = b.registry().register_memory(rbuf.data(), rbuf.size(), kAccessAll);
  ASSERT_EQ(b.post_recv({rbuf.data(), rbuf.size(), mr.value().lkey}, 11),
            Status::Ok);
  ASSERT_EQ(a.post_send(1, lref(0, 100), 0xAB, 22, true), Status::Ok);

  Completion sc, rc;
  ASSERT_EQ(a.poll_send(sc), Status::Ok);
  EXPECT_EQ(sc.op, OpCode::Send);
  EXPECT_EQ(sc.wr_id, 22u);
  ASSERT_EQ(b.poll_recv(rc), Status::Ok);
  EXPECT_EQ(rc.op, OpCode::Recv);
  EXPECT_EQ(rc.wr_id, 11u);
  EXPECT_EQ(rc.imm, 0xABu);
  EXPECT_EQ(rc.byte_len, 100u);
  EXPECT_EQ(std::memcmp(rbuf.data(), src.data(), 100), 0);
}

TEST_F(NicTest, EarlySendIsParkedUntilReceivePosted) {
  ASSERT_EQ(a.post_send(1, lref(0, 100), 5, 1, true), Status::Ok);
  EXPECT_EQ(b.parked_sends(), 1u);

  std::vector<std::byte> rbuf(128);
  auto mr = b.registry().register_memory(rbuf.data(), rbuf.size(), kAccessAll);
  ASSERT_EQ(b.post_recv({rbuf.data(), rbuf.size(), mr.value().lkey}, 2),
            Status::Ok);
  Completion rc;
  ASSERT_EQ(b.poll_recv(rc), Status::Ok);
  EXPECT_EQ(rc.byte_len, 100u);
  EXPECT_EQ(std::memcmp(rbuf.data(), src.data(), 100), 0);
  EXPECT_EQ(b.parked_sends(), 0u);
}

TEST_F(NicTest, TruncatedReceiveFlagsError) {
  std::vector<std::byte> rbuf(32);
  auto mr = b.registry().register_memory(rbuf.data(), rbuf.size(), kAccessAll);
  ASSERT_EQ(b.post_recv({rbuf.data(), rbuf.size(), mr.value().lkey}, 1),
            Status::Ok);
  ASSERT_EQ(a.post_send(1, lref(0, 100), 0, 2, true), Status::Ok);
  Completion rc;
  ASSERT_EQ(b.poll_recv(rc), Status::Ok);
  EXPECT_EQ(rc.status, Status::Truncated);
  EXPECT_EQ(rc.byte_len, 32u);
}

TEST_F(NicTest, SendRecvFifoAcrossParking) {
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_EQ(a.post_send(1, lref(static_cast<std::size_t>(i) * 8, 8), i, i,
                          false),
              Status::Ok);
  std::vector<std::byte> rbuf(64);
  auto mr = b.registry().register_memory(rbuf.data(), rbuf.size(), kAccessAll);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(b.post_recv({rbuf.data(), 8, mr.value().lkey}, 100 + i),
              Status::Ok);
    Completion rc;
    ASSERT_EQ(b.poll_recv(rc), Status::Ok);
    EXPECT_EQ(rc.imm, i);  // arrival order preserved
    EXPECT_EQ(rc.wr_id, 100 + i);
  }
}

// A matched receive's completion must not become visible before its
// payload: the receiver may read the buffer the moment it pops the event.
// The send runs on its own thread (as rank 0's would) and is large, so a
// completion published ahead of the copy is caught with the tail unwritten.
TEST_F(NicTest, RecvCompletionPublishedOnlyAfterPayloadLands) {
  constexpr std::size_t kLen = 512 * 1024;
  constexpr std::byte kTail{0xA5};
  std::vector<std::byte> sbuf = pattern(kLen);
  sbuf.back() = kTail;
  std::vector<std::byte> rbuf(kLen);
  auto ms = a.registry().register_memory(sbuf.data(), sbuf.size(), kAccessAll);
  auto mr = b.registry().register_memory(rbuf.data(), rbuf.size(), kAccessAll);
  for (std::uint64_t round = 0; round < 20; ++round) {
    std::fill(rbuf.begin(), rbuf.end(), std::byte{0});
    ASSERT_EQ(b.post_recv({rbuf.data(), rbuf.size(), mr.value().lkey}, round),
              Status::Ok);
    std::thread sender([&] {
      EXPECT_EQ(a.post_send(1, {sbuf.data(), kLen, ms.value().lkey}, round,
                            round, /*signaled=*/false),
                Status::Ok);
    });
    Completion rc;
    while (b.jump_recv(rc) != Status::Ok) {
    }
    const std::byte tail = rbuf.back();  // read before anything else
    sender.join();
    ASSERT_EQ(rc.op, OpCode::Recv);
    ASSERT_EQ(rc.byte_len, kLen);
    ASSERT_EQ(tail, kTail) << "recv completion surfaced before its payload "
                              "(round " << round << ")";
    EXPECT_EQ(std::memcmp(rbuf.data(), sbuf.data(), kLen), 0);
  }
}

TEST_F(NicTest, SqDepthLimitsOutstandingCompletions) {
  FabricConfig cfg = quiet_fabric(2);
  cfg.nic.sq_depth = 4;
  Fabric f2(cfg);
  Nic& n0 = f2.nic(0);
  std::vector<std::byte> s(64), d(64);
  auto ms = n0.registry().register_memory(s.data(), s.size(), kAccessAll);
  auto md = f2.nic(1).registry().register_memory(d.data(), d.size(), kAccessAll);
  RemoteRef rr{md.value().begin(), md.value().rkey};
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(n0.post_put(1, {s.data(), 8, ms.value().lkey}, rr, i, true),
              Status::Ok);
  EXPECT_EQ(n0.post_put(1, {s.data(), 8, ms.value().lkey}, rr, 5, true),
            Status::QueueFull);
  Completion c;
  ASSERT_EQ(n0.poll_send(c), Status::Ok);  // frees one slot
  EXPECT_EQ(n0.post_put(1, {s.data(), 8, ms.value().lkey}, rr, 5, true),
            Status::Ok);
}

TEST_F(NicTest, FaultInjectionProducesPlannedErrorCompletion) {
  a.faults().arm({OpCode::Put, Status::FaultInjected, std::nullopt, 1});
  ASSERT_EQ(a.post_put(1, lref(0, 64), rref(0), 9, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::FaultInjected);
  EXPECT_EQ(a.counters().faults_injected.load(), 1u);
  // Next op is clean.
  ASSERT_EQ(a.post_put(1, lref(0, 64), rref(0), 10, true), Status::Ok);
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
}

TEST_F(NicTest, FaultFilterSkipsOtherOps) {
  a.faults().arm({OpCode::Get, Status::FaultInjected, std::nullopt, 1});
  ASSERT_EQ(a.post_put(1, lref(0, 64), rref(0), 1, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);  // put unaffected; fault still armed
  EXPECT_TRUE(a.faults().armed());
}

TEST_F(NicTest, CqOverflowIsStickyUntilCleared) {
  FabricConfig cfg = quiet_fabric(2);
  cfg.nic.cq_depth = 2;
  cfg.nic.sq_depth = 16;
  Fabric f2(cfg);
  Nic& n0 = f2.nic(0);
  std::vector<std::byte> s(64), d(64);
  auto ms = n0.registry().register_memory(s.data(), s.size(), kAccessAll);
  auto md = f2.nic(1).registry().register_memory(d.data(), d.size(), kAccessAll);
  RemoteRef rr{md.value().begin(), md.value().rkey};
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(n0.post_put(1, {s.data(), 8, ms.value().lkey}, rr, i, true),
              Status::Ok);
  Completion c;
  EXPECT_EQ(n0.poll_send(c), Status::QueueFull);
  EXPECT_EQ(n0.send_cq().overflows(), 1u);
  n0.send_cq().clear_overflow();
  EXPECT_EQ(n0.poll_send(c), Status::Ok);
}

TEST_F(NicTest, SelfLoopbackWorks) {
  std::vector<std::byte> self_dst(128);
  auto mr =
      a.registry().register_memory(self_dst.data(), self_dst.size(), kAccessAll);
  ASSERT_EQ(a.post_put(0, lref(0, 128), {mr.value().begin(), mr.value().rkey},
                       1, true),
            Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
  EXPECT_EQ(std::memcmp(self_dst.data(), src.data(), 128), 0);
}

TEST_F(NicTest, CompletionConsumptionAdvancesVirtualClock) {
  FabricConfig cfg = photon::testing::timed_fabric(2);
  Fabric f2(cfg);
  Nic& n0 = f2.nic(0);
  std::vector<std::byte> s(64), d(64);
  auto ms = n0.registry().register_memory(s.data(), s.size(), kAccessAll);
  auto md = f2.nic(1).registry().register_memory(d.data(), d.size(), kAccessAll);
  ASSERT_EQ(n0.post_put(1, {s.data(), 64, ms.value().lkey},
                        {md.value().begin(), md.value().rkey}, 1, true),
            Status::Ok);
  const std::uint64_t after_post = n0.clock().now();
  EXPECT_GE(after_post, cfg.wire.send_overhead_ns);
  Completion c;
  // Non-blocking poll must NOT surface a completion whose virtual arrival
  // is still in the future (polling never advances time).
  EXPECT_EQ(n0.poll_send(c), Status::NotFound);
  // Waiting jumps the clock to the arrival.
  ASSERT_EQ(n0.wait_send(c, 1'000'000'000ULL), Status::Ok);
  EXPECT_GT(c.vtime, 0u);
  EXPECT_GE(n0.clock().now(), c.vtime + cfg.wire.recv_overhead_ns);
  // Once time has reached an event, plain polling sees later-queued ones.
  ASSERT_EQ(n0.post_put(1, {s.data(), 8, ms.value().lkey},
                        {md.value().begin(), md.value().rkey}, 2, true),
            Status::Ok);
  // (second put's local_done may still be ahead of now; jump again)
  ASSERT_EQ(n0.jump_send(c), Status::Ok);
  // Target clock is untouched by one-sided traffic until it consumes events.
  EXPECT_EQ(f2.nic(1).clock().now(), 0u);
}

TEST_F(NicTest, WaitSendReturnsQueuedImmediately) {
  ASSERT_EQ(a.post_put(1, lref(0, 64), rref(0), 7, true), Status::Ok);
  Completion c;
  ASSERT_EQ(a.wait_send(c, 1'000'000), Status::Ok);
  EXPECT_EQ(c.wr_id, 7u);
}

TEST_F(NicTest, WaitSendTimesOutWhenEmpty) {
  Completion c;
  EXPECT_EQ(a.wait_send(c, 1'000'000), Status::NotFound);
}

TEST_F(NicTest, CountersTrackTraffic) {
  ASSERT_EQ(a.post_put(1, lref(0, 100), rref(0), 1, true), Status::Ok);
  ASSERT_EQ(a.post_send(1, lref(0, 50), 0, 2, true), Status::Ok);
  EXPECT_EQ(a.counters().puts.load(), 1u);
  EXPECT_EQ(a.counters().sends.load(), 1u);
  EXPECT_EQ(a.counters().bytes_out.load(), 150u);
  EXPECT_EQ(b.counters().bytes_in.load(), 150u);
}

// Target-side counts live in per-initiator slots of the target NIC, each
// written only by its initiator's thread. With ranks 1 and 2 posting puts,
// sends, gets and compare-swaps concurrently into rank 0 and into each other
// (while rank 0 drains its receives), every byte one NIC counts out must be
// counted in by another, and each NIC's counters must equal an independent
// tally of the posted ops — a slot written by two threads loses updates.
TEST(NicCounterConservation, ConcurrentInitiatorsMatchIndependentTally) {
  constexpr std::uint32_t kRanks = 3;
  constexpr std::size_t kWindow = 4096;  // each initiator's window per rank
  constexpr int kIters = 20000;
  struct Tally {
    std::uint64_t puts = 0, gets = 0, sends = 0, atomics = 0;
    std::uint64_t bytes_out = 0, bytes_in = 0;
  };
  Fabric fab(photon::testing::timed_fabric(kRanks));
  std::vector<std::vector<std::byte>> mem(
      kRanks, std::vector<std::byte>(kRanks * kWindow));
  std::vector<MemoryRegion> mr;
  for (Rank r = 0; r < kRanks; ++r)
    mr.push_back(fab.nic(r)
                     .registry()
                     .register_memory(mem[r].data(), mem[r].size(), kAccessAll)
                     .value());
  std::vector<std::byte> rbuf(kWindow);
  const MemoryRegion rmr =
      fab.nic(0).registry().register_memory(rbuf.data(), rbuf.size(), kAccessAll)
          .value();

  // tally[initiator][nic]: what the initiator's ops add to each NIC.
  std::vector<std::vector<Tally>> tally(kRanks, std::vector<Tally>(kRanks));
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  auto initiate = [&](Rank me) {
    struct Finish {
      std::atomic<int>& n;
      ~Finish() { n.fetch_add(1); }  // also on a failed ASSERT's early return
    } finish{finished};
    Nic& nic = fab.nic(me);
    std::vector<Tally>& t = tally[me];
    const Rank other = me == 1 ? 2 : 1;
    const LocalMutRef window{mem[me].data() + me * kWindow, kWindow, mr[me].lkey};
    started.fetch_add(1);
    while (started.load() < 2) {
    }  // overlap the two initiators' streams
    Completion c;
    for (int i = 0; i < kIters; ++i) {
      const Rank dst = i % 2 == 0 ? 0 : other;
      const std::size_t len = 8 + static_cast<std::size_t>(i) * 7 % (kWindow - 8);
      const RemoteRef remote{mr[dst].begin() + me * kWindow, mr[dst].rkey};
      const LocalRef src{window.addr, len, window.lkey};
      const auto id = static_cast<std::uint64_t>(i);
      Status st = Status::Ok;
      switch (i / 2 % 4) {
        case 0:
          st = nic.post_put(dst, src, remote, id);
          ++t[me].puts;
          t[me].bytes_out += len;
          t[dst].bytes_in += len;
          break;
        case 1:
          st = nic.post_send(dst, src, 0, id);
          ++t[me].sends;
          t[me].bytes_out += len;
          t[dst].bytes_in += len;
          break;
        case 2:
          st = nic.post_get(dst, {window.addr, len, window.lkey}, remote, id);
          ++t[me].gets;
          t[me].bytes_in += len;
          t[dst].bytes_out += len;
          break;
        default:
          st = nic.post_compare_swap(dst, remote, id, id + 1, id);
          ++t[me].atomics;
          break;
      }
      ASSERT_EQ(st, Status::Ok);
      ASSERT_EQ(nic.jump_send(c), Status::Ok);
      ASSERT_EQ(c.status, Status::Ok);
    }
  };
  std::thread target([&] {
    Nic& nic = fab.nic(0);
    Completion c;
    std::uint64_t id = 0;
    while (finished.load() < 2) {
      if (nic.posted_recvs() == 0) {
        ASSERT_EQ(nic.post_recv({rbuf.data(), rbuf.size(), rmr.lkey}, id++),
                  Status::Ok);
      }
      while (nic.jump_recv(c) == Status::Ok) {
      }
    }
  });
  std::thread one(initiate, 1);
  std::thread two(initiate, 2);
  one.join();
  two.join();
  target.join();

  std::uint64_t all_out = 0;
  std::uint64_t all_in = 0;
  for (Rank n = 0; n < kRanks; ++n) {
    Tally want;
    for (Rank r = 0; r < kRanks; ++r) {
      want.puts += tally[r][n].puts;
      want.gets += tally[r][n].gets;
      want.sends += tally[r][n].sends;
      want.atomics += tally[r][n].atomics;
      want.bytes_out += tally[r][n].bytes_out;
      want.bytes_in += tally[r][n].bytes_in;
    }
    const Counters& c = fab.nic(n).counters();
    EXPECT_EQ(c.puts.load(), want.puts) << "nic " << n;
    EXPECT_EQ(c.gets.load(), want.gets) << "nic " << n;
    EXPECT_EQ(c.sends.load(), want.sends) << "nic " << n;
    EXPECT_EQ(c.atomics.load(), want.atomics) << "nic " << n;
    EXPECT_EQ(c.bytes_out.load(), want.bytes_out) << "nic " << n;
    EXPECT_EQ(c.bytes_in.load(), want.bytes_in) << "nic " << n;
    all_out += c.bytes_out.load();
    all_in += c.bytes_in.load();
  }
  EXPECT_EQ(all_out, all_in);
  EXPECT_GT(all_in, 0u);
}

TEST_F(NicTest, BatchPollDrainsArrivedReleasesSlotsAndChargesPerConsume) {
  constexpr std::size_t kOps = 6;
  for (std::uint64_t i = 0; i < kOps; ++i)
    ASSERT_EQ(a.post_put(1, lref(0, 64), rref(0), i, true), Status::Ok);
  EXPECT_EQ(a.in_flight(1), kOps);

  std::vector<Completion> batch(4);
  std::size_t n = a.poll_send_batch(batch);
  ASSERT_EQ(n, 4u);  // capped by the span
  EXPECT_EQ(a.in_flight(1), kOps - 4);  // slots released on drain
  const std::uint64_t before = a.clock().now();
  for (std::size_t i = 0; i < n; ++i) {
    a.charge_consume();
    EXPECT_EQ(batch[i].wr_id, i);
    EXPECT_EQ(batch[i].status, Status::Ok);
  }
  // Per-completion consume overhead equals the single-poll path's charge.
  EXPECT_EQ(a.clock().now(), before + 4 * fab.wire().recv_overhead());

  n = a.poll_send_batch(batch);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(a.in_flight(1), 0u);
  EXPECT_EQ(a.poll_send_batch(batch), 0u);
  EXPECT_EQ(a.counters().completions_polled.load(), kOps);
}

TEST_F(NicTest, BatchPollMatchesSinglePollClockAccounting) {
  // Two identical fabrics: drain one NIC with singles, the other batched;
  // final virtual clocks must agree exactly.
  auto run = [](bool batched) {
    Fabric f(photon::testing::timed_fabric(2));
    Nic& n0 = f.nic(0);
    std::vector<std::byte> s(64);
    auto ms = n0.registry().register_memory(s.data(), s.size(), kAccessAll);
    std::vector<std::byte> d(64);
    auto md = f.nic(1).registry().register_memory(d.data(), d.size(),
                                                  kAccessAll);
    for (std::uint64_t i = 0; i < 5; ++i)
      EXPECT_EQ(n0.post_put(1, {s.data(), 64, ms.value().lkey},
                            {md.value().begin(), md.value().rkey}, i, true),
                Status::Ok);
    Completion c;
    while (n0.jump_send(c) == Status::Ok) {
    }  // jump past the last arrival so everything is "ready"... then repost
    for (std::uint64_t i = 0; i < 5; ++i)
      EXPECT_EQ(n0.post_put(1, {s.data(), 64, ms.value().lkey},
                            {md.value().begin(), md.value().rkey}, 10 + i,
                            true),
                Status::Ok);
    while (n0.jump_send(c) == Status::Ok) {
    }
    for (std::uint64_t i = 0; i < 5; ++i)
      EXPECT_EQ(n0.post_put(1, {s.data(), 64, ms.value().lkey},
                            {md.value().begin(), md.value().rkey}, 20 + i,
                            true),
                Status::Ok);
    std::size_t drained = 0;
    if (batched) {
      std::vector<Completion> batch(8);
      std::size_t n;
      while ((n = n0.poll_send_batch(batch)) != 0) {
        for (std::size_t i = 0; i < n; ++i) n0.charge_consume();
        drained += n;
      }
    } else {
      while (n0.poll_send(c) == Status::Ok) ++drained;
    }
    return std::pair{drained, n0.clock().now()};
  };
  const auto single = run(false);
  const auto batch = run(true);
  EXPECT_EQ(single.first, batch.first);
  EXPECT_EQ(single.second, batch.second);
}

}  // namespace
}  // namespace photon::fabric
