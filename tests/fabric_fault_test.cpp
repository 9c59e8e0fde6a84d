// Fault-injection matrix: every op type must surface planned faults as
// error completions and recover cleanly afterwards; the middleware layers
// must keep functioning around injected failures.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "check/checker.hpp"
#include "core/photon.hpp"
#include "fabric/fabric.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"
#include "util/timing.hpp"

namespace photon::fabric {
namespace {

using photon::testing::quiet_fabric;

// The unarmed fast path of maybe_fail() is a relaxed atomic load; arming from
// another thread mid-traffic must never lose, duplicate, or corrupt a fault.
TEST(FaultInjector, ConcurrentArmingNeverLosesOrDuplicatesFaults) {
  FaultInjector fi;
  constexpr int kFaults = 1000;
  std::atomic<int> seen{0};
  std::atomic<bool> arming_done{false};
  std::thread consumer([&] {
    // Keep posting until every armed fault has fired: each armed plan entry
    // leaves armed() true until it is consumed.
    while (!arming_done.load(std::memory_order_acquire) || fi.armed()) {
      if (fi.maybe_fail(OpCode::Put).has_value())
        seen.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < kFaults; ++i)
    fi.arm({OpCode::Put, Status::FaultInjected, std::nullopt, 1});
  arming_done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(seen.load(), kFaults);
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.maybe_fail(OpCode::Put).has_value());
}

class FaultMatrix : public ::testing::TestWithParam<OpCode> {};

TEST_P(FaultMatrix, PlannedFaultBecomesErrorCompletionThenRecovers) {
  const OpCode op = GetParam();
  Fabric fab(quiet_fabric(2));
  Nic& a = fab.nic(0);
  Nic& b = fab.nic(1);
  std::vector<std::byte> src(256), dst(256);
  auto ms = a.registry().register_memory(src.data(), src.size(), kAccessAll);
  auto md = b.registry().register_memory(dst.data(), dst.size(), kAccessAll);
  const RemoteRef rr{md.value().begin(), md.value().rkey};
  const LocalRef lr{src.data(), 64, ms.value().lkey};

  auto post = [&](std::uint64_t wr) -> Status {
    switch (op) {
      case OpCode::Put:
        return a.post_put(1, lr, rr, wr, true);
      case OpCode::PutImm:
        return a.post_put_imm(1, lr, rr, 9, wr, true);
      case OpCode::Get:
        return a.post_get(1, LocalMutRef{src.data(), 64, ms.value().lkey}, rr,
                          wr);
      case OpCode::Send:
        return a.post_send(1, lr, 0, wr, true);
      case OpCode::FetchAdd:
        return a.post_fetch_add(1, rr, 1, wr);
      case OpCode::CompareSwap:
        return a.post_compare_swap(1, rr, 0, 1, wr);
      default:
        return Status::BadArgument;
    }
  };

  a.faults().arm({op, Status::FaultInjected, std::nullopt, 1});
  ASSERT_EQ(post(1), Status::Ok);
  Completion c;
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::FaultInjected);
  EXPECT_EQ(c.wr_id, 1u);
  EXPECT_EQ(a.counters().faults_injected.load(), 1u);

  // A faulted op must not have touched the target.
  EXPECT_EQ(b.counters().bytes_in.load(), 0u);

  // The next identical op succeeds.
  ASSERT_EQ(post(2), Status::Ok);
  ASSERT_EQ(a.poll_send(c), Status::Ok);
  EXPECT_EQ(c.status, Status::Ok);
  EXPECT_EQ(c.wr_id, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllOps, FaultMatrix,
                         ::testing::Values(OpCode::Put, OpCode::PutImm,
                                           OpCode::Get, OpCode::Send,
                                           OpCode::FetchAdd,
                                           OpCode::CompareSwap));

TEST(FaultInjector, PlannedFaultsFireInOrder) {
  FaultInjector fi;
  fi.arm({std::nullopt, Status::InvalidKey, std::nullopt, 1});
  fi.arm({std::nullopt, Status::OutOfBounds, std::nullopt, 1});
  EXPECT_EQ(fi.maybe_fail(OpCode::Put).value(), Status::InvalidKey);
  EXPECT_EQ(fi.maybe_fail(OpCode::Get).value(), Status::OutOfBounds);
  EXPECT_FALSE(fi.maybe_fail(OpCode::Put).has_value());
  EXPECT_FALSE(fi.armed());
}

// Middleware-level resilience: an injected failure on a *sequenced* op
// (eager-ring message) would leave a hole in the ring, so the connection
// latches dead (verbs QP-error semantics): the error surfaces through
// probe_error, further sequenced ops to that peer return Disconnected, and
// other peers are unaffected.
TEST(PhotonResilience, SequencedFaultLatchesPeerDisconnected) {
  runtime::Cluster cluster(quiet_fabric(3));
  cluster.run([&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    constexpr std::uint64_t kWait = 2'000'000'000ULL;
    std::uint64_t v = 7;
    const auto bytes = std::as_bytes(std::span(&v, 1));
    if (env.rank == 0) {
      env.nic.faults().arm(
          {OpCode::PutImm, Status::FaultInjected, std::nullopt, 1});
      // The faulted eager send posts fine; the error arrives asynchronously.
      ASSERT_EQ(ph.try_send_with_completion(1, bytes, std::nullopt, 1),
                Status::Ok);
      util::Deadline dl(kWait);
      std::optional<Status> err;
      while (!err && !dl.expired()) err = ph.probe_error();
      ASSERT_TRUE(err.has_value());
      EXPECT_EQ(*err, Status::FaultInjected);
      // Peer 1 is now latched dead for sequenced traffic...
      EXPECT_EQ(ph.try_send_with_completion(1, bytes, std::nullopt, 2),
                Status::Disconnected);
      EXPECT_EQ(ph.try_signal(1, 3), Status::Disconnected);
      // ...but peer 2 is unaffected.
      ASSERT_EQ(ph.send_with_completion(2, bytes, std::nullopt, 4, kWait),
                Status::Ok);
    } else if (env.rank == 2) {
      core::ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 4u);
    }
    env.bootstrap.barrier(env.rank);
  });
}

TEST(PhotonResilience, RemoteAccessErrorDoesNotCorruptLedgerFlow) {
  runtime::Cluster cluster(quiet_fabric(2));
  cluster.run([&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    // Forged rkey below is deliberate misuse; keep the sanitizer quiet.
    env.nic.checker().set_enabled(false);
    constexpr std::uint64_t kWait = 2'000'000'000ULL;
    std::vector<std::byte> buf(128);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);
    if (env.rank == 0) {
      // Bad put (forged rkey), then a good PWC: the good one must deliver.
      core::RemoteSlice bad = core::slice(peers[1], 0, 64);
      bad.rkey = 0xBAD;
      ASSERT_EQ(ph.put_with_completion(1, core::local_slice(desc, 0, 64), bad,
                                       std::nullopt, std::nullopt, kWait),
                Status::Ok);
      ASSERT_EQ(ph.put_with_completion(1, core::local_slice(desc, 0, 64),
                                       core::slice(peers[1], 0, 64),
                                       std::nullopt, 42, kWait),
                Status::Ok);
      util::Deadline dl(kWait);
      std::optional<Status> err;
      while (!err && !dl.expired()) err = ph.probe_error();
      ASSERT_TRUE(err.has_value());
      EXPECT_EQ(*err, Status::InvalidKey);
    } else {
      core::ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 42u);
    }
    env.bootstrap.barrier(env.rank);
  });
}

}  // namespace
}  // namespace photon::fabric
