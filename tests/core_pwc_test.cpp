#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "check/checker.hpp"
#include "core/photon.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"
#include "util/timing.hpp"

namespace photon::core {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

constexpr std::uint64_t kWait = 2'000'000'000ULL;  // 2 s wall timeout

Config small_config() {
  Config c;
  c.eager_ring_bytes = 1u << 14;  // 16 KiB rings: exercises wrap quickly
  c.eager_threshold = 1024;
  c.ledger_entries = 8;
  return c;
}

/// Runs `body(env, photon)` on every rank with a collectively constructed
/// Photon instance per rank.
void with_photon(std::uint32_t nranks, const Config& cfg,
                 const std::function<void(Env&, Photon&)>& body) {
  Cluster cluster(quiet_fabric(nranks));
  cluster.run([&](Env& env) {
    Photon ph(env.nic, env.bootstrap, cfg);
    body(env, ph);
    env.bootstrap.barrier(env.rank);  // quiesce before teardown
  });
}

TEST(PhotonConfig, RejectsBadConfigs) {
  Cluster cluster(quiet_fabric(1));
  cluster.run([&](Env& env) {
    Config c;
    c.eager_ring_bytes = 100;  // unaligned and too small
    EXPECT_THROW(Photon(env.nic, env.bootstrap, c), std::invalid_argument);
    Config c2;
    c2.ledger_entries = 1;
    EXPECT_THROW(Photon(env.nic, env.bootstrap, c2), std::invalid_argument);
  });
}

TEST(PhotonPwc, DirectPutDeliversDataAndBothIds) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    ASSERT_TRUE(desc.ok());
    auto all = ph.exchange_descriptors(desc.value());

    if (env.rank == 0) {
      auto payload = pattern(512);
      std::memcpy(buf.data(), payload.data(), payload.size());
      ASSERT_EQ(ph.put_with_completion(1, local_slice(desc.value(), 0, 512),
                                       slice(all[1], 64, 512), 111, 222),
                Status::Ok);
      LocalComplete lc;
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, 111u);
      EXPECT_EQ(lc.peer, 1u);
    } else {
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 222u);
      EXPECT_EQ(ev.peer, 0u);
      EXPECT_FALSE(ev.from_get);
      EXPECT_TRUE(ev.payload.empty());  // direct: data is in the buffer
      auto expect = pattern(512);
      EXPECT_EQ(std::memcmp(buf.data() + 64, expect.data(), 512), 0);
    }
  });
}

TEST(PhotonPwc, EagerSendCarriesPayloadToProbe) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    if (env.rank == 0) {
      auto payload = pattern(300, 3);
      ASSERT_EQ(ph.send_with_completion(1, payload, 7, 8), Status::Ok);
      LocalComplete lc;
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, 7u);
    } else {
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 8u);
      auto expect = pattern(300, 3);
      ASSERT_EQ(ev.payload.size(), 300u);
      EXPECT_EQ(std::memcmp(ev.payload.data(), expect.data(), 300), 0);
    }
  });
}

TEST(PhotonPwc, ZeroByteEagerAndSignal) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    if (env.rank == 0) {
      ASSERT_EQ(ph.send_with_completion(1, {}, std::nullopt, 42), Status::Ok);
      ASSERT_EQ(ph.signal(1, 43), Status::Ok);
    } else {
      ProbeEvent a, b;
      ASSERT_EQ(ph.wait_event(a, kWait), Status::Ok);
      ASSERT_EQ(ph.wait_event(b, kWait), Status::Ok);
      EXPECT_EQ(a.id, 42u);
      EXPECT_TRUE(a.payload.empty());
      EXPECT_EQ(b.id, 43u);
    }
  });
}

TEST(PhotonPwc, EagerOrderIsPreservedPerPeer) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    constexpr int kN = 200;  // forces multiple ring wraps (16 KiB ring)
    if (env.rank == 0) {
      std::vector<std::byte> payload(256);
      for (int i = 0; i < kN; ++i) {
        std::memcpy(payload.data(), &i, sizeof(i));
        ASSERT_EQ(ph.send_with_completion(
                      1, payload, std::nullopt, static_cast<std::uint64_t>(i)),
                  Status::Ok);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        ProbeEvent ev;
        ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
        EXPECT_EQ(ev.id, static_cast<std::uint64_t>(i));
        int got = -1;
        std::memcpy(&got, ev.payload.data(), sizeof(got));
        EXPECT_EQ(got, i);
      }
    }
  });
}

// Keyed ids (kKeyedEventBit) are filed by (peer, id) at delivery:
// probe_event never returns them, take_event returns each key's events in
// delivery order, and discard_events_from clears both stores.
TEST(PhotonEvents, KeyedIdsBypassTheProbeFifo) {
  constexpr std::uint64_t kA = kKeyedEventBit | 0xA;
  constexpr std::uint64_t kB = kKeyedEventBit | kKeyedServiceBit | 0xB;
  with_photon(2, small_config(), [&](Env& env, Photon& ph) {
    if (env.rank == 1) {
      const std::byte first[] = {std::byte{1}};
      const std::byte second[] = {std::byte{2}};
      ASSERT_EQ(ph.send_with_completion(0, first, std::nullopt, kA), Status::Ok);
      ASSERT_EQ(ph.signal(0, kB, kWait), Status::Ok);
      ASSERT_EQ(ph.send_with_completion(0, second, std::nullopt, kA), Status::Ok);
      ASSERT_EQ(ph.signal(0, 7, kWait), Status::Ok);
      env.bootstrap.barrier(env.rank);  // rank 0 took phase one
      ASSERT_EQ(ph.signal(0, kA, kWait), Status::Ok);
      ASSERT_EQ(ph.signal(0, 8, kWait), Status::Ok);
      return;
    }
    // Idle-wait until `n` events have been delivered, consuming none.
    const auto await_delivered = [&](std::uint64_t n) {
      (void)ph.wait_for(kWait, [&]() -> std::optional<bool> {
        if (ph.stats().events_delivered < n) return std::nullopt;
        return true;
      });
      ASSERT_EQ(ph.stats().events_delivered, n);
    };
    await_delivered(4);
    ProbeEvent ev;
    ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
    EXPECT_EQ(ev.id, 7u);
    EXPECT_EQ(ph.probe_event(), std::nullopt);
    for (const std::byte want : {std::byte{1}, std::byte{2}}) {
      const auto a = ph.take_event(1, kA);
      ASSERT_TRUE(a.has_value());
      ASSERT_EQ(a->payload.size(), 1u);
      EXPECT_EQ(a->payload[0], want);
    }
    EXPECT_EQ(ph.take_event(1, kA), std::nullopt);
    const auto b = ph.take_event(1, kB);
    ASSERT_TRUE(b.has_value());
    EXPECT_TRUE(b->payload.empty());
    EXPECT_EQ(ph.take_event(1, kB), std::nullopt);
    env.bootstrap.barrier(env.rank);

    await_delivered(6);
    EXPECT_EQ(ph.discard_events_from(1), 2u);
    EXPECT_EQ(ph.probe_event(), std::nullopt);
    EXPECT_EQ(ph.take_event(1, kA), std::nullopt);
  });
}

TEST(PhotonPwc, RingBackPressureReturnsRetryThenRecovers) {
  Config cfg = small_config();
  cfg.eager_ring_bytes = 4096;
  cfg.eager_threshold = 1024;
  with_photon(2, cfg, [&](Env& env, Photon& ph) {
    if (env.rank == 0) {
      std::vector<std::byte> payload(1024);
      // Fill the ring without the peer consuming.
      int posted = 0;
      Status st = Status::Ok;
      while (posted < 64) {
        st = ph.try_send_with_completion(1, payload, std::nullopt, 1);
        if (st != Status::Ok) break;
        ++posted;
      }
      EXPECT_EQ(st, Status::Retry);
      EXPECT_GE(ph.stats().credit_stalls, 1u);
      EXPECT_GT(posted, 0);
      env.bootstrap.barrier(env.rank);  // let receiver start draining
      // Blocking wrapper must eventually succeed as credits return.
      ASSERT_EQ(ph.send_with_completion(1, payload, std::nullopt, 2, kWait),
                Status::Ok);
      // Tell receiver how many messages to expect in total.
      const std::uint64_t total = static_cast<std::uint64_t>(posted) + 1;
      ASSERT_EQ(ph.signal(1, 1000 + total, kWait), Status::Ok);
    } else {
      env.bootstrap.barrier(env.rank);
      std::uint64_t seen = 0;
      std::uint64_t expected = ~0ULL;
      while (seen < expected) {
        ProbeEvent ev;
        ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
        if (ev.id >= 1000)
          expected = ev.id - 1000;
        else
          ++seen;
      }
      EXPECT_EQ(seen, expected);
    }
  });
}

TEST(PhotonPwc, LedgerBackPressureOnSignals) {
  Config cfg = small_config();
  cfg.ledger_entries = 4;
  with_photon(2, cfg, [&](Env& env, Photon& ph) {
    if (env.rank == 0) {
      int posted = 0;
      Status st = Status::Ok;
      while (posted < 100) {
        st = ph.try_signal(1, static_cast<std::uint64_t>(posted));
        if (st != Status::Ok) break;
        ++posted;
      }
      EXPECT_EQ(posted, 4);  // exactly ledger_entries fit
      EXPECT_EQ(st, Status::Retry);
      EXPECT_GE(ph.stats().ledger_stalls, 1u);
      env.bootstrap.barrier(env.rank);
      // Receiver drains; blocking signal goes through.
      ASSERT_EQ(ph.signal(1, 999, kWait), Status::Ok);
    } else {
      env.bootstrap.barrier(env.rank);
      std::uint64_t last = 0;
      for (int i = 0; i < 5; ++i) {
        ProbeEvent ev;
        ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
        last = ev.id;
      }
      EXPECT_EQ(last, 999u);
    }
  });
}

TEST(PhotonGwc, GetPullsDataAndNotifiesTarget) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(2048);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    auto all = ph.exchange_descriptors(desc.value());

    if (env.rank == 1) {
      auto p = pattern(1000, 55);
      std::memcpy(buf.data(), p.data(), p.size());
      env.bootstrap.barrier(env.rank);  // data ready
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 77u);
      EXPECT_TRUE(ev.from_get);
    } else {
      env.bootstrap.barrier(env.rank);
      ASSERT_EQ(ph.get_with_completion(1, local_mut_slice(desc.value(), 0, 1000),
                                       slice(all[1], 0, 1000), 66, 77),
                Status::Ok);
      LocalComplete lc;
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, 66u);
      auto p = pattern(1000, 55);
      EXPECT_EQ(std::memcmp(buf.data(), p.data(), 1000), 0);
    }
  });
}

TEST(PhotonPwc, ErrorsSurfaceViaProbeError) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    // Forging an rkey is deliberate misuse; the sanitizer would (correctly)
    // flag it, but this test is about error surfacing.
    env.nic.checker().set_enabled(false);
    std::vector<std::byte> buf(256);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    auto all = ph.exchange_descriptors(desc.value());
    if (env.rank == 0) {
      // Forge a bad remote key.
      RemoteSlice bad = slice(all[1], 0, 64);
      bad.rkey = 0xdeadbeef;
      ASSERT_EQ(ph.put_with_completion(1, local_slice(desc.value(), 0, 64), bad,
                                       1, std::nullopt),
                Status::Ok);
      util::Deadline dl(kWait);
      std::optional<Status> err;
      while (!err && !dl.expired()) err = ph.probe_error();
      ASSERT_TRUE(err.has_value());
      EXPECT_EQ(*err, Status::InvalidKey);
    }
  });
}

TEST(PhotonPwc, FaultInjectionSurfacesAsError) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    if (env.rank == 0) {
      env.nic.faults().arm(
          {fabric::OpCode::PutImm, Status::FaultInjected, std::nullopt, 1});
      std::vector<std::byte> payload(64);
      ASSERT_EQ(ph.try_send_with_completion(1, payload, 5, 6), Status::Ok);
      util::Deadline dl(kWait);
      std::optional<Status> err;
      while (!err && !dl.expired()) err = ph.probe_error();
      ASSERT_TRUE(err.has_value());
      EXPECT_EQ(*err, Status::FaultInjected);
    }
  });
}

TEST(PhotonPwc, ManyPeersAllToAll) {
  Config cfg = small_config();
  with_photon(4, cfg, [](Env& env, Photon& ph) {
    // Every rank eager-sends one message to every other rank.
    for (std::uint32_t d = 0; d < env.size; ++d) {
      if (d == env.rank) continue;
      std::uint64_t val = env.rank * 100 + d;
      auto bytes = std::as_bytes(std::span<const std::uint64_t, 1>(&val, 1));
      ASSERT_EQ(ph.send_with_completion(d, bytes, std::nullopt, val, kWait),
                Status::Ok);
    }
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i + 1 < env.size; ++i) {
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, ev.peer * 100 + env.rank);
      sum += ev.id;
    }
    std::uint64_t expect = 0;
    for (std::uint32_t s = 0; s < env.size; ++s)
      if (s != env.rank) expect += s * 100 + env.rank;
    EXPECT_EQ(sum, expect);
  });
}

TEST(PhotonPwc, SelfSendLoopback) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    auto payload = pattern(128, 9);
    ASSERT_EQ(ph.send_with_completion(env.rank, payload, 1, 2, kWait),
              Status::Ok);
    ProbeEvent ev;
    ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
    EXPECT_EQ(ev.id, 2u);
    EXPECT_EQ(ev.peer, env.rank);
    LocalComplete lc;
    ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
    EXPECT_EQ(lc.id, 1u);
  });
}

TEST(PhotonPwc, OversizedEagerRejected) {
  with_photon(2, small_config(), [](Env&, Photon& ph) {
    std::vector<std::byte> big(2048);  // threshold is 1024
    EXPECT_EQ(ph.try_send_with_completion(1, big, std::nullopt, 1),
              Status::BadArgument);
  });
}

TEST(PhotonPwc, PutLargerThanSliceRejected) {
  with_photon(2, small_config(), [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(256);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    auto all = ph.exchange_descriptors(desc.value());
    if (env.rank == 0) {
      EXPECT_EQ(ph.try_put_with_completion(1, local_slice(desc.value(), 0, 256),
                                           slice(all[1], 0, 128), 1, 2),
                Status::BadArgument);
    }
  });
}

// Property sweep: payload sizes across the eager range, including the ring
// header alignment edge cases, must round-trip intact.
class EagerSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EagerSizeSweep, RoundTripsIntact) {
  const std::size_t n = GetParam();
  Config cfg = small_config();
  with_photon(2, cfg, [&](Env& env, Photon& ph) {
    if (env.rank == 0) {
      auto payload = pattern(n, static_cast<std::uint8_t>(n * 31));
      ASSERT_EQ(ph.send_with_completion(1, payload, std::nullopt, n, kWait),
                Status::Ok);
    } else {
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, n);
      auto expect = pattern(n, static_cast<std::uint8_t>(n * 31));
      ASSERT_EQ(ev.payload.size(), n);
      if (n != 0) {  // empty vectors may hand memcmp a null pointer (UB)
        EXPECT_EQ(std::memcmp(ev.payload.data(), expect.data(), n), 0);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, EagerSizeSweep,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 17, 63, 64,
                                           100, 255, 256, 512, 1000, 1023,
                                           1024));

// Property sweep: the ledger must behave identically across depths.
class LedgerDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LedgerDepthSweep, SignalsFlowAtEveryDepth) {
  Config cfg = small_config();
  cfg.ledger_entries = GetParam();
  with_photon(2, cfg, [&](Env& env, Photon& ph) {
    constexpr std::uint64_t kN = 50;
    if (env.rank == 0) {
      for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_EQ(ph.signal(1, i, kWait), Status::Ok);
    } else {
      for (std::uint64_t i = 0; i < kN; ++i) {
        ProbeEvent ev;
        ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
        EXPECT_EQ(ev.id, i);  // in order
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Depths, LedgerDepthSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 64));

}  // namespace
}  // namespace photon::core
