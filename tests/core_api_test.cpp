// API-surface tests: wait_any, blocking-wait timeouts, backend calibrations,
// registration edge cases, misuse handling, and posts the NIC rejects.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>

#include "check/hooks.hpp"
#include "core/photon.hpp"
#include "fabric/calibrations.hpp"
#include "msg/engine.hpp"
#include "parcels/parcel_engine.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"
#include "util/timing.hpp"

namespace photon::core {
namespace {

using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

constexpr std::uint64_t kWait = 3'000'000'000ULL;

void with_photon(std::uint32_t nranks,
                 const std::function<void(Env&, Photon&)>& body) {
  Cluster cluster(quiet_fabric(nranks));
  cluster.run([&](Env& env) {
    Photon ph(env.nic, env.bootstrap, Config{});
    body(env, ph);
    env.bootstrap.barrier(env.rank);
  });
}

TEST(WaitAny, ReturnsFirstCompletedAndConsumesOnlyIt) {
  with_photon(2, [](Env& env, Photon& ph) {
    std::vector<std::byte> a(32768), b(32768);
    auto da = ph.register_buffer(a.data(), a.size()).value();
    auto db = ph.register_buffer(b.data(), b.size()).value();
    if (env.rank == 1) {
      auto r1 = ph.post_recv_buffer_rq(0, da, 1);
      auto r2 = ph.post_recv_buffer_rq(0, db, 2);
      ASSERT_TRUE(r1.ok());
      ASSERT_TRUE(r2.ok());
      std::array<RequestId, 2> rqs{r1.value(), r2.value()};
      // The peer serves tag 2 first: index 1 completes first.
      auto idx = ph.wait_any(rqs, kWait);
      ASSERT_TRUE(idx.ok());
      EXPECT_EQ(idx.value(), 1u);
      env.bootstrap.barrier(env.rank);  // release the peer to serve tag 1
      // The other request is still live and completes later.
      ASSERT_EQ(ph.wait(rqs[0], kWait), Status::Ok);
    } else {
      for (std::uint64_t tag : {2, 1}) {
        auto rb = ph.wait_send_rq(1, tag, kWait);
        ASSERT_TRUE(rb.ok());
        ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);
        if (tag == 2) env.bootstrap.barrier(env.rank);  // let 2 land first
      }
    }
  });
}

TEST(WaitAny, EmptySetIsBadArgument) {
  with_photon(2, [](Env&, Photon& ph) {
    EXPECT_EQ(ph.wait_any({}, 1000).status(), Status::BadArgument);
  });
}

TEST(WaitAny, UnknownRequestIsBadArgument) {
  with_photon(2, [](Env&, Photon& ph) {
    std::array<RequestId, 1> rqs{0xDEAD};
    EXPECT_EQ(ph.wait_any(rqs, 1000).status(), Status::BadArgument);
  });
}

TEST(BackendCalibrations, ProfilesAreOrderedSensibly) {
  using fabric::Backend;
  const auto verbs = fabric::backend_calibration(Backend::kVerbs);
  const auto ugni = fabric::backend_calibration(Backend::kUgni);
  const auto sockets = fabric::backend_calibration(Backend::kSockets);
  EXPECT_LT(ugni.latency_ns, verbs.latency_ns);
  EXPECT_LT(verbs.latency_ns, sockets.latency_ns);
  EXPECT_LT(verbs.send_overhead_ns, sockets.send_overhead_ns);
  EXPECT_LT(verbs.per_byte_ns, sockets.per_byte_ns);
}

TEST(BackendCalibrations, NamesRoundTrip) {
  using fabric::Backend;
  for (auto b : {Backend::kVerbs, Backend::kUgni, Backend::kSockets})
    EXPECT_EQ(fabric::backend_from_name(fabric::backend_name(b)), b);
  EXPECT_THROW(fabric::backend_from_name("quantum"), std::invalid_argument);
}

TEST(BackendCalibrations, SocketsBackendStillDeliversPwc) {
  fabric::FabricConfig cfg;
  cfg.nranks = 2;
  cfg.wire = fabric::backend_calibration(fabric::Backend::kSockets);
  Cluster cluster(cfg);
  cluster.run([&](Env& env) {
    Photon ph(env.nic, env.bootstrap, Config{});
    if (env.rank == 0) {
      std::uint64_t v = 11;
      ASSERT_EQ(ph.send_with_completion(1, std::as_bytes(std::span(&v, 1)),
                                        std::nullopt, 5, kWait),
                Status::Ok);
    } else {
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 5u);
      // Socket-class latency must show in the arrival time.
      EXPECT_GE(env.clock().now(), 25'000u);
    }
    env.bootstrap.barrier(env.rank);
  });
}

TEST(Registration, UnregisterInvalidatesDescriptor) {
  with_photon(2, [](Env& env, Photon& ph) {
    // This test exercises deliberate misuse (double unregister, dead
    // descriptor); keep the protocol sanitizer out of the way.
    env.nic.checker().set_enabled(false);
    std::vector<std::byte> buf(256);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    ASSERT_EQ(ph.unregister_buffer(desc), Status::Ok);
    EXPECT_EQ(ph.unregister_buffer(desc), Status::InvalidKey);
    if (env.rank == 0) {
      // Local use of the dead descriptor fails synchronously.
      EXPECT_EQ(ph.try_put_with_completion(1, local_slice(desc, 0, 64),
                                           RemoteSlice{desc.addr, 64, desc.rkey},
                                           std::nullopt, std::nullopt),
                Status::InvalidKey);
    }
  });
}

TEST(Registration, RemoteUseOfDeadRkeyIsAsyncError) {
  with_photon(2, [](Env& env, Photon& ph) {
    // Deliberate use of a torn-down rkey; the sanitizer would (correctly)
    // flag it, but this test is about the async error path.
    env.nic.checker().set_enabled(false);
    std::vector<std::byte> buf(256);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);
    // Target side tears its buffer down after publishing.
    if (env.rank == 1) ph.unregister_buffer(desc);
    env.bootstrap.barrier(env.rank);
    if (env.rank == 0) {
      ASSERT_EQ(ph.put_with_completion(1, local_slice(desc, 0, 64),
                                       slice(peers[1], 0, 64), std::nullopt,
                                       std::nullopt, kWait),
                Status::Ok);
      util::Deadline dl(kWait);
      std::optional<Status> err;
      while (!err && !dl.expired()) err = ph.probe_error();
      ASSERT_TRUE(err.has_value());
      EXPECT_EQ(*err, Status::InvalidKey);
    }
    env.bootstrap.barrier(env.rank);
  });
}

TEST(Misuse, BadRankArgumentsRejected) {
  with_photon(2, [](Env&, Photon& ph) {
    std::vector<std::byte> p(8);
    EXPECT_EQ(ph.try_send_with_completion(99, p, std::nullopt, 1),
              Status::BadArgument);
    EXPECT_EQ(ph.try_signal(99, 1), Status::BadArgument);
    EXPECT_EQ(ph.post_recv_buffer_rq(99, BufferDescriptor{}, 1).status(),
              Status::BadArgument);
  });
}

TEST(Flush, DrainsInFlightOpsAndDeferredNotifies) {
  Cluster cluster(photon::testing::timed_fabric(2));
  cluster.run([&](Env& env) {
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(8192);
    auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    auto peers = ph.exchange_descriptors(desc);
    if (env.rank == 0) {
      // A batch of signed puts plus a GWC whose notify is deferred work.
      for (std::uint64_t i = 0; i < 16; ++i)
        ASSERT_EQ(ph.put_with_completion(1, local_slice(desc, 0, 512),
                                         slice(peers[1], 0, 512), i,
                                         std::nullopt, kWait),
                  Status::Ok);
      ASSERT_EQ(ph.get_with_completion(1, local_mut_slice(desc, 0, 512),
                                       slice(peers[1], 0, 512), 99, 100, kWait),
                Status::Ok);
      ASSERT_EQ(ph.flush(1, kWait), Status::Ok);
      EXPECT_EQ(env.nic.in_flight(1), 0u);
      // All local ids are now waiting in the probe queue.
      std::size_t locals = 0;
      while (ph.probe_local()) ++locals;
      EXPECT_EQ(locals, 17u);
    } else {
      // The GWC notify must arrive (flush pushed the deferred signal out).
      ProbeEvent ev;
      ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      EXPECT_EQ(ev.id, 100u);
      EXPECT_TRUE(ev.from_get);
    }
    env.bootstrap.barrier(env.rank);
  });
}

TEST(Flush, BadRankRejected) {
  with_photon(2, [](Env&, Photon& ph) {
    EXPECT_EQ(ph.flush(99, 1000), Status::BadArgument);
  });
}

// Under a zero budget, with nothing able to arrive in time, each blocking
// wait gives up after one poll with its own timeout status.
TEST(BlockingWaits, TimeoutStatusesAreUnchanged) {
  Cluster cluster(photon::testing::timed_fabric(2));
  cluster.run(photon::testing::abort_on_fatal_failure([](Env& env) {
    Photon ph(env.nic, env.bootstrap, Config{});
    std::vector<std::byte> buf(4096);
    const auto desc = ph.register_buffer(buf.data(), buf.size()).value();
    const auto peers = ph.exchange_descriptors(desc);
    const fabric::Rank peer = env.rank ^ 1u;
    LocalComplete lc;
    ProbeEvent ev;
    EXPECT_EQ(ph.wait_local(lc, 0), Status::NotFound);
    EXPECT_EQ(ph.wait_event(ev, 0), Status::NotFound);
    EXPECT_EQ(ph.wait_send_rq(peer, 99, 0).status(), Status::NotFound);
    if (env.rank == 1) {
      // The request completes only on the FIN rank 0 sends after the barrier.
      const auto rq = ph.post_recv_buffer_rq(0, desc, 1);
      ASSERT_TRUE(rq.ok());
      const std::array<RequestId, 1> rqs{rq.value()};
      EXPECT_EQ(ph.wait(rqs[0], 0), Status::NotFound);
      EXPECT_EQ(ph.wait_any(rqs, 0).status(), Status::NotFound);
      env.bootstrap.barrier(env.rank);
      EXPECT_EQ(ph.wait(rqs[0], kWait), Status::Ok);
    } else {
      env.bootstrap.barrier(env.rank);
      const auto rb = ph.wait_send_rq(1, 1, kWait);
      ASSERT_TRUE(rb.ok());
      ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);
      // A put's completion lands in the virtual future of its post.
      ASSERT_EQ(ph.put_with_completion(1, local_slice(desc, 0, 64),
                                       slice(peers[1], 2048, 64), 7,
                                       std::nullopt, kWait),
                Status::Ok);
      EXPECT_EQ(env.nic.in_flight(1), 1u);
      EXPECT_EQ(ph.flush(1, 0), Status::Retry);
      EXPECT_EQ(ph.quiesce(0), Status::Retry);
      EXPECT_EQ(ph.flush(1, kWait), Status::Ok);
      EXPECT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, 7u);
    }
    env.bootstrap.barrier(env.rank);
  }));

  Cluster msg_cluster(quiet_fabric(2));
  msg_cluster.run(photon::testing::abort_on_fatal_failure([](Env& env) {
    msg::Engine eng(env.nic, env.bootstrap, msg::Config{});
    std::vector<std::byte> out(64);
    if (env.rank == 1) {
      const auto rq = eng.irecv(0, 5, out);
      ASSERT_TRUE(rq.ok());
      EXPECT_EQ(eng.wait(rq.value(), nullptr, 0), Status::NotFound);
      env.bootstrap.barrier(env.rank);
      EXPECT_EQ(eng.wait(rq.value(), nullptr, kWait), Status::Ok);
    } else {
      env.bootstrap.barrier(env.rank);
      EXPECT_EQ(eng.send(1, 5, out, kWait), Status::Ok);
    }
    env.bootstrap.barrier(env.rank);
  }));

  Cluster parcel_cluster(quiet_fabric(2));
  parcel_cluster.run([](Env& env) {
    Photon ph(env.nic, env.bootstrap, Config{});
    parcels::PhotonTransport tr(ph);
    parcels::HandlerRegistry reg;
    parcels::ParcelEngine eng(tr, reg);
    EXPECT_FALSE(eng.run_until([] { return false; }, 0));
    env.bootstrap.barrier(env.rank);
  });
}

TEST(TwoCellRead, RejectsBadSlicesAndPostsNothing) {
  with_photon(2, [](Env& env, Photon& ph) {
    std::array<std::uint64_t, 4> cells{0, 11, 22, 0};
    auto desc = ph.register_buffer(cells.data(), sizeof(cells)).value();
    auto peers = ph.exchange_descriptors(desc);
    if (env.rank == 0) {
      const std::uint64_t atomics = ph.stats().atomics;
      const std::uint64_t gets = env.nic.counters().gets.load();
      for (const RemoteSlice bad :
           {slice(peers[1], 8, 8), slice(peers[1], 8, 24),
            slice(peers[1], 4, 16), slice(peers[1], 12, 16)}) {
        EXPECT_EQ(ph.try_get_u64x2(1, bad, 1), Status::BadArgument);
        EXPECT_EQ(ph.get_u64x2(1, bad, kWait).status(), Status::BadArgument);
      }
      EXPECT_EQ(ph.stats().atomics, atomics);
      EXPECT_EQ(env.nic.in_flight(1), 0u);
      ph.progress();
      EXPECT_FALSE(ph.probe_local().has_value());
      EXPECT_FALSE(ph.probe_error().has_value());
      EXPECT_EQ(env.nic.counters().gets.load(), gets);

      // A well-formed read of the same region returns both words and
      // counts once.
      auto r = ph.get_u64x2(1, slice(peers[1], 8, 16), kWait);
      ASSERT_TRUE(r.ok()) << status_name(r.status());
      EXPECT_EQ(r.value()[0], 11u);
      EXPECT_EQ(r.value()[1], 22u);
      EXPECT_EQ(ph.stats().atomics, atomics + 1);
      EXPECT_EQ(env.nic.counters().gets.load(), gets + 1);
    }
    env.bootstrap.barrier(env.rank);
  });
}

TEST(TwoCellRead, FirstCellIsReadBeforeTheSecond) {
  // Rank 1 release-stores value = i, then tag = i, into its own {tag,
  // value} pair; rank 0's two-word reads must never return tag = i with
  // value < i. Reading the value first would return the previous value
  // whenever the writer runs both stores between the two loads.
  constexpr int kReads = 20'000;  // at least this many reads ...
  constexpr int kMoves = 20;      // ... that saw the writer move this often
  std::atomic<bool> done{false};
  with_photon(2, [&](Env& env, Photon& ph) {
    alignas(16) std::array<std::uint64_t, 2> cells{0, 0};  // {tag, value}
    auto desc = ph.register_buffer(cells.data(), sizeof(cells)).value();
    auto peers = ph.exchange_descriptors(desc);
    if (env.rank == 1) {
      std::atomic_ref<std::uint64_t> tag(cells[0]);
      std::atomic_ref<std::uint64_t> value(cells[1]);
      for (std::uint64_t i = 1; !done.load(std::memory_order_acquire); ++i) {
        value.store(i, std::memory_order_release);
        tag.store(i, std::memory_order_release);
      }
    } else {
      int torn = 0;
      int moving = 0;
      std::uint64_t last_tag = 0;
      util::Deadline dl(kWait);  // a starved writer thread must not hang us
      for (int n = 0; (n < kReads || moving < kMoves) && !dl.expired(); ++n) {
        auto r = ph.get_u64x2(1, slice(peers[1], 0, 16), kWait);
        ASSERT_TRUE(r.ok()) << status_name(r.status());
        const auto [tag, value] = r.value();
        if (value < tag) ++torn;
        if (tag != last_tag) ++moving;
        last_tag = tag;
      }
      done.store(true, std::memory_order_release);
      EXPECT_EQ(torn, 0) << "reads returned a tag ahead of its value";
      EXPECT_GE(moving, kMoves) << "the writer barely ran during the reads";
    }
    env.bootstrap.barrier(env.rank);
  });
}

// ---- post path ----------------------------------------------------------------

/// Collect violations when PhotonCheck is compiled in and enabled.
bool collect_violations(check::Checker& ck) {
  if (!PHOTON_CHECK_ENABLED || !ck.enabled()) return false;
  ck.set_mode(check::Mode::kCollect);
  return true;
}

// A post the NIC rejects synchronously returns the NIC's status and leaves
// neither an op record nor a shadow op: the same local id posted again
// completes as its own, PhotonCheck reports nothing but the class-4
// re-report of a stale local slice, and finalize finds no leaked op. A stale
// lkey rejects put, get, os_put and os_get; a 4-byte inline cap rejects the
// ledger signal and put_u64. Eager sends, cell ops and buffer adverts post
// from Photon's own slab, so nothing a caller passes makes the NIC refuse
// them; they share the post sequence (post_op, PostGuard) exercised here.
TEST(PostPath, RejectedPostsLeaveNoOpOrCheckerRecord) {
  Cluster cluster(quiet_fabric(1));
  cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    const bool checking = collect_violations(ck);
    const auto expect_reports = [&](std::size_t bad_slices) {
      if (!checking) return;
      const auto v = ck.take_violations();
      EXPECT_EQ(v.size(), bad_slices);
      for (const auto& x : v) EXPECT_EQ(x.kind, check::ViolationKind::kBadSlice);
    };
    {
      Photon ph(env.nic, env.bootstrap, Config{});
      std::vector<std::byte> buf(4096), win(4096), gone(256);
      const auto desc = ph.register_buffer(buf.data(), buf.size()).value();
      const auto wdesc = ph.register_buffer(win.data(), win.size()).value();
      const auto dead = ph.register_buffer(gone.data(), gone.size()).value();
      ASSERT_EQ(ph.unregister_buffer(dead), Status::Ok);
      const auto completes_as = [&](std::uint64_t id) {
        LocalComplete lc;
        ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
        EXPECT_EQ(lc.id, id);
        EXPECT_EQ(lc.status, Status::Ok);
      };

      EXPECT_EQ(ph.try_put_with_completion(0, local_slice(dead, 0, 64),
                                           slice(desc, 1024, 64), 1,
                                           std::nullopt),
                Status::InvalidKey);
      expect_reports(1);
      ASSERT_EQ(ph.try_put_with_completion(0, local_slice(desc, 0, 64),
                                           slice(desc, 1024, 64), 1,
                                           std::nullopt),
                Status::Ok);
      completes_as(1);

      EXPECT_EQ(ph.try_get_with_completion(0, local_mut_slice(dead, 0, 64),
                                           slice(desc, 1024, 64), 2,
                                           std::nullopt),
                Status::InvalidKey);
      expect_reports(1);
      ASSERT_EQ(ph.try_get_with_completion(0, local_mut_slice(desc, 0, 64),
                                           slice(desc, 1024, 64), 2,
                                           std::nullopt),
                Status::Ok);
      completes_as(2);

      // os_put / os_get into / out of this rank's own advertised window.
      const auto rendezvous = [&](bool get_side, auto&& post_os) {
        auto adv = get_side ? ph.post_send_buffer_rq(0, wdesc, 3)
                            : ph.post_recv_buffer_rq(0, wdesc, 3);
        ASSERT_TRUE(adv.ok());
        auto rb = get_side ? ph.wait_recv_rq(0, 3, kWait)
                           : ph.wait_send_rq(0, 3, kWait);
        ASSERT_TRUE(rb.ok());
        EXPECT_EQ(post_os(dead, rb.value()).status(), Status::InvalidKey);
        expect_reports(1);
        auto rq = post_os(desc, rb.value());
        ASSERT_TRUE(rq.ok());
        EXPECT_EQ(ph.wait(rq.value(), kWait), Status::Ok);
        ASSERT_EQ(ph.send_fin(0, rb.value()), Status::Ok);
        EXPECT_EQ(ph.wait(adv.value(), kWait), Status::Ok);
      };
      rendezvous(false, [&](const BufferDescriptor& d, const RendezvousBuffer& rb) {
        return ph.post_os_put(0, local_slice(d, 0, 64), rb);
      });
      rendezvous(true, [&](const BufferDescriptor& d, const RendezvousBuffer& rb) {
        return ph.post_os_get(0, local_mut_slice(d, 0, 64), rb);
      });
      expect_reports(0);
    }
    expect_reports(0);  // finalize: no leaked op
  });

  fabric::FabricConfig capped = quiet_fabric(1);
  capped.nic.max_inline = 4;  // below a ledger entry and a put_u64 cell
  Cluster inline_cluster(capped);
  inline_cluster.run([&](Env& env) {
    auto& ck = env.nic.checker();
    const bool checking = collect_violations(ck);
    {
      Photon ph(env.nic, env.bootstrap, Config{});
      std::vector<std::byte> buf(4096);
      const auto desc = ph.register_buffer(buf.data(), buf.size()).value();
      EXPECT_EQ(ph.try_signal(0, 9), Status::BadArgument);
      EXPECT_EQ(ph.try_put_u64(0, slice(desc, 1024, 8), 5, 4, std::nullopt),
                Status::BadArgument);
      // A leaked put_u64 shadow op would make this reuse of id 4 a
      // duplicate; a leaked op record would never complete.
      ASSERT_EQ(ph.try_put_with_completion(0, local_slice(desc, 0, 64),
                                           slice(desc, 1024, 64), 4,
                                           std::nullopt),
                Status::Ok);
      LocalComplete lc;
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      EXPECT_EQ(lc.id, 4u);
      ph.progress();
      EXPECT_FALSE(ph.probe_event().has_value());  // the rejected signal
    }
    if (checking) {
      EXPECT_TRUE(ck.take_violations().empty());
    }
  });
}

}  // namespace
}  // namespace photon::core
