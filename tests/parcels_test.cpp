#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "parcels/parcel_engine.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"

namespace photon::parcels {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

enum class Kind { kPhoton, kTwoSided };

/// Build a transport of the requested kind and run the body.
void with_engine(std::uint32_t nranks, Kind kind,
                 const std::function<void(Env&, ParcelEngine&,
                                          HandlerRegistry&)>& setup_and_run) {
  Cluster cluster(quiet_fabric(nranks));
  cluster.run([&](Env& env) {
    HandlerRegistry reg;
    if (kind == Kind::kPhoton) {
      core::Photon ph(env.nic, env.bootstrap, core::Config{});
      PhotonTransport tr(ph);
      ParcelEngine eng(tr, reg);
      setup_and_run(env, eng, reg);
      env.bootstrap.barrier(env.rank);
    } else {
      msg::Engine me(env.nic, env.bootstrap, msg::Config{});
      MsgTransport tr(me);
      ParcelEngine eng(tr, reg);
      setup_and_run(env, eng, reg);
      env.bootstrap.barrier(env.rank);
    }
  });
}

class TransportSweep : public ::testing::TestWithParam<Kind> {};

TEST_P(TransportSweep, PingPongWithReply) {
  with_engine(2, GetParam(), [](Env& env, ParcelEngine& eng,
                                HandlerRegistry& reg) {
    std::atomic<int> pongs{0};
    const HandlerId pong = reg.add([&](Context&) { pongs.fetch_add(1); });
    const HandlerId ping = reg.add([&, pong](Context& ctx) {
      ctx.reply(pong, ctx.args());
    });
    if (env.rank == 0) {
      std::uint64_t v = 99;
      eng.send(1, ping, std::as_bytes(std::span(&v, 1)));
      ASSERT_TRUE(eng.run_until([&] { return pongs.load() == 1; }));
    } else {
      ASSERT_TRUE(eng.run_until([&] { return eng.stats().dispatched >= 1; }));
    }
  });
}

TEST_P(TransportSweep, ArgsArriveIntact) {
  with_engine(2, GetParam(), [](Env& env, ParcelEngine& eng,
                                HandlerRegistry& reg) {
    std::atomic<bool> ok{false};
    const HandlerId check = reg.add([&](Context& ctx) {
      auto expect = pattern(777, 3);
      ok.store(ctx.args().size() == expect.size() &&
               std::memcmp(ctx.args().data(), expect.data(), expect.size()) ==
                   0);
    });
    if (env.rank == 0) {
      eng.send(1, check, pattern(777, 3));
      // Keep progressing so the transport can finish protocol work.
      eng.run_until([&] { return true; });
      env.bootstrap.barrier(env.rank);
    } else {
      ASSERT_TRUE(eng.run_until([&] { return eng.stats().dispatched >= 1; }));
      EXPECT_TRUE(ok.load());
      env.bootstrap.barrier(env.rank);
    }
  });
}

TEST_P(TransportSweep, LargeParcelBody) {
  with_engine(2, GetParam(), [](Env& env, ParcelEngine& eng,
                                HandlerRegistry& reg) {
    constexpr std::size_t kBytes = 200'000;  // rendezvous path
    std::atomic<bool> ok{false};
    const HandlerId check = reg.add([&](Context& ctx) {
      auto expect = pattern(kBytes, 8);
      ok.store(ctx.args().size() == kBytes &&
               std::memcmp(ctx.args().data(), expect.data(), kBytes) == 0);
    });
    if (env.rank == 0) {
      eng.send(1, check, pattern(kBytes, 8));
      env.bootstrap.barrier(env.rank);  // receiver confirms dispatch below
      // Drive protocol completion (FIN) while the peer pulls the body.
      eng.run_until([&] { return true; });
    } else {
      ASSERT_TRUE(eng.run_until([&] { return eng.stats().dispatched >= 1; }));
      EXPECT_TRUE(ok.load());
      env.bootstrap.barrier(env.rank);
    }
  });
}

TEST_P(TransportSweep, FanOutFanIn) {
  with_engine(4, GetParam(), [](Env& env, ParcelEngine& eng,
                                HandlerRegistry& reg) {
    std::atomic<std::uint64_t> sum{0};
    std::atomic<int> acks{0};
    const HandlerId ack = reg.add([&](Context&) { acks.fetch_add(1); });
    const HandlerId work = reg.add([&, ack](Context& ctx) {
      std::uint64_t v;
      std::memcpy(&v, ctx.args().data(), 8);
      sum.fetch_add(v);
      ctx.reply(ack, {});
    });
    if (env.rank == 0) {
      for (std::uint32_t d = 1; d < env.size; ++d) {
        std::uint64_t v = d * 11;
        eng.send(d, work, std::as_bytes(std::span(&v, 1)));
      }
      ASSERT_TRUE(eng.run_until([&] { return acks.load() == 3; }));
    } else {
      ASSERT_TRUE(eng.run_until([&] { return eng.stats().dispatched >= 1; }));
      EXPECT_EQ(sum.load(), env.rank * 11ull);
    }
  });
}

TEST_P(TransportSweep, ChainedSpawnAroundRing) {
  with_engine(4, GetParam(), [](Env& env, ParcelEngine& eng,
                                HandlerRegistry& reg) {
    std::atomic<bool> done{false};
    HandlerId hop = 0;
    hop = reg.add([&](Context& ctx) {
      std::uint64_t hops;
      std::memcpy(&hops, ctx.args().data(), 8);
      if (hops == 0) {
        done.store(true);
        return;
      }
      --hops;
      ctx.spawn((ctx.rank() + 1) % ctx.size(), hop,
                std::as_bytes(std::span(&hops, 1)));
    });
    if (env.rank == 0) {
      std::uint64_t hops = 8;  // two full laps on 4 ranks
      eng.send(1, hop, std::as_bytes(std::span(&hops, 1)));
    }
    // The token visits ranks 1,2,3,0,1,2,3,0,1 and terminates on rank 1
    // with hops==0; every other rank dispatches it exactly twice.
    if (env.rank == 1) {
      ASSERT_TRUE(eng.run_until([&] { return done.load(); }));
    } else {
      ASSERT_TRUE(eng.run_until([&] { return eng.stats().dispatched >= 2; }));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportSweep,
                         ::testing::Values(Kind::kPhoton, Kind::kTwoSided));

TEST(ParcelEngine, UnregisteredHandlerThrows) {
  with_engine(2, Kind::kPhoton, [](Env& env, ParcelEngine& eng,
                                   HandlerRegistry&) {
    if (env.rank == 0) {
      eng.send(1, 42, {});  // no handler 42 registered
      env.bootstrap.barrier(env.rank);
    } else {
      util::Deadline dl(2'000'000'000ULL);
      bool threw = false;
      while (!dl.expired()) {
        try {
          eng.progress();
        } catch (const std::runtime_error&) {
          threw = true;
          break;
        }
      }
      EXPECT_TRUE(threw);
      env.bootstrap.barrier(env.rank);
    }
  });
}

TEST(ParcelEngine, DispatchChargesVirtualTime) {
  Cluster cluster(photon::testing::timed_fabric(2));
  cluster.run([&](Env& env) {
    HandlerRegistry reg;
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    PhotonTransport tr(ph);
    EngineConfig cfg;
    cfg.dispatch_cost_ns = 1000;
    ParcelEngine eng(tr, reg, cfg);
    const HandlerId h = reg.add([](Context&) {});
    if (env.rank == 0) {
      for (int i = 0; i < 10; ++i) eng.send(1, h, {});
    } else {
      const std::uint64_t t0 = env.clock().now();
      ASSERT_TRUE(eng.run_until([&] { return eng.stats().dispatched >= 10; }));
      EXPECT_GE(env.clock().now() - t0, 10 * 1000u);
    }
    env.bootstrap.barrier(env.rank);
  });
}

}  // namespace
}  // namespace photon::parcels
