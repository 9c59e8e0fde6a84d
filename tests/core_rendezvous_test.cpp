#include <gtest/gtest.h>

#include <cstring>

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

constexpr std::uint64_t kWait = 2'000'000'000ULL;

void with_photon(std::uint32_t nranks,
                 const std::function<void(Env&, Photon&)>& body) {
  Cluster cluster(quiet_fabric(nranks));
  cluster.run([&](Env& env) {
    Photon ph(env.nic, env.bootstrap, Config{});
    body(env, ph);
    env.bootstrap.barrier(env.rank);
  });
}

TEST(PhotonRendezvous, RecvBufferRqOsPutFin) {
  constexpr std::size_t kBytes = 1u << 20;  // 1 MiB, way past eager
  with_photon(2, [&](Env& env, Photon& ph) {
    std::vector<std::byte> buf(kBytes);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    ASSERT_TRUE(desc.ok());

    if (env.rank == 1) {
      // Receiver: advertise, then wait for FIN.
      auto rq = ph.post_recv_buffer_rq(0, desc.value(), /*tag=*/42);
      ASSERT_TRUE(rq.ok());
      ASSERT_EQ(ph.wait(rq.value(), kWait), Status::Ok);
      auto expect = pattern(kBytes, 17);
      EXPECT_EQ(std::memcmp(buf.data(), expect.data(), kBytes), 0);
    } else {
      auto p = pattern(kBytes, 17);
      std::memcpy(buf.data(), p.data(), kBytes);
      auto rb = ph.wait_send_rq(1, 42, kWait);
      ASSERT_TRUE(rb.ok());
      EXPECT_EQ(rb.value().size, kBytes);
      auto put = ph.post_os_put(1, local_slice(desc.value(), 0, kBytes),
                                rb.value());
      ASSERT_TRUE(put.ok());
      ASSERT_EQ(ph.wait(put.value(), kWait), Status::Ok);
      ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);
    }
  });
}

TEST(PhotonRendezvous, SendBufferRqOsGetFin) {
  constexpr std::size_t kBytes = 300000;
  with_photon(2, [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(kBytes);
    auto desc = ph.register_buffer(buf.data(), buf.size());

    if (env.rank == 0) {
      // Data source: advertise our buffer, wait until the peer has read it.
      auto p = pattern(kBytes, 5);
      std::memcpy(buf.data(), p.data(), kBytes);
      auto rq = ph.post_send_buffer_rq(1, desc.value(), 7);
      ASSERT_TRUE(rq.ok());
      ASSERT_EQ(ph.wait(rq.value(), kWait), Status::Ok);
    } else {
      auto rb = ph.wait_recv_rq(0, 7, kWait);
      ASSERT_TRUE(rb.ok());
      EXPECT_TRUE(rb.value().get_side);
      auto get = ph.post_os_get(0, local_mut_slice(desc.value(), 0, kBytes),
                                rb.value());
      ASSERT_TRUE(get.ok());
      ASSERT_EQ(ph.wait(get.value(), kWait), Status::Ok);
      auto expect = pattern(kBytes, 5);
      EXPECT_EQ(std::memcmp(buf.data(), expect.data(), kBytes), 0);
      ASSERT_EQ(ph.send_fin(0, rb.value()), Status::Ok);
    }
  });
}

TEST(PhotonRendezvous, TagsKeepStreamsSeparate) {
  with_photon(2, [](Env& env, Photon& ph) {
    std::vector<std::byte> a(65536), b(65536);
    auto da = ph.register_buffer(a.data(), a.size());
    auto db = ph.register_buffer(b.data(), b.size());

    if (env.rank == 1) {
      // Advertise tag 2 first, then tag 1; sender asks for 1 first.
      auto rq2 = ph.post_recv_buffer_rq(0, db.value(), 2);
      auto rq1 = ph.post_recv_buffer_rq(0, da.value(), 1);
      ASSERT_TRUE(rq1.ok());
      ASSERT_TRUE(rq2.ok());
      ASSERT_EQ(ph.wait(rq1.value(), kWait), Status::Ok);
      ASSERT_EQ(ph.wait(rq2.value(), kWait), Status::Ok);
      EXPECT_EQ(static_cast<std::uint8_t>(a[0]), 1);
      EXPECT_EQ(static_cast<std::uint8_t>(b[0]), 2);
    } else {
      for (std::uint64_t tag : {1, 2}) {
        auto rb = ph.wait_send_rq(1, tag, kWait);
        ASSERT_TRUE(rb.ok());
        std::vector<std::byte> payload(65536, static_cast<std::byte>(tag));
        auto src = ph.register_buffer(payload.data(), payload.size());
        auto put = ph.post_os_put(1, local_slice(src.value(), 0, payload.size()),
                                  rb.value());
        ASSERT_TRUE(put.ok());
        ASSERT_EQ(ph.wait(put.value(), kWait), Status::Ok);
        ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);
      }
    }
  });
}

TEST(PhotonRendezvous, TakenAdvertsLeaveNoPerTagState) {
  // Every rendezvous uses a fresh tag; once each advert is taken the core
  // must hold no per-(peer, tag) state, or unique tags grow memory forever.
  constexpr std::uint64_t kTags = 64;
  constexpr std::size_t kWindow = 64;
  with_photon(2, [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(kTags * kWindow);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    ASSERT_TRUE(desc.ok());
    if (env.rank == 1) {
      std::vector<RequestId> rqs;
      for (std::uint64_t tag = 0; tag < kTags; ++tag) {
        BufferDescriptor window = desc.value();  // one window per advert
        window.addr += tag * kWindow;
        window.size = kWindow;
        auto rq = ph.post_recv_buffer_rq(0, window, 1000 + tag);
        ASSERT_TRUE(rq.ok());
        rqs.push_back(rq.value());
      }
      for (RequestId rq : rqs) ASSERT_EQ(ph.wait(rq, kWait), Status::Ok);
    } else {
      for (std::uint64_t tag = 0; tag < kTags; ++tag) {
        auto rb = ph.wait_send_rq(1, 1000 + tag, kWait);
        ASSERT_TRUE(rb.ok());
        ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);  // zero-byte transfer
      }
      EXPECT_EQ(ph.pending_advert_tags(), 0u);
    }
  });
}

TEST(PhotonRendezvous, WildcardTagMatchesAnyAdvert) {
  with_photon(2, [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    if (env.rank == 1) {
      auto rq = ph.post_recv_buffer_rq(0, desc.value(), 1234);
      ASSERT_TRUE(rq.ok());
      ASSERT_EQ(ph.wait(rq.value(), kWait), Status::Ok);
    } else {
      auto rb = ph.wait_send_rq(1, Photon::kAnyTag, kWait);
      ASSERT_TRUE(rb.ok());
      EXPECT_EQ(rb.value().tag, 1234u);
      auto put = ph.post_os_put(1, local_slice(desc.value(), 0, 16), rb.value());
      ASSERT_TRUE(put.ok());
      ASSERT_EQ(ph.wait(put.value(), kWait), Status::Ok);
      ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);
    }
  });
}

TEST(PhotonRendezvous, TestIsNonBlockingAndConsumes) {
  with_photon(2, [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    if (env.rank == 1) {
      auto rq = ph.post_recv_buffer_rq(0, desc.value(), 9);
      ASSERT_TRUE(rq.ok());
      bool done = false;
      // Must not block while pending.
      ASSERT_EQ(ph.test(rq.value(), done), Status::Ok);
      env.bootstrap.barrier(env.rank);  // sender proceeds
      util::Deadline dl(kWait);
      while (!done && !dl.expired())
        ASSERT_EQ(ph.test(rq.value(), done), Status::Ok);
      EXPECT_TRUE(done);
      // Consumed: further test() is an error.
      EXPECT_EQ(ph.test(rq.value(), done), Status::BadArgument);
    } else {
      env.bootstrap.barrier(env.rank);
      auto rb = ph.wait_send_rq(1, 9, kWait);
      ASSERT_TRUE(rb.ok());
      ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);  // zero-byte transfer
    }
  });
}

TEST(PhotonRendezvous, AdvertLargerThanNeededAllowsPartialPut) {
  with_photon(2, [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(8192);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    if (env.rank == 1) {
      auto rq = ph.post_recv_buffer_rq(0, desc.value(), 5);
      ASSERT_TRUE(rq.ok());
      ASSERT_EQ(ph.wait(rq.value(), kWait), Status::Ok);
      auto expect = pattern(100, 1);
      EXPECT_EQ(std::memcmp(buf.data(), expect.data(), 100), 0);
    } else {
      auto rb = ph.wait_send_rq(1, 5, kWait);
      ASSERT_TRUE(rb.ok());
      auto p = pattern(100, 1);
      std::memcpy(buf.data(), p.data(), 100);
      auto put = ph.post_os_put(1, local_slice(desc.value(), 0, 100), rb.value());
      ASSERT_TRUE(put.ok());
      ASSERT_EQ(ph.wait(put.value(), kWait), Status::Ok);
      ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);
    }
  });
}

TEST(PhotonRendezvous, OsPutBiggerThanAdvertRejected) {
  with_photon(2, [](Env& env, Photon& ph) {
    std::vector<std::byte> buf(16384);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    if (env.rank == 1) {
      BufferDescriptor small = desc.value();
      small.size = 64;
      auto rq = ph.post_recv_buffer_rq(0, small, 3);
      ASSERT_TRUE(rq.ok());
      env.bootstrap.barrier(env.rank);
      // The peer's oversized put was rejected, but it FINs the advert anyway
      // so the rendezvous window retires cleanly before teardown.
      ASSERT_EQ(ph.wait(rq.value(), kWait), Status::Ok);
    } else {
      auto rb = ph.wait_send_rq(1, 3, kWait);
      ASSERT_TRUE(rb.ok());
      auto put = ph.post_os_put(1, local_slice(desc.value(), 0, 4096), rb.value());
      EXPECT_EQ(put.status(), Status::BadArgument);
      // Close the advert with an empty transfer: FIN without a put.
      ASSERT_EQ(ph.send_fin(1, rb.value()), Status::Ok);
      env.bootstrap.barrier(env.rank);
    }
  });
}

TEST(PhotonRendezvous, UnknownRequestIdIsBadArgument) {
  with_photon(2, [](Env&, Photon& ph) {
    bool done;
    EXPECT_EQ(ph.test(0xDEAD, done), Status::BadArgument);
  });
}

}  // namespace
}  // namespace photon::core
