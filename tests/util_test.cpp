#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/expected.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/spsc_ring.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/sync_queue.hpp"
#include "util/timing.hpp"

namespace photon {
namespace {

TEST(Status, NamesAreDistinctAndStable) {
  // Round-trip every enumerator: each code in [0, kStatusCount) must have a
  // distinct real name, and the first code past the end must not.
  std::set<std::string_view> names;
  for (int i = 0; i < kStatusCount; ++i) {
    const std::string_view n = status_name(static_cast<Status>(i));
    EXPECT_FALSE(n.empty()) << "code " << i;
    EXPECT_NE(n, "UnknownStatus") << "code " << i;
    names.insert(n);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kStatusCount));
  EXPECT_EQ(status_name(Status::Ok), "Ok");
  EXPECT_EQ(status_name(Status::Timeout), "Timeout");
  EXPECT_EQ(status_name(Status::PeerUnreachable), "PeerUnreachable");
  EXPECT_EQ(status_name(static_cast<Status>(kStatusCount)), "UnknownStatus");
}

TEST(Status, TransientClassification) {
  EXPECT_TRUE(transient(Status::Retry));
  EXPECT_TRUE(transient(Status::QueueFull));
  EXPECT_TRUE(transient(Status::NotFound));
  EXPECT_FALSE(transient(Status::Ok));
  EXPECT_FALSE(transient(Status::InvalidKey));
  EXPECT_FALSE(transient(Status::OutOfBounds));
  // Reliable-delivery verdicts are hard errors: retrying without a
  // reconnect/fence protocol cannot clear them.
  EXPECT_FALSE(transient(Status::Timeout));
  EXPECT_FALSE(transient(Status::PeerUnreachable));
}

TEST(Result, ValueAndStatusPaths) {
  util::Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  util::Result<int> bad(Status::InvalidKey);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status(), Status::InvalidKey);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(good.value_or(-1), 42);
}

TEST(OnlineStats, MeanVarianceMinMax) {
  util::OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  util::OnlineStats a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Histogram, PercentilesBracketValues) {
  util::Histogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.add(i);
  EXPECT_EQ(h.count(), 1000u);
  // p50 of 1..1000 is ~500; bucket upper bound must be >= 500 and < 1024.
  const auto p50 = h.percentile(50);
  EXPECT_GE(p50, 500u);
  EXPECT_LT(p50, 1024u);
  EXPECT_GE(h.percentile(100), 1000u);
}

TEST(Histogram, MergeAddsCounts) {
  util::Histogram a, b;
  a.add(5);
  b.add(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
}

TEST(Histogram, ZeroGoesToBucketZero) {
  util::Histogram h;
  h.add(0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  util::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  util::Xoshiro256 r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  util::Xoshiro256 r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(LazyDeadline, BudgetCountsFromTheFirstCheck) {
  util::LazyDeadline zero(0);
  EXPECT_TRUE(zero.expired());  // a zero budget fails the first check, as Deadline's
  util::LazyDeadline lazy(20'000'000);  // 20 ms
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(lazy.expired());  // armed here, not at construction
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(lazy.expired());
}

TEST(SyncQueue, FifoOrder) {
  util::SyncQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.try_pop().value(), i);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SyncQueue, BoundedTryPush) {
  util::SyncQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
}

TEST(SyncQueue, CloseWakesBlockedPop) {
  util::SyncQueue<int> q;
  std::thread t([&] { EXPECT_FALSE(q.pop().has_value()); });
  q.close();
  t.join();
}

TEST(SyncQueue, CrossThreadTransfer) {
  util::SyncQueue<int> q(64);
  constexpr int kN = 10000;
  std::thread prod([&] {
    for (int i = 0; i < kN; ++i) q.push(i);
  });
  long long sum = 0;
  for (int i = 0; i < kN; ++i) sum += q.pop().value();
  prod.join();
  EXPECT_EQ(sum, static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(SpscRing, CapacityAndWrap) {
  util::SpscRing<int> r(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(r.try_push(1));
    EXPECT_TRUE(r.try_push(2));
    EXPECT_TRUE(r.try_push(3));
    EXPECT_TRUE(r.try_push(4));
    EXPECT_FALSE(r.try_push(5));
    for (int i = 1; i <= 4; ++i) EXPECT_EQ(r.try_pop().value(), i);
    EXPECT_FALSE(r.try_pop().has_value());
  }
}

TEST(SpscRing, CrossThreadStream) {
  util::SpscRing<std::uint64_t> r(256);
  constexpr std::uint64_t kN = 100000;
  std::thread prod([&] {
    for (std::uint64_t i = 0; i < kN;) {
      if (r.try_push(i)) ++i;
      else std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0;
  while (expect < kN) {
    if (auto v = r.try_pop()) {
      ASSERT_EQ(*v, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  prod.join();
}

}  // namespace
}  // namespace photon
