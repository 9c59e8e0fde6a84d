#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/expected.hpp"
#include "util/idle_wait.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
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

// The idle-wait rule: yield first, jump only on the second empty step,
// start over after a successful jump, back off otherwise.
TEST(IdleWait, FirstStepYieldsWithoutJumping) {
  int jumps = 0;
  auto jump = [&] { ++jumps; return false; };
  std::uint32_t spins = 0;
  util::idle_step(spins, jump);
  EXPECT_EQ(jumps, 0);
  EXPECT_EQ(spins, 1u);
  util::idle_step(spins, jump);
  EXPECT_EQ(jumps, 1);
  EXPECT_EQ(spins, 2u);  // a failed jump falls through to the back-off
}

TEST(IdleWait, SuccessfulJumpStartsOver) {
  int jumps = 0;
  auto jump = [&] { ++jumps; return true; };
  std::uint32_t spins = 0;
  util::idle_step(spins, jump);
  util::idle_step(spins, jump);
  EXPECT_EQ(jumps, 1);
  EXPECT_EQ(spins, 0u);
  util::idle_step(spins, jump);  // yields again before the next jump
  EXPECT_EQ(jumps, 1);
  EXPECT_EQ(spins, 1u);
}

TEST(IdleWait, BackoffCountsThroughTheSleepThreshold) {
  std::uint32_t spins = 0;
  for (std::uint32_t i = 1; i <= 64; ++i) {
    util::idle_backoff(spins);
    EXPECT_EQ(spins, i);
  }
}

}  // namespace
}  // namespace photon
