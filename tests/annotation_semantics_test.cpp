// Positive control for the thread-safety annotation layer.
//
// On GCC the PHOTON_* capability macros must compile away to nothing — this
// test building and passing on the default toolchain proves it. On clang the
// very same code must be -Wthread-safety clean (the CI wthread-safety leg
// compiles the whole tree with the analysis as errors). The compile-fail
// counterparts live in tests/negative/ and are built only under clang.
//
// Doubles as the unit suite for util::Mutex/CondVar/SharedMutex and the
// wrap-safe virtual-time comparators in util/vtime.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/vtime.hpp"

namespace photon::util {
namespace {

// A correctly annotated guarded structure: must compile warning-free under
// clang's analysis and behave like a plain mutex-protected counter anywhere.
class Account {
 public:
  void deposit(int n) {
    LockGuard lock(mu_);
    balance_ += n;
  }
  int balance() const {
    LockGuard lock(mu_);
    return balance_;
  }
  bool try_deposit(int n) {
    if (!mu_.try_lock()) return false;
    balance_ += n;
    mu_.unlock();
    return true;
  }

 private:
  mutable Mutex mu_;
  int balance_ GUARDED_BY(mu_) = 0;
};

TEST(AnnotatedMutex, GuardedCounterSurvivesContendingThreads) {
  Account acct;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&acct] {
      for (int i = 0; i < 1000; ++i) acct.deposit(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(acct.balance(), 4000);
}

TEST(AnnotatedMutex, TryLockPathCompilesAndCounts) {
  Account acct;
  while (!acct.try_deposit(5)) {
  }
  EXPECT_EQ(acct.balance(), 5);
}

TEST(AnnotatedMutex, CondVarHandshakeWithExplicitWaitLoop) {
  Mutex mu;
  CondVar cv;
  bool ready GUARDED_BY(mu) = false;
  int seen = 0;
  std::thread consumer([&] {
    LockGuard lock(mu);
    while (!ready) cv.wait(lock);
    seen = 1;
  });
  {
    LockGuard lock(mu);
    ready = true;
  }
  cv.notify_one();
  consumer.join();
  EXPECT_EQ(seen, 1);
}

TEST(AnnotatedMutex, CondVarWaitForTimesOutWhenNeverSignaled) {
  Mutex mu;
  CondVar cv;
  LockGuard lock(mu);
  EXPECT_FALSE(cv.wait_for_ns(lock, 1'000'000));  // 1ms, nobody notifies
}

TEST(AnnotatedMutex, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu;
  int value GUARDED_BY(mu) = 0;
  {
    WriterLock w(mu);
    value = 41;
  }
  int a = 0;
  int b = 0;
  {
    SharedLock r1(mu);
    SharedLock r2(mu);  // both shared locks held at once
    a = value;
    b = value;
  }
  {
    WriterLock w(mu);
    ++value;
  }
  SharedLock r(mu);
  EXPECT_EQ(a, 41);
  EXPECT_EQ(b, 41);
  EXPECT_EQ(value, 42);
}

// ---- wrap-safe virtual-time comparison ---------------------------------------

TEST(VtimeCompare, AgreesWithPlainOperatorsForSmallDistances) {
  EXPECT_TRUE(vt_before(1, 2));
  EXPECT_FALSE(vt_before(2, 2));
  EXPECT_TRUE(vt_before_eq(2, 2));
  EXPECT_TRUE(vt_after(9, 3));
}

TEST(VtimeCompare, StaysCorrectAcrossCounterWrap) {
  const std::uint64_t before_wrap = ~std::uint64_t{0} - 5;
  const std::uint64_t after_wrap = before_wrap + 10;  // wraps to 4
  ASSERT_LT(after_wrap, before_wrap);  // plain operators get this backwards
  EXPECT_TRUE(vt_before(before_wrap, after_wrap));
  EXPECT_FALSE(vt_before(after_wrap, before_wrap));
  EXPECT_TRUE(vt_after(after_wrap, before_wrap));
}

}  // namespace
}  // namespace photon::util
