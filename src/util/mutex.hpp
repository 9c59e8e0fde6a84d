// Annotated lock primitives for the clang thread-safety analysis.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability attributes,
// so code locking them can never satisfy a GUARDED_BY. These wrappers are
// zero-cost shims over the std types that add the annotations (and nothing
// else): util::Mutex is the capability, util::LockGuard / util::UniqueLock
// the scoped holders, util::CondVar the matching condition variable, and
// util::SharedMutex / util::SharedLock the reader-writer pair. Swapping a
// `std::mutex` + `std::lock_guard` site to `util::Mutex` + `util::LockGuard`
// changes no generated code on any compiler.
//
// CondVar waits keep the capability held for the whole call from the
// analysis's point of view (the internal release/reacquire is invisible, the
// standard treatment — Abseil's annotated Mutex does the same): guarded
// state may be read before and after a wait without re-annotation.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.hpp"

namespace photon::util {

class CondVar;

/// Annotated exclusive mutex (verbatim std::mutex semantics and cost).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class LockGuard;
  std::mutex m_;
};

/// Scoped exclusive holder; also the handle CondVar waits on.
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) ACQUIRE(m) : lock_(m.m_) {}
  ~LockGuard() RELEASE() {}

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to util::Mutex through a held LockGuard.
class CondVar {
 public:
  /// Block until notified (spurious wakeups possible — loop on the
  /// condition, which the guard lets you read directly).
  void wait(LockGuard& g) { cv_.wait(g.lock_); }

  /// Bounded wait; false when `timeout` elapsed without a notify.
  // test-only-ok: annotation tests cover the bounded wait.
  bool wait_for_ns(LockGuard& g, std::uint64_t timeout_ns) {
    return cv_.wait_for(g.lock_, std::chrono::nanoseconds(timeout_ns)) ==
           std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Annotated reader-writer mutex (std::shared_mutex semantics).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { m_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { m_.unlock_shared(); }

 private:
  std::shared_mutex m_;
};

/// Scoped shared (reader) holder.
class SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& m) ACQUIRE_SHARED(m) : m_(m) {
    m_.lock_shared();
  }
  ~SharedLock() RELEASE() { m_.unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& m_;
};

/// Scoped exclusive (writer) holder for a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& m) ACQUIRE(m) : m_(m) { m_.lock(); }
  ~WriterLock() RELEASE() { m_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& m_;
};

}  // namespace photon::util
