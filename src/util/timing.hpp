// Wall-clock helpers. Virtual (simulated) time lives in fabric/vclock.hpp;
// these are for harness-level timeouts and coarse reporting only.
#pragma once

#include <chrono>
#include <cstdint>

namespace photon::util {

/// Monotonic wall-clock nanoseconds.
std::uint64_t now_ns() noexcept;

/// Simple scope timer over wall time.
class WallTimer {
 public:
  WallTimer() : start_(now_ns()) {}
  void reset() noexcept { start_ = now_ns(); }
  std::uint64_t elapsed_ns() const noexcept { return now_ns() - start_; }
  // test-only-ok: no caller at all; ROADMAP item 8 lists it.
  double elapsed_s() const noexcept { return static_cast<double>(elapsed_ns()) * 1e-9; }

 private:
  std::uint64_t start_;
};

/// Deadline helper for bounded waits in tests.
class Deadline {
 public:
  explicit Deadline(std::uint64_t budget_ns) : end_(now_ns() + budget_ns) {}
  bool expired() const noexcept { return now_ns() >= end_; }

 private:
  std::uint64_t end_;
};

/// A Deadline armed by its first expired() call: retry loops check it only
/// after a failed attempt, so an attempt that succeeds at once never reads
/// the clock. The budget counts from that first check.
class LazyDeadline {
 public:
  explicit LazyDeadline(std::uint64_t budget_ns) : budget_(budget_ns) {}
  bool expired() noexcept {
    const std::uint64_t now = now_ns();
    if (!armed_) {
      end_ = now + budget_;
      armed_ = true;
    }
    return now >= end_;
  }

 private:
  std::uint64_t budget_;
  std::uint64_t end_ = 0;
  bool armed_ = false;
};

}  // namespace photon::util
