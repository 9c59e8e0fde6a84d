// Wall-clock helpers. Virtual (simulated) time lives in fabric/vclock.hpp;
// these are for harness-level timeouts and coarse reporting only.
#pragma once

#include <algorithm>
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

 private:
  std::uint64_t start_;
};

/// A wait budget that never runs out.
inline constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

/// Wall-clock budget of a bounded wait, armed by its first expired() call:
/// a wait checks it only after a failed attempt, so one that succeeds at
/// once never reads the clock. The budget counts from that first check (a
/// zero budget fails it); kNoDeadline never expires.
class Deadline {
 public:
  explicit Deadline(std::uint64_t budget_ns) : budget_(budget_ns) {}
  bool expired() noexcept {
    const std::uint64_t now = now_ns();
    if (!armed_) {
      end_ = now + std::min(budget_, ~now);  // saturates at kNoDeadline
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
