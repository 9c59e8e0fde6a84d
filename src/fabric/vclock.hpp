// Per-rank virtual clock (simulated nanoseconds).
//
// All performance numbers in this reproduction are *virtual-time* deltas:
// the fabric stamps every completion with a delivery time computed from the
// LogGP wire model, and a rank consuming a completion advances its clock to
// that stamp. Explicit computation is charged with add(). This is the
// LogGOPSim approach and makes results deterministic on any host.
//
// A VClock is owned by exactly one rank thread; reads from other threads
// (e.g. the fabric stamping an op with the sender's ready time) happen on
// the owner thread itself, so plain loads/stores would suffice — the atomic
// is belt-and-braces for the harness's cross-thread final reporting.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace photon::fabric {

class VClock {
 public:
  // relaxed-ok (whole class): one rank thread owns and advances its clock;
  // the atomic exists so other threads (telemetry, the checker, CQ
  // comparators) can read a torn-free snapshot. No data is published through
  // the clock value itself — cross-rank time ordering rides on the CQ's
  // lane publish.
  std::uint64_t now() const noexcept { return now_.load(std::memory_order_relaxed); }

  /// Charge local work (CPU overhead, compute phases).
  void add(std::uint64_t ns) noexcept {
    now_.store(now_.load(std::memory_order_relaxed) + ns, std::memory_order_relaxed);
  }

  /// Jump forward to an event timestamp (never moves backwards).
  void advance_to(std::uint64_t t) noexcept {
    const std::uint64_t cur = now_.load(std::memory_order_relaxed);
    if (t > cur) now_.store(t, std::memory_order_relaxed);
  }

  void reset(std::uint64_t t = 0) noexcept { now_.store(t, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> now_{0};
};

}  // namespace photon::fabric
