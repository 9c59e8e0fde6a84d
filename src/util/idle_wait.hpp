// The idle-wait rule: what a blocking loop does when a progress pass found
// nothing to do, and the one bounded-wait loop around it.
//
// Every blocking wait in the stack (core, msg, parcels, coll, dds) runs
// through wait_until, so the policy and the deadline live in one place.
// photon-lint rule `idle-wait-copy` flags a yield or sleep anywhere else in
// src/, and `wait-loop-copy` a call to idle_step or idle_backoff, unless the
// line carries an `idle-ok:` reason.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "util/timing.hpp"

namespace photon::util {

/// Whether the calling thread may share its CPU with another rank thread.
/// True unless Cluster::run found a CPU for each of its rank threads.
inline thread_local bool t_cpu_shared = true;

/// Back-off tail: yield for the first 63 calls, then sleep 100 µs per call.
/// Counts `spins` up; the caller resets it to 0 when the loop makes progress.
inline void idle_backoff(std::uint32_t& spins) {
  ++spins;
  if (spins < 64)
    std::this_thread::yield();
  else
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

/// One idle step: yield once, then `jump()` to the earliest pending virtual
/// event (resetting `spins` when it consumed one), then back off. The first
/// yield matters only when rank threads share a CPU: a lagging peer may be
/// about to publish an *earlier* arrival, and jumping too eagerly would push
/// this rank's virtual clock past it. On a dedicated CPU that peer runs
/// anyway, so the step jumps at once. A `jump` that never succeeds leaves
/// the plain back-off sequence, with the same spin count either way.
template <typename Jump>
void idle_step(std::uint32_t& spins, Jump&& jump) {
  if (spins == 0 && t_cpu_shared) {
    ++spins;
    std::this_thread::yield();
    return;
  }
  if (jump()) {
    spins = 0;
    return;
  }
  idle_backoff(spins);
}

/// The bounded wait: call `poll()` until it returns an engaged
/// std::optional and return that, or return nullopt once `budget_ns` of wall
/// time has passed since the first empty poll (a Deadline; a zero budget
/// polls exactly once). Between empty polls it takes one idle_step over
/// `jump`. A poll that takes a `bool&` may set it when its pass made
/// progress without finishing: the next pass then starts at once, with the
/// idle sequence reset and no deadline check.
template <typename Poll, typename Jump>
auto wait_until(std::uint64_t budget_ns, Poll&& poll, Jump&& jump) {
  Deadline dl(budget_ns);
  std::uint32_t spins = 0;
  for (;;) {
    bool progressed = false;
    auto r = [&] {
      if constexpr (std::is_invocable_v<Poll&, bool&>)
        return poll(progressed);
      else
        return poll();
    }();
    if (r) return r;
    if (progressed) {
      spins = 0;
      continue;
    }
    if (dl.expired()) return decltype(r){};
    idle_step(spins, jump);
  }
}

}  // namespace photon::util
