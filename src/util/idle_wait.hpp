// The idle-wait rule: what a blocking loop does when a progress pass found
// nothing to do.
//
// Every blocking wait in the stack (core, msg, parcels, dds) steps through
// these two functions over a caller-owned `spins` counter, so the policy
// lives in one place. photon-lint rule `idle-wait-copy` flags a yield or
// sleep anywhere else in src/ unless the line carries an `idle-ok:` reason.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace photon::util {

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
/// yield matters on an oversubscribed host: a lagging peer may be about to
/// publish an *earlier* arrival, and jumping too eagerly would push this
/// rank's virtual clock past it.
template <typename Jump>
void idle_step(std::uint32_t& spins, Jump&& jump) {
  if (spins == 0) {
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

}  // namespace photon::util
