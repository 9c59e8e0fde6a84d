// Deliberately non-conforming fixture for the photon_lint self-test: each
// statement below seeds exactly one violation of a lint rule. The ctest
// entry runs photon_lint with this directory as --root and asserts the
// expected violation count. Never compiled.
#include <atomic>
#include <thread>

#include "core/probe.hpp"  // test-only-symbol: see the header

void seeded_fixture(std::atomic<int>& a, unsigned long long vtime,
                    unsigned long long meta, Nic& nic) {
  a.load(std::memory_order_relaxed);  // missing justification comment
  if (vtime < 10) {                   // raw virtual-time comparison
    (void)(meta & 1u);                // direct ledger meta bit access
  }
  std::this_thread::yield();          // hand-rolled idle wait
  unsigned spins = 0;
  idle_backoff(spins);                // hand-rolled wait loop
  nic.checker().commit(1);            // post protocol outside PostGuard
}
