// Fixture twin of the real lock-free virtual clock header: introduces a
// blocking primitive so the hot-path-blocking rule has something to flag.
// Never compiled; consumed only by the photon_lint self-test.
// test-only-ok: fixture header, included by nothing on purpose.
#pragma once
#include <mutex>

struct FixtureClock {
  std::mutex mu;  // blocking primitive in a designated lock-free file
};
