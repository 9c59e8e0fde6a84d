// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "runtime/cluster.hpp"

namespace photon::testing {

/// Fabric config with the wire model disabled (deterministic, zero-cost
/// virtual time) — used by unit tests that check mechanics, not timing.
inline fabric::FabricConfig quiet_fabric(std::uint32_t nranks) {
  fabric::FabricConfig cfg;
  cfg.nranks = nranks;
  cfg.wire.enabled = false;
  return cfg;
}

/// Fabric config with the default (enabled) wire model.
inline fabric::FabricConfig timed_fabric(std::uint32_t nranks) {
  fabric::FabricConfig cfg;
  cfg.nranks = nranks;
  return cfg;
}

/// Deterministic fill pattern for payload round-trip checks.
inline std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((seed + i * 131) & 0xff);
  return v;
}

/// Wraps a Cluster::run rank body so a fatal assertion fails the section
/// fast. ASSERT_* returns from the body without throwing, which leaves the
/// rank's peers waiting in a bootstrap collective until the test timeout;
/// aborting the bootstrap makes their collectives throw instead.
template <typename Body>
auto abort_on_fatal_failure(Body body) {
  return [body = std::move(body)](runtime::Env& env) {
    body(env);
    if (::testing::Test::HasFatalFailure()) env.bootstrap.abort();
  };
}

}  // namespace photon::testing
