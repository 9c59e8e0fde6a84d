// Wrap-safe virtual-time comparisons.
//
// Virtual timestamps are unsigned 64-bit nanosecond counts. Direct relational
// operators on them silently invert near a wrap (serial-number problem); at
// one simulated nanosecond per tick a wrap takes ~584 years, but deadline
// arithmetic (`now + budget`) can overflow much earlier when budgets are
// sentinel-large. All vtime ordering therefore goes through these helpers,
// which compare by signed distance (RFC 1982 style): a < b iff the signed
// difference b - a is positive. For any two stamps less than 2^63 apart —
// i.e. every pair the simulation can produce — they agree exactly with the
// plain operators and compile to the same single-instruction comparison.
//
// photon-lint rule `vtime-compare` enforces that vtime expressions are
// ordered only through this layer (or carry an explicit `// vtime-ok:`
// justification at sites where raw comparison is intentional).
#pragma once

#include <cstdint>

namespace photon::util {

/// True when stamp `a` is strictly earlier than `b` in virtual time.
constexpr bool vt_before(std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<std::int64_t>(b - a) > 0;
}

/// True when `a` is earlier than or equal to `b`.
constexpr bool vt_before_eq(std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<std::int64_t>(b - a) >= 0;
}

/// True when `a` is strictly later than `b`.
constexpr bool vt_after(std::uint64_t a, std::uint64_t b) noexcept {
  return vt_before(b, a);
}

}  // namespace photon::util
