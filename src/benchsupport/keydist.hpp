// Seeded key-distribution generator shared by the benchmarks (bench_gups,
// bench_dds) and the DDS chaos lane: uniform or Zipfian frequency ranks over
// a fixed key domain, with an invertible scramble so the hottest ranks do not
// all land on one shard.
//
// The Zipfian sampler is the classic Gray et al. / YCSB construction: one
// O(n) harmonic precompute at creation, then O(1) inversion per sample.
// Everything is driven by splitmix-seeded xoshiro state, so two generators
// built with the same (n, s, seed) produce identical streams on every
// platform — baselines depend on that.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace photon::benchsupport {

class KeyDist {
 public:
  /// `n` keys with skew `s` (0 = uniform, 0.99 = YCSB-default hot-spot).
  /// `s` must be in [0, 1) — the harmonic inversion below needs s != 1.
  KeyDist(std::uint64_t n, double s, std::uint64_t seed)
      : n_(n), s_(s), rng_(util::SplitMix64(seed ^ 0xD15D15D15D15D15DULL).next()) {
    while ((std::uint64_t{1} << bits_) < n_) ++bits_;
    if (s_ > 0.0) {
      double zetan = 0.0;
      for (std::uint64_t i = 1; i <= n_; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), s_);
      const double zeta2 = 1.0 + 1.0 / std::pow(2.0, s_);
      zetan_ = zetan;
      theta_half_ = std::pow(0.5, s_);
      alpha_ = 1.0 / (1.0 - s_);
      eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - s_)) /
             (1.0 - zeta2 / zetan);
    }
  }

  double skew() const noexcept { return s_; }

  /// Next frequency rank in [0, n): rank 0 is the hottest key under skew;
  /// uniform when s == 0.
  std::uint64_t next_rank() noexcept {
    if (s_ <= 0.0) return rng_.below(n_);
    const double u = rng_.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + theta_half_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
  }

  /// Next key: the frequency rank pushed through scramble() so hot keys
  /// scatter across the key space (and therefore across DHT shards).
  std::uint64_t next_key() noexcept { return scramble(next_rank()); }

  /// Deterministic permutation of [0, 2^bits) covering the key domain: odd
  /// multiplies and xorshifts are each invertible mod 2^bits, so distinct
  /// ranks map to distinct keys. For non-power-of-two domains the scrambled
  /// value can exceed n — callers that need keys < n should size the domain
  /// as a power of two (the benches do).
  std::uint64_t scramble(std::uint64_t rank) const noexcept {
    const std::uint64_t mask =
        bits_ >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits_) - 1;
    const unsigned sh = bits_ / 2 + 1;
    std::uint64_t x = rank & mask;
    x = (x * 0x9e3779b97f4a7c15ULL) & mask;
    x ^= x >> sh;
    x = (x * 0xbf58476d1ce4e5b9ULL) & mask;
    x ^= x >> sh;
    return x;
  }

 private:
  std::uint64_t n_;
  double s_;
  unsigned bits_ = 1;  ///< smallest width with 2^bits >= n
  double zetan_ = 0.0, theta_half_ = 0.0, alpha_ = 0.0, eta_ = 0.0;
  util::Xoshiro256 rng_;
};

}  // namespace photon::benchsupport
