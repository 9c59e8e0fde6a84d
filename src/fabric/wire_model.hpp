// LogGP-style virtual wire-time model.
//
// Parameters (all virtual nanoseconds):
//   L  latency_ns        one-way wire latency per message
//   o  send_overhead_ns  CPU cost to post a work request (charged to vclock)
//   or recv_overhead_ns  CPU cost to consume a completion
//   g  gap_ns            per-message serialization at the NIC injection port
//   G  per_byte_ns       per-byte serialization on the link
//
// For a put/send of n bytes from s to d with the sender ready at t:
//   start      = max(t, nic_free[s], link_free[s->d])
//   xmit_end   = start + g + n*G
//   nic_free'  = start + g
//   link_free' = xmit_end
//   local_done = xmit_end            (source buffer reusable)
//   deliver    = xmit_end + L        (payload fully landed at target)
//
// A get is a small request s->d followed by a data transfer d->s; a remote
// atomic is a small request plus a small response (≈ full round trip).
//
// Defaults approximate a FDR InfiniBand-class fabric: ~1.5 us end-to-end
// small-message latency, ~6.6 GB/s per link, ~25 M msgs/s injection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fabric/types.hpp"

namespace photon::fabric {

struct WireConfig {
  bool enabled = true;              ///< false: all costs are zero (unit tests)
  std::uint64_t latency_ns = 1300;  ///< L
  std::uint64_t send_overhead_ns = 120;  ///< o (post)
  std::uint64_t recv_overhead_ns = 90;   ///< o (consume completion)
  std::uint64_t gap_ns = 40;        ///< g
  double per_byte_ns = 0.15;        ///< G (~6.6 GB/s)
  std::uint64_t atomic_exec_ns = 30;  ///< execution cost at target NIC
};

class WireModel {
 public:
  WireModel(const WireConfig& cfg, std::uint32_t nranks);

  struct Times {
    std::uint64_t local_done;  ///< initiator-side completion timestamp
    std::uint64_t deliver;     ///< target-side delivery timestamp
  };

  /// One-way transfer (put, put-with-imm, send). `ready` is the sender's
  /// virtual time after the posting overhead has been charged. Called only
  /// from `src`'s thread (as are get and atomic_op for their initiator).
  Times transfer(Rank src, Rank dst, std::uint64_t ready, std::size_t bytes);

  /// RDMA read: request src->dst, data dst->src. Both timestamps land at the
  /// initiator (`local_done`) and the target-notification time (`deliver`,
  /// used when a get also raises a remote event).
  Times get(Rank initiator, Rank target, std::uint64_t ready, std::size_t bytes);

  /// Remote atomic: request + response, executed at the target NIC.
  Times atomic_op(Rank initiator, Rank target, std::uint64_t ready);

  std::uint64_t send_overhead() const noexcept {
    return cfg_.enabled ? cfg_.send_overhead_ns : 0;
  }
  std::uint64_t recv_overhead() const noexcept {
    return cfg_.enabled ? cfg_.recv_overhead_ns : 0;
  }
  const WireConfig& config() const noexcept { return cfg_; }

  /// Reset all resource-availability timestamps (between experiments).
  void reset();

 private:
  std::uint64_t byte_cost(std::size_t bytes) const noexcept {
    return static_cast<std::uint64_t>(static_cast<double>(bytes) * cfg_.per_byte_ns);
  }
  /// A resource's next-free virtual time, on a cache line of its own.
  struct alignas(64) FreeAt {
    std::atomic<std::uint64_t> t{0};
  };

  /// Reserve a link: start = max(ready, free); free' = start + busy.
  /// Returns start. A CAS loop, because the get data path makes the
  /// initiator's thread reserve the target's outbound link.
  static std::uint64_t reserve_link(FreeAt& link, std::uint64_t ready,
                                    std::uint64_t busy);
  /// Reserve rank `src`'s injection port, the same rule as reserve_link.
  /// Only src's thread reserves it (every transfer runs on the sending rank's
  /// thread), so a plain load + store suffices.
  std::uint64_t reserve_nic(Rank src, std::uint64_t ready, std::uint64_t busy);

  FreeAt& link(Rank s, Rank d) {
    return link_free_[static_cast<std::size_t>(s) * nranks_ + d];
  }

  WireConfig cfg_;
  std::uint32_t nranks_;
  std::vector<FreeAt> link_free_;
  std::vector<FreeAt> nic_free_;
};

}  // namespace photon::fabric
