// RMA collectives built on Photon's PWC primitives.
//
// Algorithms (the standard RDMA-friendly choices):
//   * barrier    — dissemination (log2 P rounds of pure doorbell signals)
//   * broadcast  — binomial tree of eager block pushes
//   * reduce     — binomial tree fold toward the root
//   * allreduce  — recursive doubling (with pre/post fold for non-power-of-2)
//   * allgather  — ring (P-1 steps of neighbor pushes)
//   * alltoall   — pairwise exchange (P-1 rounds)
//   * gather     — linear pushes to the root
//
// Data moves as eager-ring blocks chunked to the Photon eager threshold,
// identified by (sequence, round, chunk) packed into the 64-bit completion
// id. The ids are keyed (core::kKeyedEventBit): Photon files each block by
// (peer, id) on delivery and await() takes exactly the one it needs, so
// application events and parcels stay in the probe_event() FIFO.
//
// Usage contract: collectives are SPMD — every member of the active group
// calls the same collectives in the same order on the same Communicator.
//
// Fault tolerance: collectives run over an *active group*, initially all P
// ranks. shrink() contracts it around peers the fabric reports Down;
// rejoin() re-admits a recovered rank after fencing a fresh epoch toward it
// and resynchronizes the collective sequence number. Block-indexed buffers
// (allgather / alltoall / gather / scatter) are laid out by *group index*,
// which equals the world rank until the group shrinks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "coll/reduce_op.hpp"
#include "core/photon.hpp"

namespace photon::coll {

/// Per-communicator collective counters (single-threaded; owned by the rank).
struct CollStats {
  std::uint64_t barriers = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t reductions = 0;   ///< reduce + allreduce (reduce_impl entries)
  std::uint64_t allgathers = 0;
  std::uint64_t alltoalls = 0;
  std::uint64_t gathers = 0;
  std::uint64_t scatters = 0;
  std::uint64_t blocks_sent = 0;  ///< eager chunks pushed by send_block
  std::uint64_t block_bytes_sent = 0;
  std::uint64_t flags_sent = 0;   ///< pure-doorbell signals
};

class Communicator {
 public:
  explicit Communicator(core::Photon& ph);
  /// Folds CollStats into the process metrics registry (when enabled) as
  /// "coll.*" counters.
  ~Communicator();

  fabric::Rank rank() const noexcept { return ph_.rank(); }
  std::uint32_t size() const noexcept { return ph_.size(); }
  const CollStats& stats() const noexcept { return stats_; }

  /// Active group (sorted world ranks). Its size equals size() until
  /// shrink() removes failed members.
  const std::vector<fabric::Rank>& group() const noexcept { return group_; }
  /// Remove every group member the fabric currently reports Down. Collective
  /// among survivors: each must observe the same Down set (guaranteed under
  /// a fabric-manager-style kill) and call shrink() at the same point in its
  /// collective sequence. Returns the number of members removed.
  std::size_t shrink();
  /// Re-admit `r` after its link reopens. Survivors fence a fresh epoch
  /// toward `r` (Nic::try_recover) and reinsert it; the lowest-ranked
  /// survivor then sends `r` the current collective sequence number so block
  /// ids realign. The recovering rank calls rejoin(its own rank) and adopts
  /// the sequence it receives. Collective among the post-rejoin group.
  Status rejoin(fabric::Rank r);

  void barrier();
  /// Binomial-tree broadcast: log2(P) rounds; best for small payloads.
  void broadcast(std::span<std::byte> data, fabric::Rank root);
  /// Pipelined-ring broadcast: chunks stream around the ring so every link
  /// is busy; latency ~ (P - 2 + chunks) * chunk_time. Wins for large
  /// payloads (see bench_bcast_ablation).
  void broadcast_pipelined(std::span<std::byte> data, fabric::Rank root);
  // test-only-ok: paper collective, covered by coll tests; no bench yet.
  void allgather(std::span<const std::byte> mine, std::span<std::byte> all);
  // test-only-ok: paper collective, covered by coll tests; no bench yet.
  void alltoall(std::span<const std::byte> send, std::span<std::byte> recv,
                std::size_t block);
  // test-only-ok: paper collective, covered by coll tests; no bench yet.
  void gather(std::span<const std::byte> mine, std::span<std::byte> all,
              fabric::Rank root);
  /// Root holds P blocks; every rank receives its own.
  // test-only-ok: paper collective, covered by coll tests; no bench yet.
  void scatter(std::span<const std::byte> all, std::span<std::byte> mine,
               fabric::Rank root);

  template <typename T>
  void allreduce(std::span<T> data, ReduceOp op) {
    reduce_impl(std::as_writable_bytes(data), op, sizeof(T),
                [op](void* a, const void* b, std::size_t n) {
                  apply(op, static_cast<T*>(a), static_cast<const T*>(b), n);
                },
                /*root=*/group_.front(), /*all=*/true);
  }

  template <typename T>
  void reduce(std::span<T> data, ReduceOp op, fabric::Rank root) {
    reduce_impl(std::as_writable_bytes(data), op, sizeof(T),
                [op](void* a, const void* b, std::size_t n) {
                  apply(op, static_cast<T*>(a), static_cast<const T*>(b), n);
                },
                root, /*all=*/false);
  }

  /// Scalar convenience.
  template <typename T>
  T allreduce_one(T v, ReduceOp op) {
    allreduce(std::span<T>(&v, 1), op);
    return v;
  }

 private:
  using Combine = std::function<void(void*, const void*, std::size_t)>;

  /// Push `data` to `peer` as one or more eager chunks under (seq, round).
  void send_block(fabric::Rank peer, std::uint32_t round,
                  std::span<const std::byte> data);
  /// Await the matching block from `peer` into `out`; returns bytes received.
  std::size_t recv_block(fabric::Rank peer, std::uint32_t round,
                         std::span<std::byte> out);
  void send_flag(fabric::Rank peer, std::uint32_t round);
  void recv_flag(fabric::Rank peer, std::uint32_t round);

  void reduce_impl(std::span<std::byte> data, ReduceOp op, std::size_t elem,
                   const Combine& combine, fabric::Rank root, bool all);

  std::uint64_t block_id(std::uint32_t round, std::uint32_t chunk,
                         std::uint32_t total_chunks) const;
  /// Blocks until the event with `id` from `peer` is available; payload (may
  /// be empty for flags) is returned.
  std::vector<std::byte> await(fabric::Rank peer, std::uint64_t id);
  /// Discard queued blocks of older sequences: after an abort no await takes
  /// them, so they leave as id loss instead of staying queued.
  void discard_stale_blocks();

  // Virtual-rank helpers over the active group. Algorithms do all modular
  // arithmetic in group-index space and map to world ranks at the wire.
  std::uint32_t vsize() const noexcept {
    return static_cast<std::uint32_t>(group_.size());
  }
  std::uint32_t vrank() const noexcept { return gidx_; }
  fabric::Rank world(std::uint32_t v) const noexcept { return group_[v]; }
  /// Group index of world rank `r`; throws if `r` is not an active member.
  std::uint32_t vindex_of(fabric::Rank r) const;

  core::Photon& ph_;
  CollStats stats_;
  std::uint64_t seq_ = 0;  ///< collective sequence number (same on all ranks)
  std::vector<fabric::Rank> group_;  ///< active members, sorted world ranks
  std::uint32_t gidx_ = 0;           ///< my index in group_
  /// Set by shrink(): blocks of the aborted collective may still arrive, so
  /// every await ends with discard_stale_blocks().
  bool discard_stale_ = false;
};

}  // namespace photon::coll
