// DDS distributed lock: MCS-style queue lock spread across ranks.
//
// RMA engine — the home rank hosts the lock's tail cell; every rank hosts
// its own queue node (a "next" cell) in registered memory. Node ids on the
// wire are rank+1 so 0 can mean "free" / "no successor".
//
//   acquire: zero my next cell, prev = swap(tail@home, me+1).
//            prev == 0 -> lock held. Otherwise put_u64 my id into the
//            predecessor's next cell and wait for its handoff doorbell
//            (take_event on a keyed id from Service::alloc_handoff_id —
//            delivery files it by (peer, id), so the parcel dispatcher
//            sharing the Photon instance never sees it).
//   release: read my own next cell (plain local acquire-load; successors
//            write it with an 8-byte put). 0 -> CAS(tail, me+1 -> 0); if the
//            CAS loses, a successor is mid-enqueue: spin until my next cell
//            fills. With a successor: signal its handoff id.
//
// The swap-claimed tail is the remote-swap use case from the paper's AMO
// set; handoff is one put + one doorbell, so an uncontended round trip
// acquires and a contended release touches exactly one waiter — no home-CPU
// involvement anywhere.
//
// RPC engine — the home rank keeps a holder flag and a FIFO of waiting
// (rank, token) pairs; acquire parcels either get an immediate grant reply
// or are parked and granted on release (deferred reply via spawn). Release
// is fire-and-forget: the eager ring orders it before any later acquire
// from the same rank.
//
// High availability (cfg.replicate) — the tail/FIFO authority moves with
// the ownership directory, and the partner replica keeps a *holder hint*:
// the rank that becomes holder writes its node id into the partner's tail
// cell behind a fence (RPC: the owner mirrors {held, holder}); the releaser
// zeroes the hint *before* releasing at the owner. After a promotion the
// hint is the new live tail, so the holder's release and new acquirers
// converge on the surviving replica — but waiters parked behind a dead
// owner's tail are orphaned and must retry, and a kill that lands inside a
// contended handoff window can double-grant: lock handoff is NOT
// linearizable across failover (DESIGN.md §14). The chaos campaign kills at
// phase barriers, where the lock is quiesced, so the oracle checks
// acquire/release conservation plus post-failover liveness.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "dds/service.hpp"
#include "util/expected.hpp"

namespace photon::dds {

struct LockConfig {
  Backend backend = Backend::kRma;
  fabric::Rank home = 0;  ///< rank hosting the tail cell / FIFO
  std::uint64_t op_timeout_ns = 10'000'000'000ULL;
  std::string scope;  ///< telemetry prefix override ("" = dds.lock.<backend>)
  /// High availability: mirror the holder into the partner replica's tail
  /// cell and serve through the ownership directory. Must be identical on
  /// every rank (construction is collective).
  bool replicate = false;
};

class Lock {
 public:
  /// Collective: registers the tail/queue-node cells (RMA) / the handlers
  /// (RPC) and draws the instance's handoff id in SPMD order.
  Lock(Service& svc, const LockConfig& cfg);
  ~Lock();

  Lock(const Lock&) = delete;
  Lock& operator=(const Lock&) = delete;

  /// Blocking acquire. Non-reentrant (one holder per rank thread).
  Status acquire();
  /// Release; only valid while held. The RMA path may briefly spin for a
  /// mid-enqueue successor. PeerUnreachable drops held_ anyway: the lock
  /// authority is gone, holding on would wedge the caller.
  Status release();

  bool held() const noexcept { return held_; }
  Backend backend() const noexcept { return cfg_.backend; }
  /// True when holder state is mirrored to the partner replica.
  bool replicated() const noexcept {
    return cfg_.replicate && svc_.directory().enabled();
  }

  /// Re-replication after rank `r` rejoined: the current owner pushes its
  /// tail cell (RMA) / holder state (RPC) back to `r`. Call on every rank
  /// (non-owners no-op); the caller provides the closing barrier.
  Status ha_resync(fabric::Rank r);

 private:
  Status acquire_rma();
  Status release_rma();
  Status acquire_rpc();
  Status release_rpc();

  /// Write the holder hint (`v` = node id, 0 = free) into the replica that
  /// is not `owner`, behind a fence.
  void mirror_hint(fabric::Rank owner, std::uint64_t v);

  std::uint64_t my_node() const noexcept { return svc_.rank() + 1; }

  Service& svc_;
  LockConfig cfg_;
  bool held_ = false;

  // RMA cells: [0] tail (the owner's copy is the lock; the partner's copy
  // is the holder hint when replicated), [1] my queue-node next.
  std::vector<std::uint64_t> cells_;
  core::BufferDescriptor cells_desc_;
  std::vector<core::BufferDescriptor> peer_cells_;
  std::uint64_t handoff_id_ = 0;

  // RPC owner state + request plumbing.
  struct Pending {
    bool done = false;
    bool nak = false;
    std::uint64_t entry = 0;  ///< directory entry carried by a NAK
  };
  bool owner_held_ = false;
  fabric::Rank owner_holder_ = 0;
  std::deque<std::pair<fabric::Rank, std::uint64_t>> owner_waiters_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_token_ = 1;
  parcels::HandlerId h_acquire_ = parcels::kInvalidHandler;
  parcels::HandlerId h_grant_ = parcels::kInvalidHandler;
  parcels::HandlerId h_release_ = parcels::kInvalidHandler;
  parcels::HandlerId h_nak_ = parcels::kInvalidHandler;
  parcels::HandlerId h_mlock_ = parcels::kInvalidHandler;

  OpMetrics m_acquire_;
  OpMetrics m_release_;
};

}  // namespace photon::dds
