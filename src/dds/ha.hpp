// PhotonDDS high availability: the shard-ownership directory.
//
// Every DDS shard (the per-rank partition of a structure's state) has a
// static replica set of two ranks — its home `h` and its partner
// `(h + 1) % n` — and a dynamic *owner*, the replica currently serving the
// shard. Ownership is tracked by a per-shard, epoch-versioned entry
// replicated on every rank:
//
//   entry = (epoch << 8) | owner
//
// Epoch 0 means the home owns its shard. Each promotion (failover to the
// other replica) bumps the epoch by one and flips the owner between the two
// replica-set members, so the owner is derivable from the epoch alone:
// even -> home, odd -> partner. Re-admission of a rejoining rank as backup
// does NOT bump the epoch — epochs count promotions, nothing else.
//
// Promotion is pure one-sided RMA so it works even where the Service's
// parcel engine is never driven (the chaos harness owns its own parcel
// stream): the *authoritative* copy of a shard's entry is the one hosted at
// the would-be new owner, and any client that observes the owner Down CASes
// that copy from (e, old) to (e+1, new). The winner then pushes the new
// entry to every other live rank's copy (a hint — the authoritative cell is
// only ever CASed) and posts a shard-epoch NAK on the core's ledger-signal
// path so peers adopt the move even between directory reads. Losers adopt
// the winning entry and redirect.
//
// resolve() is the client-side redirect: return the current owner if it is
// usable; otherwise drive a promotion toward the surviving replica; fail
// fast with PeerUnreachable when both replicas are Down (there is nothing
// left to promote — the fast-fail contract the dds_test suite asserts).
//
// Local entries are merged monotonically by epoch (adopt), and every adopt
// publishes the shard's ownership epoch into the NIC's PeerHealth table so
// resilience-side observers see "this peer's shard moved" without reaching
// into the DDS layer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/photon.hpp"
#include "telemetry/metrics.hpp"
#include "util/expected.hpp"

namespace photon::dds {

class Directory {
 public:
  /// Collective: registers this rank's copy of the ownership table and
  /// exchanges descriptors (same order on every rank).
  Directory(core::Photon& ph, telemetry::MetricsRegistry& reg);
  ~Directory();

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  /// Replication needs a second replica; a 1-rank fabric has none.
  bool enabled() const noexcept { return ph_.size() >= 2; }

  fabric::Rank partner(fabric::Rank shard) const noexcept {
    return static_cast<fabric::Rank>((shard + 1) % ph_.size());
  }
  /// The replica-set member of `shard` that is not `r`.
  fabric::Rank other_replica(fabric::Rank shard, fabric::Rank r) const noexcept {
    return r == shard ? partner(shard) : shard;
  }

  static std::uint64_t pack(std::uint64_t epoch, fabric::Rank owner) noexcept {
    return (epoch << 8) | owner;
  }
  static fabric::Rank entry_owner(std::uint64_t e) noexcept {
    return static_cast<fabric::Rank>(e & 0xFFu);
  }
  static std::uint64_t entry_epoch(std::uint64_t e) noexcept { return e >> 8; }

  /// This rank's current view of the shard's entry / owner / epoch.
  std::uint64_t entry(fabric::Rank shard) const noexcept;
  fabric::Rank owner_of(fabric::Rank shard) const noexcept {
    return entry_owner(entry(shard));
  }
  std::uint64_t epoch_of(fabric::Rank shard) const noexcept {
    return entry_epoch(entry(shard));
  }

  /// Resolve the shard to a usable owner, promoting the surviving replica
  /// when the current owner is Down. PeerUnreachable when both replicas are
  /// Down (immediate — no retry stall); Timeout when the fabric would not
  /// let us finish within the budget.
  util::Result<fabric::Rank> resolve(fabric::Rank shard,
                                     std::uint64_t timeout_ns);

  /// Drain received shard-epoch NAKs, adopting any newer epochs.
  void poll_naks();

  /// Monotonic local merge: install `e` if its epoch is newer than what we
  /// hold; publishes the epoch to PeerHealth. Returns true when adopted.
  bool adopt(fabric::Rank shard, std::uint64_t e) noexcept;

  /// Push this rank's authoritative rows to rejoining rank `r` (the
  /// directory half of re-replication). Call on every surviving rank after
  /// the fabric re-admitted `r`; owners push, everyone else no-ops.
  Status resync(fabric::Rank r, std::uint64_t timeout_ns);

  // dds.ha.* accounting shared with the structures' replication paths.
  void count_repl_fence() { repl_fences_.add(1); }
  void count_redirect() { redirects_.add(1); }
  void add_state_transfer(std::uint64_t bytes) { state_bytes_.add(bytes); }

 private:
  /// One resolve() pass; nullopt when a remote read or CAS failed, so
  /// resolve() idles before the next pass.
  std::optional<util::Result<fabric::Rank>> try_resolve(
      fabric::Rank shard, std::uint64_t timeout_ns);

  core::RemoteSlice cell(fabric::Rank host, fabric::Rank shard) const {
    return core::slice(peers_[host], std::size_t{shard} * 8, 8);
  }

  core::Photon& ph_;
  /// One entry per shard; written locally by adopt() and remotely by peers'
  /// promotion CASes / hint puts, so all access goes through atomic_ref.
  std::vector<std::uint64_t> cells_;
  core::BufferDescriptor desc_{};
  std::vector<core::BufferDescriptor> peers_;

  telemetry::Counter& promotions_;
  telemetry::Counter& redirects_;
  telemetry::Counter& repl_fences_;
  telemetry::Counter& state_bytes_;
};

}  // namespace photon::dds
