// Per-peer health tracking: the Up -> Suspect -> Down -> Probing ->
// Recovering -> Up lattice.
//
// Each NIC owns one PeerHealth table. Transitions are driven from three
// sources:
//   * observation — reliable delivery records a failure whenever an op
//     exhausts its retry/deadline budget toward a peer, and a success on
//     every acked transmission (which clears Suspect back to Up);
//   * notification — Fabric::kill() models a fabric-manager peer-death
//     event by forcing Down on every NIC at once;
//   * recovery — the NIC's reconnect/fence protocol (Nic::try_recover)
//     moves Down -> Probing (begin_probe) while it waits for the link to
//     reopen, Probing -> Recovering (mark_recovering) while the three-way
//     fence handshake is in flight, and Recovering -> Up
//     (complete_recovery) once both sides agree on a new, strictly larger
//     per-peer epoch. A failure in any recovery state falls back to Down.
//
// Down is *latched against observations*: no interleaving of
// record_success/record_failure/force_down can resurrect a peer — only the
// explicit begin_probe/mark_recovering/complete_recovery fence path does,
// so every return to Up is paired with an epoch bump that lets both ends
// discard state from the dead connection.
//
// Generation counters are cheap edge-detectors so upper layers re-scan
// peer states only when something moved:
//   * down_generation() — bumped once per transition into Down;
//   * up_generation()   — bumped once per fenced recovery back to Up
//     (the mirror edge: msg/parcel transports re-open per-peer channels
//     on it);
//   * epoch(peer)       — monotonically increasing per-peer connection
//     incarnation; frames and completions stamped with an older epoch are
//     stale and must be dropped, never delivered.
//
// The table is written by the owning rank's thread (and by whoever calls
// force_down) and read from any thread, so all fields are relaxed/acquire
// atomics; the recovery transitions use CAS so concurrent probers cannot
// both win.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace photon::resilience {

enum class PeerState : std::uint8_t {
  kUp = 0,
  kSuspect = 1,
  kDown = 2,
  kProbing = 3,     ///< Down peer under active probe (awaiting link reopen)
  kRecovering = 4,  ///< fence handshake in flight
};

inline const char* peer_state_name(PeerState s) noexcept {
  switch (s) {
    case PeerState::kUp: return "Up";
    case PeerState::kSuspect: return "Suspect";
    case PeerState::kDown: return "Down";
    case PeerState::kProbing: return "Probing";
    case PeerState::kRecovering: return "Recovering";
  }
  return "Unknown";
}

struct PeerHealthConfig {
  std::uint32_t suspect_after = 1;  ///< consecutive failures -> Suspect
  std::uint32_t down_after = 3;     ///< consecutive failures -> Down
};

class PeerHealth {
 public:
  explicit PeerHealth(std::uint32_t npeers, PeerHealthConfig cfg = {})
      : cfg_(cfg), slots_(npeers) {}

  PeerHealth(const PeerHealth&) = delete;
  PeerHealth& operator=(const PeerHealth&) = delete;

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }

  PeerState state(std::uint32_t peer) const noexcept {
    return static_cast<PeerState>(
        slots_[peer].state.load(std::memory_order_acquire));
  }

  bool down(std::uint32_t peer) const noexcept {
    return state(peer) == PeerState::kDown;
  }

  /// True when posts toward the peer may proceed (Up or Suspect). Down,
  /// Probing, and Recovering all fast-fail new posts.
  bool usable(std::uint32_t peer) const noexcept {
    const PeerState s = state(peer);
    return s == PeerState::kUp || s == PeerState::kSuspect;
  }

  /// Connection incarnation toward this peer. Bumped only by
  /// complete_recovery; anything stamped with an older epoch is stale.
  std::uint32_t epoch(std::uint32_t peer) const noexcept {
    return slots_[peer].epoch.load(std::memory_order_acquire);
  }

  /// An acked transmission: clears the failure streak; Suspect returns to
  /// Up. Down/Probing/Recovering are unaffected (latched against
  /// observations — only the fence path resurrects).
  void record_success(std::uint32_t peer) noexcept {
    Slot& s = slots_[peer];
    // relaxed-ok: state/fails are written by the owning rank's thread only;
    // cross-thread readers take the acquire path in state()/usable().
    const auto cur = s.state.load(std::memory_order_relaxed);
    if (cur != static_cast<std::uint8_t>(PeerState::kUp) &&
        cur != static_cast<std::uint8_t>(PeerState::kSuspect))
      return;
    s.fails.store(0, std::memory_order_relaxed);
    s.state.store(static_cast<std::uint8_t>(PeerState::kUp),
                  std::memory_order_release);
  }

  /// A retry/deadline budget exhausted toward this peer. Returns the state
  /// after accounting for the failure. In Probing/Recovering a failure
  /// aborts the recovery attempt straight back to Down.
  PeerState record_failure(std::uint32_t peer) noexcept {
    Slot& s = slots_[peer];
    // relaxed-ok: see record_success() — single-writer slot state.
    const auto cur = s.state.load(std::memory_order_relaxed);
    if (cur == static_cast<std::uint8_t>(PeerState::kDown))
      return PeerState::kDown;
    if (cur == static_cast<std::uint8_t>(PeerState::kProbing) ||
        cur == static_cast<std::uint8_t>(PeerState::kRecovering)) {
      mark_down(s);
      return PeerState::kDown;
    }
    const std::uint32_t fails =
        // relaxed-ok: single-writer failure streak; the Down flip below is
        // what readers synchronize on.
        s.fails.fetch_add(1, std::memory_order_relaxed) + 1;
    if (fails >= cfg_.down_after) {
      mark_down(s);
      return PeerState::kDown;
    }
    if (fails >= cfg_.suspect_after) {
      s.state.store(static_cast<std::uint8_t>(PeerState::kSuspect),
                    std::memory_order_release);
      return PeerState::kSuspect;
    }
    return PeerState::kUp;
  }

  /// Scripted/fabric-notified peer death: transition straight to Down.
  /// Also aborts an in-flight probe/recovery (any state -> Down).
  void force_down(std::uint32_t peer) noexcept { mark_down(slots_[peer]); }

  // ---- recovery (fence) transitions -----------------------------------------
  // Exactly one path resurrects a Down peer:
  //   begin_probe -> mark_recovering -> complete_recovery(new_epoch)
  // Each step is a CAS from the expected predecessor state, so concurrent
  // probers serialize and a force_down anywhere in between aborts cleanly.

  /// Down -> Probing. Returns false if the peer was not Down (already Up,
  /// or another prober won the race).
  bool begin_probe(std::uint32_t peer) noexcept {
    auto expected = static_cast<std::uint8_t>(PeerState::kDown);
    return slots_[peer].state.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(PeerState::kProbing),
        std::memory_order_acq_rel, std::memory_order_acquire);
  }

  /// Probing -> Recovering (the fence handshake is starting).
  bool mark_recovering(std::uint32_t peer) noexcept {
    auto expected = static_cast<std::uint8_t>(PeerState::kProbing);
    return slots_[peer].state.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(PeerState::kRecovering),
        std::memory_order_acq_rel, std::memory_order_acquire);
  }

  /// Recovering -> Up with a strictly larger epoch. The epoch is published
  /// before the state flip so any reader that observes Up also observes the
  /// new epoch. Bumps up_generation once per successful fence.
  bool complete_recovery(std::uint32_t peer, std::uint32_t new_epoch) noexcept {
    Slot& s = slots_[peer];
    // relaxed-ok: owner-thread read; the release store below publishes the
    // epoch, and the state flip to Up is what other threads acquire.
    if (new_epoch <= s.epoch.load(std::memory_order_relaxed)) return false;
    s.epoch.store(new_epoch, std::memory_order_release);
    // relaxed-ok: single-writer streak reset, published by the state flip.
    s.fails.store(0, std::memory_order_relaxed);
    auto expected = static_cast<std::uint8_t>(PeerState::kRecovering);
    if (!s.state.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(PeerState::kUp),
            std::memory_order_acq_rel, std::memory_order_acquire))
      return false;  // force_down raced the fence; stay Down
    up_gen_.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }

  /// Bumped once per transition into Down; lets upper layers detect "some
  /// peer just died" without scanning the table on every progress call.
  std::uint64_t down_generation() const noexcept {
    return down_gen_.load(std::memory_order_acquire);
  }

  /// Bumped once per fenced recovery back to Up — the mirror edge of
  /// down_generation; transports re-open per-peer channels when it moves.
  // test-only-ok: recovery tests check the Up edge counter.
  std::uint64_t up_generation() const noexcept {
    return up_gen_.load(std::memory_order_acquire);
  }

  // ---- ownership-epoch publication -----------------------------------------
  // The DDS HA layer stores, per peer, the highest *shard ownership epoch*
  // it has observed for the shard homed at that peer (bumped once per
  // promotion when the peer's shard fails over to its backup). Published
  // here — next to the connection-incarnation epoch — so any layer watching
  // peer health can also see "this peer's shard has moved" without reaching
  // into the DDS directory.

  /// Highest published ownership epoch for the shard homed at `peer`.
  std::uint64_t shard_epoch(std::uint32_t peer) const noexcept {
    return slots_[peer].shard_epoch.load(std::memory_order_acquire);
  }

  /// Monotonic max-publish. Returns true when `epoch` advanced the value.
  bool publish_shard_epoch(std::uint32_t peer, std::uint64_t epoch) noexcept {
    auto& cell = slots_[peer].shard_epoch;
    // relaxed-ok: CAS-max loop; the successful release CAS below is the
    // publication point, failed iterations only refresh the expected value.
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (epoch > cur) {
      if (cell.compare_exchange_weak(cur, epoch, std::memory_order_release,
                                     std::memory_order_relaxed))
        return true;
    }
    return false;
  }

 private:
  struct Slot {
    std::atomic<std::uint8_t> state{0};
    std::atomic<std::uint32_t> fails{0};
    std::atomic<std::uint32_t> epoch{0};
    std::atomic<std::uint64_t> shard_epoch{0};
  };

  void mark_down(Slot& s) noexcept {
    const auto prev = s.state.exchange(
        static_cast<std::uint8_t>(PeerState::kDown), std::memory_order_acq_rel);
    if (prev != static_cast<std::uint8_t>(PeerState::kDown))
      down_gen_.fetch_add(1, std::memory_order_acq_rel);
  }

  PeerHealthConfig cfg_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> down_gen_{0};
  std::atomic<std::uint64_t> up_gen_{0};
};

}  // namespace photon::resilience
