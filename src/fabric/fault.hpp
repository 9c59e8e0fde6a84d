// Deterministic fault injection for resilience tests.
//
// Two fault planes, both seeded and reproducible:
//
//   * Post-time faults (maybe_fail): the op is rejected before it leaves
//     the NIC and surfaces as an error completion with the armed status —
//     verbs "WQE flushed with error" semantics. Targetable by opcode, by
//     destination rank, and by nth matching post.
//   * In-flight wire faults (wire_fault / link_down_until): the op reaches
//     the wire and the *frame* is dropped, its ack is dropped, its payload
//     is corrupted, it is delayed, or the link itself is scripted down for
//     a virtual-time window. These are consumed by the NIC's reliable-
//     delivery loop (see nic.cpp): transient faults are masked by
//     retransmission and only budget exhaustion surfaces, as
//     Status::Timeout.
//
// maybe_fail()/wire_armed() sit on the per-post fast path of every NIC, so
// the common "nothing armed" case is answered by a relaxed atomic load
// without taking the mutex. The flags are updated only under the lock,
// always *after* the state they summarize, so a reader that sees true and
// then takes the lock observes consistent state. A reader that races an
// arm() and still sees false simply treats this post as unarmed — the same
// outcome as if the post had executed a moment earlier, which is an
// acceptable ordering for faults armed concurrently with traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fabric/work.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace photon::fabric {

/// Sentinel for a link that never comes back up.
inline constexpr std::uint64_t kLinkDownForever =
    std::numeric_limits<std::uint64_t>::max();

/// Kind of in-flight fault applied to one wire frame.
enum class WireFault : std::uint8_t {
  kNone = 0,
  kDrop,     ///< frame lost before the target; nothing applied
  kAckDrop,  ///< frame applied at the target but the ack is lost — the
             ///< initiator retransmits and the receiver must suppress the dup
  kCorrupt,  ///< payload damaged in flight; the target's CRC check rejects it
  kDelay,    ///< frame survives but arrives late by delay_ns
};

class FaultInjector {
 public:
  struct Fault {
    std::optional<OpCode> only_op;  ///< nullopt = any op
    Status status = Status::FaultInjected;
    std::optional<Rank> only_peer;  ///< nullopt = any destination
    std::uint32_t nth = 1;          ///< fire on the nth matching post (1 = next)
  };

  /// One-shot in-flight fault (plan entry for the wire plane).
  struct WireFaultSpec {
    WireFault kind = WireFault::kDrop;
    std::optional<OpCode> only_op;
    std::optional<Rank> only_peer;
    std::uint32_t nth = 1;            ///< fire on the nth matching frame
    std::uint64_t delay_ns = 20'000;  ///< used by kDelay
  };

  /// Seeded random lossy wire toward one peer (or all: only_peer = nullopt).
  /// The seed names a *family* of decision streams: each destination peer
  /// draws from its own Xoshiro256 sub-stream derived via splitmix64 from
  /// (seed, peer), so the decision sequence toward peer A is independent of
  /// how many frames were sent toward peer B. This makes replay
  /// order-independent across threads: only the per-(src,dst) frame order
  /// matters, which the reliable-delivery layer already serializes.
  struct WireRandomConfig {
    std::optional<Rank> only_peer;
    double drop_p = 0.0;      ///< frame loss probability
    double ack_drop_p = 0.0;  ///< ack-only loss (data lands; duplicate follows)
    double corrupt_p = 0.0;   ///< payload bit-corruption probability
    double delay_p = 0.0;     ///< delay-spike probability
    std::uint64_t delay_ns = 20'000;  ///< spike magnitude
    std::uint64_t seed = 1;
  };

  /// Per-plane breakdown of faults fired, for `fault.*` telemetry and the
  /// chaos oracles. `total()` matches fired().
  struct FiredCounts {
    std::uint64_t post_failures = 0;  ///< post-time plane (maybe_fail)
    std::uint64_t drops = 0;
    std::uint64_t ack_drops = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t delays = 0;
    std::uint64_t link_down_stalls = 0;  ///< link-window queries seen down
    /// Decision-plane faults: a function of the seed and the schedule.
    /// link_down_stalls counts queries, a number that follows thread
    /// scheduling (see FiredEvent).
    std::uint64_t decisions() const {
      return post_failures + drops + ack_drops + corruptions + delays;
    }
    std::uint64_t total() const { return decisions() + link_down_stalls; }
  };

  /// One fired fault decision, recorded when the event log is enabled.
  /// Link-window stalls are *not* logged: they are counted once per
  /// delivery-loop query, and the number of queries depends on thread
  /// scheduling — the decision-plane events below are the deterministic
  /// part of a seeded run.
  struct FiredEvent {
    enum class Plane : std::uint8_t { kPost, kWire };
    Plane plane = Plane::kWire;
    WireFault kind = WireFault::kNone;  ///< kNone for post-time failures
    OpCode op = OpCode::Put;
    Rank peer = 0;
  };

  /// Scripted link flap: the link (to only_peer, or to everyone) is down for
  /// virtual times in [down_from, up_at).
  struct LinkWindow {
    std::optional<Rank> only_peer;
    std::uint64_t down_from = 0;
    std::uint64_t up_at = kLinkDownForever;
  };

  // ---- post-time plane ------------------------------------------------------

  /// Arm one fault; fires on the nth post matching its op/peer filters.
  // test-only-ok: post-time faults are armed only by resilience tests.
  void arm(Fault f) {
    util::LockGuard lock(mutex_);
    if (f.nth == 0) f.nth = 1;
    plan_.push_back(f);
    armed_.store(true, std::memory_order_release);
  }

  /// Consulted by the NIC on every post. Returns the status to fail with.
  /// The first armed plan entry whose filters match is counted down.
  std::optional<Status> maybe_fail(OpCode op,
                                   std::optional<Rank> peer = std::nullopt) {
    // relaxed-ok: unarmed fast-path hint; the header comment explains why
    // a stale false is an acceptable ordering for concurrent arming.
    if (!armed_.load(std::memory_order_relaxed)) return std::nullopt;
    util::LockGuard lock(mutex_);
    for (auto it = plan_.begin(); it != plan_.end(); ++it) {
      if (it->only_op && *it->only_op != op) continue;
      if (it->only_peer && (!peer || *it->only_peer != *peer)) continue;
      if (--it->nth > 0) return std::nullopt;  // counted, not yet due
      const Status s = it->status;
      plan_.erase(it);
      update_armed();
      note_post_fired(op, peer);
      return s;
    }
    return std::nullopt;
  }

  // relaxed-ok: unarmed fast-path hint; the header comment explains why
  // a stale false is an acceptable ordering for concurrent arming.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Total faults fired so far, across both planes (post-time statuses and
  /// in-flight wire faults, including scripted link-down stalls).
  std::uint64_t fired() const {
    // relaxed-ok: monotonic statistic; read only for reporting.
    return fired_.load(std::memory_order_relaxed);
  }

  /// Per-plane breakdown of fired(); each field is a monotonic statistic.
  FiredCounts fired_counts() const {
    FiredCounts c;
    // relaxed-ok: monotonic statistics; read only for reporting.
    c.post_failures = post_fired_.load(std::memory_order_relaxed);
    c.drops = drop_fired_.load(std::memory_order_relaxed);
    c.ack_drops = ack_drop_fired_.load(std::memory_order_relaxed);
    c.corruptions = corrupt_fired_.load(std::memory_order_relaxed);
    c.delays = delay_fired_.load(std::memory_order_relaxed);
    c.link_down_stalls = link_stall_fired_.load(std::memory_order_relaxed);
    return c;
  }

  /// Start recording every decision-plane fired event (see FiredEvent for
  /// why link stalls are excluded). Used by the replay-determinism tests.
  // test-only-ok: replay-determinism oracle (chaos tests).
  void enable_fired_log() {
    util::LockGuard lock(mutex_);
    log_enabled_ = true;
  }

  /// Snapshot of the fired-event log in firing order.
  // test-only-ok: replay-determinism oracle (chaos tests).
  std::vector<FiredEvent> fired_log() const {
    util::LockGuard lock(mutex_);
    return fired_events_;
  }

  // ---- in-flight (wire) plane ----------------------------------------------

  /// Arm one in-flight fault; fires on the nth matching wire frame.
  void arm_wire(WireFaultSpec f) {
    util::LockGuard lock(mutex_);
    if (f.nth == 0) f.nth = 1;
    wire_plan_.push_back(f);
    update_wire_armed();
  }

  /// Enable a seeded random lossy wire. One config per peer filter: a second
  /// call with the same only_peer replaces the first.
  void set_wire_random(const WireRandomConfig& cfg) {
    util::LockGuard lock(mutex_);
    for (auto& existing : wire_random_) {
      if (existing.cfg.only_peer == cfg.only_peer) {
        existing.cfg = cfg;
        existing.streams.clear();  // re-seed lazily from the new cfg.seed
        update_wire_armed();
        return;
      }
    }
    wire_random_.push_back({cfg, {}});
    update_wire_armed();
  }

  /// Script a link-down window in virtual time.
  void set_link_window(LinkWindow w) {
    util::LockGuard lock(mutex_);
    windows_.push_back(w);
    update_wire_armed();
  }

  /// Drop every link window scripted specifically toward `peer` (windows
  /// with only_peer unset cover all peers and are left in place). The
  /// recovery counterpart of set_link_window: Fabric::revive uses it to
  /// reopen the links Fabric::kill cut so probes can fence the peer back.
  void clear_link_windows(Rank peer) {
    util::LockGuard lock(mutex_);
    std::erase_if(windows_,
                  [peer](const LinkWindow& w) { return w.only_peer == peer; });
    update_wire_armed();
  }

  /// True when any in-flight fault source is armed; the NIC takes its
  /// single-attempt fast path (no CRC, no dedup bookkeeping) when false.
  bool wire_armed() const {
    // relaxed-ok: unarmed fast-path hint; the header comment explains why
    // a stale false is an acceptable ordering for concurrent arming.
    return wire_armed_.load(std::memory_order_relaxed);
  }

  /// Decision for one wire frame (one transmission attempt).
  struct WireDecision {
    WireFault kind = WireFault::kNone;
    std::uint64_t delay_ns = 0;
  };

  /// Consulted by the reliable-delivery loop once per attempt. Plan entries
  /// take precedence over the random configs (first matching config wins).
  WireDecision wire_fault(OpCode op, Rank peer) {
    // relaxed-ok: unarmed fast-path hint; the header comment explains why
    // a stale false is an acceptable ordering for concurrent arming.
    if (!wire_armed_.load(std::memory_order_relaxed)) return {};
    util::LockGuard lock(mutex_);
    for (auto it = wire_plan_.begin(); it != wire_plan_.end(); ++it) {
      if (it->only_op && *it->only_op != op) continue;
      if (it->only_peer && *it->only_peer != peer) continue;
      if (--it->nth > 0) return {};
      const WireDecision d{it->kind, it->delay_ns};
      wire_plan_.erase(it);
      update_wire_armed();
      note_wire_fired(d.kind, op, peer);
      return d;
    }
    for (auto& e : wire_random_) {
      if (e.cfg.only_peer && *e.cfg.only_peer != peer) continue;
      const double u = e.stream(peer).unit();
      double edge = e.cfg.drop_p;
      WireDecision d;
      if (u < edge) {
        d.kind = WireFault::kDrop;
      } else if (u < (edge += e.cfg.ack_drop_p)) {
        d.kind = WireFault::kAckDrop;
      } else if (u < (edge += e.cfg.corrupt_p)) {
        d.kind = WireFault::kCorrupt;
      } else if (u < (edge += e.cfg.delay_p)) {
        d.kind = WireFault::kDelay;
        d.delay_ns = e.cfg.delay_ns;
      }
      if (d.kind != WireFault::kNone) note_wire_fired(d.kind, op, peer);
      return d;  // first matching config owns this peer's wire
    }
    return {};
  }

  /// If the link toward `peer` is scripted down at virtual time `vnow`,
  /// returns when it comes back up (kLinkDownForever for a permanent cut).
  std::optional<std::uint64_t> link_down_until(Rank peer,
                                               std::uint64_t vnow) const {
    // relaxed-ok: unarmed fast-path hint; the header comment explains why
    // a stale false is an acceptable ordering for concurrent arming.
    if (!wire_armed_.load(std::memory_order_relaxed)) return std::nullopt;
    util::LockGuard lock(mutex_);
    std::optional<std::uint64_t> up;
    for (const auto& w : windows_) {
      if (w.only_peer && *w.only_peer != peer) continue;
      if (vnow >= w.down_from && vnow < w.up_at)
        up = std::max(up.value_or(0), w.up_at);
    }
    if (up) {
      // relaxed-ok: monotonic statistics; read only for reporting.
      fired_.fetch_add(1, std::memory_order_relaxed);
      link_stall_fired_.fetch_add(1, std::memory_order_relaxed);
    }
    return up;
  }

  /// link_down_until without the fault-fired accounting: a pure query used
  /// by the recovery probe to decide whether a stall until the window
  /// reopens fits its budget (a probe observing the link is not a fault).
  std::optional<std::uint64_t> peek_link_down_until(Rank peer,
                                                    std::uint64_t vnow) const {
    // relaxed-ok: unarmed fast-path hint; the header comment explains why
    // a stale false is an acceptable ordering for concurrent arming.
    if (!wire_armed_.load(std::memory_order_relaxed)) return std::nullopt;
    util::LockGuard lock(mutex_);
    std::optional<std::uint64_t> up;
    for (const auto& w : windows_) {
      if (w.only_peer && *w.only_peer != peer) continue;
      if (vnow >= w.down_from && vnow < w.up_at)
        up = std::max(up.value_or(0), w.up_at);
    }
    return up;
  }

 private:
  struct RandomEntry {
    WireRandomConfig cfg;
    std::unordered_map<Rank, util::Xoshiro256> streams;

    /// The decision stream for one destination peer, created on first use.
    /// Sub-seeded via splitmix64 over (cfg.seed, peer) so catch-all configs
    /// give every peer an independent, order-insensitive sequence.
    util::Xoshiro256& stream(Rank peer) {
      auto it = streams.find(peer);
      if (it == streams.end()) {
        util::SplitMix64 sm(cfg.seed);
        const std::uint64_t lane = sm.next() ^
            util::SplitMix64(static_cast<std::uint64_t>(peer) + 1).next();
        it = streams.emplace(peer, util::Xoshiro256(lane)).first;
      }
      return it->second;
    }
  };

  void note_post_fired(OpCode op, std::optional<Rank> peer) REQUIRES(mutex_) {
    // relaxed-ok: monotonic statistics; read only for reporting.
    fired_.fetch_add(1, std::memory_order_relaxed);
    post_fired_.fetch_add(1, std::memory_order_relaxed);
    if (log_enabled_)
      fired_events_.push_back({FiredEvent::Plane::kPost, WireFault::kNone, op,
                               peer.value_or(Rank{0})});
  }

  void note_wire_fired(WireFault kind, OpCode op, Rank peer) REQUIRES(mutex_) {
    // relaxed-ok: monotonic statistics; read only for reporting.
    fired_.fetch_add(1, std::memory_order_relaxed);
    switch (kind) {
      // relaxed-ok: monotonic statistics; read only for reporting.
      case WireFault::kDrop:
        drop_fired_.fetch_add(1, std::memory_order_relaxed);
        break;
      case WireFault::kAckDrop:
        ack_drop_fired_.fetch_add(1, std::memory_order_relaxed);
        break;
      case WireFault::kCorrupt:
        corrupt_fired_.fetch_add(1, std::memory_order_relaxed);
        break;
      case WireFault::kDelay:
        // relaxed-ok: monotonic statistic, as above.
        delay_fired_.fetch_add(1, std::memory_order_relaxed);
        break;
      case WireFault::kNone:
        break;
    }
    if (log_enabled_)
      fired_events_.push_back({FiredEvent::Plane::kWire, kind, op, peer});
  }

  void update_armed() REQUIRES(mutex_) {
    armed_.store(!plan_.empty(), std::memory_order_release);
  }

  void update_wire_armed() REQUIRES(mutex_) {
    wire_armed_.store(
        !wire_plan_.empty() || !wire_random_.empty() || !windows_.empty(),
        std::memory_order_release);
  }

  mutable util::Mutex mutex_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> wire_armed_{false};
  mutable std::atomic<std::uint64_t> fired_{0};
  // Per-plane breakdown of fired_ (their sum equals fired_).
  std::atomic<std::uint64_t> post_fired_{0};
  std::atomic<std::uint64_t> drop_fired_{0};
  std::atomic<std::uint64_t> ack_drop_fired_{0};
  std::atomic<std::uint64_t> corrupt_fired_{0};
  std::atomic<std::uint64_t> delay_fired_{0};
  mutable std::atomic<std::uint64_t> link_stall_fired_{0};
  bool log_enabled_ GUARDED_BY(mutex_) = false;
  std::vector<FiredEvent> fired_events_ GUARDED_BY(mutex_);
  std::deque<Fault> plan_ GUARDED_BY(mutex_);

  std::deque<WireFaultSpec> wire_plan_ GUARDED_BY(mutex_);
  std::vector<RandomEntry> wire_random_ GUARDED_BY(mutex_);
  std::vector<LinkWindow> windows_ GUARDED_BY(mutex_);
};

}  // namespace photon::fabric
