// Per-NIC operation counters (read for reporting/tests).
//
// Single-writer rule: every counter has exactly one writing thread at a time,
// so a bump is a relaxed load + store — never a locked read-modify-write.
//   * Owner block (puts, gets, ... below): written by the owning rank's
//     thread, or — for recvs_matched and rnr_* — by whoever holds the NIC's
//     rx_mutex_, which serializes those writers.
//   * Per-initiator slots (bytes_in, bytes_out, crc_rejects, dup_suppressed):
//     counts another rank's thread causes at this NIC (landing a put or send,
//     serving a get, rejecting or deduplicating a frame). Slot i is written
//     only by rank i's thread — the owner's own contributions go to its own
//     slot — and each slot has a cache line to itself.
// Readers sum the slots (InitiatorSum::load), so every counters().<name>.load()
// keeps its value and for_each emits the same names and values.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "fabric/types.hpp"

namespace photon::fabric {

/// One monotonic statistic with a single writer at a time.
class Counter {
 public:
  // relaxed-ok (whole class): single writer per counter (see file comment);
  // nothing is published through a statistic, readers take a torn-free
  // snapshot.
  std::uint64_t load(std::memory_order mo = std::memory_order_relaxed) const noexcept {
    return v_.load(mo);
  }
  void bump(std::uint64_t n = 1) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Counts one initiating rank causes at a target NIC; that rank's thread is
/// the only writer.
struct alignas(64) InitiatorSlot {
  Counter bytes_in;        ///< payload bytes landed here (puts, sends)
  Counter bytes_out;       ///< bytes read from here (gets)
  Counter crc_rejects;     ///< frames CRC-rejected here
  Counter dup_suppressed;  ///< duplicate frames dropped here
};

/// A target-side counter: the sum of one field over every initiator slot.
class InitiatorSum {
 public:
  InitiatorSum(std::span<const InitiatorSlot> slots,
               Counter InitiatorSlot::*field) noexcept
      : slots_(slots), field_(field) {}
  // relaxed-ok: a snapshot of independent statistics, as Counter::load.
  std::uint64_t load(std::memory_order mo = std::memory_order_relaxed) const noexcept {
    std::uint64_t sum = 0;
    for (const InitiatorSlot& s : slots_) sum += (s.*field_).load(mo);
    return sum;
  }

 private:
  std::span<const InitiatorSlot> slots_;
  Counter InitiatorSlot::*field_;
};

class alignas(64) Counters {
  // Declared first: the InitiatorSum members below view these slots.
  std::unique_ptr<InitiatorSlot[]> slot_store_;
  std::span<InitiatorSlot> slots_;

 public:
  explicit Counters(std::uint32_t nranks)
      : slot_store_(std::make_unique<InitiatorSlot[]>(nranks)),
        slots_(slot_store_.get(), nranks) {}

  Counters(const Counters&) = delete;
  Counters& operator=(const Counters&) = delete;

  /// The slot `initiator`'s thread writes; only that thread may bump it.
  InitiatorSlot& from(Rank initiator) noexcept { return slots_[initiator]; }

  Counter puts;
  Counter gets;
  Counter sends;
  Counter recvs_matched;  ///< under rx_mutex_
  Counter atomics;
  InitiatorSum bytes_out{slots_, &InitiatorSlot::bytes_out};
  InitiatorSum bytes_in{slots_, &InitiatorSlot::bytes_in};
  Counter completions_polled;
  Counter rnr_buffered;   ///< sends parked awaiting a recv (under rx_mutex_)
  Counter rnr_rejected;   ///< sends dropped: park area full (under rx_mutex_)
  Counter post_errors;
  Counter faults_injected;

  // Reliable-delivery / lossy-wire counters. Initiator-side unless noted.
  Counter retransmits;       ///< extra wire attempts
  Counter wire_drops;        ///< frames lost in flight
  Counter wire_ack_drops;    ///< acks lost (data landed)
  Counter wire_corruptions;  ///< frames damaged in flight
  Counter wire_delays;       ///< delay spikes applied
  InitiatorSum crc_rejects{slots_, &InitiatorSlot::crc_rejects};  ///< target
  InitiatorSum dup_suppressed{slots_, &InitiatorSlot::dup_suppressed};  ///< target
  Counter link_down_stalls;  ///< attempts stalled: link down
  Counter op_timeouts;       ///< ops failed: budget exhausted
  Counter peer_unreachable;  ///< posts fast-failed: peer Down

  // Recovery (reconnect/fence) counters.
  Counter recovery_probes;    ///< probes of a Down peer
  Counter recoveries;         ///< fences completed: peer Up
  Counter stale_epoch_drops;  ///< pre-fence frames dropped

  /// Visit every counter as (name, value) — the single source of truth for
  /// exporters (telemetry fold, tables), so adding a field here and below is
  /// the whole job of exposing a new counter.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    auto emit = [&fn](const char* name, const auto& c) { fn(name, c.load()); };
    emit("puts", puts);
    emit("gets", gets);
    emit("sends", sends);
    emit("recvs_matched", recvs_matched);
    emit("atomics", atomics);
    emit("bytes_out", bytes_out);
    emit("bytes_in", bytes_in);
    emit("completions_polled", completions_polled);
    emit("rnr_buffered", rnr_buffered);
    emit("rnr_rejected", rnr_rejected);
    emit("post_errors", post_errors);
    emit("faults_injected", faults_injected);
    emit("retransmits", retransmits);
    emit("wire_drops", wire_drops);
    emit("wire_ack_drops", wire_ack_drops);
    emit("wire_corruptions", wire_corruptions);
    emit("wire_delays", wire_delays);
    emit("crc_rejects", crc_rejects);
    emit("dup_suppressed", dup_suppressed);
    emit("link_down_stalls", link_down_stalls);
    emit("op_timeouts", op_timeouts);
    emit("peer_unreachable", peer_unreachable);
    emit("recovery_probes", recovery_probes);
    emit("recoveries", recoveries);
    emit("stale_epoch_drops", stale_epoch_drops);
  }
};

}  // namespace photon::fabric
