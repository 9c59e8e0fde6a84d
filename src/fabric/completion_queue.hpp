// Bounded completion queue with virtual-time arrival semantics.
//
// Producers are rank threads delivering events; the consumer is the owning
// rank. Every completion carries a virtual delivery timestamp:
//   * poll_ready(now) — non-blocking; returns only events that have
//     "arrived" (vtime <= now). Polling never moves time forward.
//   * poll_min / wait_any — the consumer *waits*: the earliest pending
//     event is returned even if its vtime is in the future (the caller then
//     jumps its clock to the arrival time, LogGOPSim-style).
//
// Hand-off (lock-free): each producer thread appends to its own
// single-producer lane, a chain of small fixed-size segments allocated on
// the thread's first push. An entry is written into its slot and then
// published by a release store of the segment's fill count, exactly as an
// RDMA initiator writes a payload and then the flag the target polls. A
// lane becomes visible to the consumer by a CAS onto an append-only list
// the first time it is used, and a push finds its thread's lane by walking
// that list: a queue sees pushes from a handful of threads (its owning rank
// and the peers that target it), so the walk is short. Fully drained
// segments go back to their lane for reuse, so a lane holds only as many
// segments as its largest backlog needed.
//
// Ordering: every entry takes a global push ticket (one fetch_add on a
// shared counter). The consumer drains the lanes into a private min-heap
// ordered by (vtime, ticket) plus a ready-FIFO of already-arrived events.
// The ticket breaks vtime ties in global push order, which subsumes
// per-source FIFO (any one source pushes its events in nondecreasing vtime
// order). Arrived events are promoted heap -> ready-FIFO only when the FIFO
// is empty, so the FIFO is always ascending in (vtime, ticket); the
// earliest pending event is then min(FIFO front, heap top).
//
// Overflow is sticky and fatal-ish, as on real hardware: a push finding
// `depth` events pending drops its event, a counter bumps, and polls report
// QueueFull until clear_overflow() — the middleware sizes CQs so this only
// happens under deliberate fault tests.
//
// Threads: push, size and overflows are safe from any thread; every other
// member is consumer-only (the owning rank's thread).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "fabric/work.hpp"
#include "util/vtime.hpp"

namespace photon::fabric {

class CompletionQueue {
 public:
  /// Entries per lane segment.
  static constexpr std::uint32_t kSegmentSlots = 32;

  explicit CompletionQueue(std::size_t depth);
  ~CompletionQueue();

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Producer side, from any thread (the calling thread's own lane).
  /// Returns false (and records overflow) when full.
  bool push(const Completion& c);

  /// Non-blocking: earliest event with vtime <= now (per-source order kept).
  /// NotFound when nothing has arrived yet; QueueFull after overflow.
  Status poll_ready(Completion& out, std::uint64_t now);

  /// Batched non-blocking drain: up to out.size() arrived events, written in
  /// ascending (vtime, push-order). Ok with n_out >= 1; NotFound when
  /// nothing has arrived; QueueFull after overflow (n_out is 0 in both
  /// failure cases).
  Status poll_ready_batch(std::span<Completion> out, std::size_t& n_out,
                          std::uint64_t now);

  /// Waiting consumer: earliest pending event regardless of its vtime
  /// (caller jumps its clock). NotFound when empty.
  Status poll_min(Completion& out);

  /// Earliest pending virtual arrival time, if any, counting every event
  /// published before the call.
  std::optional<std::uint64_t> min_vtime();

  /// Poll, yielding the thread between attempts, until any event is queued
  /// or `timeout_ns` of real time passes; then pop the earliest.
  Status wait_any(Completion& out, std::uint64_t timeout_ns);

  /// Pushed and not yet popped (a push in progress may already count).
  std::size_t size() const;
  std::uint64_t overflows() const;
  void clear_overflow();
  /// Lane segments allocated so far; recycled segments are not recounted.
  std::uint64_t segments_allocated() const;

 private:
  struct Entry {
    Completion c;
    std::uint64_t ticket;
  };
  struct Segment {
    Entry slots[kSegmentSlots];
    /// Published entries (producer release-stores after writing a slot).
    std::atomic<std::uint32_t> filled{0};
    /// The producer's next segment, linked once this one is full.
    std::atomic<Segment*> next{nullptr};
  };
  struct Lane;

  /// std::*_heap comparator ("less"): true when `a` arrives after `b`,
  /// yielding a min-heap on (vtime, ticket).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.c.vtime != b.c.vtime) return util::vt_after(a.c.vtime, b.c.vtime);
      return a.ticket > b.ticket;
    }
  };

  Segment* take_segment(Lane& lane);
  /// Give `lane` its first segment and publish it on active_.
  void activate(Lane& lane);
  Lane& thread_lane();
  /// Move every published entry from the lanes into the private heap.
  void drain();
  void drain_lane(Lane& lane);
  bool empty() const { return heap_.empty() && ready_.empty(); }
  bool overflowed() const;
  void promote_arrived(std::uint64_t now);
  Completion pop_earliest();
  /// Account for `n` events leaving the queue.
  void popped(std::size_t n);

  const std::size_t depth_;

  // Shared by producers (and the consumer for count_), one line each.
  alignas(64) std::atomic<std::uint64_t> next_ticket_{0};
  alignas(64) std::atomic<std::size_t> count_{0};
  alignas(64) std::atomic<std::uint64_t> overflows_{0};
  /// Every lane that has published an entry, newest first (append-only).
  alignas(64) std::atomic<Lane*> active_{nullptr};
  std::atomic<std::uint64_t> segment_allocs_{0};

  // Consumer-only state.
  alignas(64) Lane* seen_head_ = nullptr;
  std::vector<Lane*> lanes_;
  /// Min-heap on (vtime, ticket).
  std::vector<Entry> heap_;
  /// Arrived events, ascending (vtime, ticket).
  std::deque<Entry> ready_;
};

}  // namespace photon::fabric
