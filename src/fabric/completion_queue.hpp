// Bounded completion queue with virtual-time arrival semantics.
//
// Producers are rank threads delivering events; the consumer is the owning
// rank. Every completion carries a virtual delivery timestamp:
//   * poll_ready(now) — non-blocking; returns only events that have
//     "arrived" (vtime <= now). Polling never moves time forward.
//   * poll_min — the consumer *waits*: the earliest pending
//     event is returned even if its vtime is in the future (the caller then
//     jumps its clock to the arrival time, LogGOPSim-style).
//
// Admission (producer-only): one CAS on the shared push count both admits a
// push and issues its ticket, the push's place in global admission order.
// Only the consumer writes the pop count. A lane compares the push count
// with the last pop count it read and re-reads the pop count only when that
// makes the queue look full: the pop count only grows, so a stale copy can
// never over-admit, and the re-read before rejecting means no push is
// refused while there is room.
//
// Hand-off (lock-free): each producer thread appends to its own
// single-producer lane, a chain of small fixed-size segments allocated on
// the thread's first push. A slot is one cache line: a packed copy of the
// completion plus a publication stamp (ticket + 1; 0 = unpublished) that the
// producer release-stores after the fields, exactly as an RDMA initiator
// writes a payload whose last word is the flag the target polls. A lane
// becomes visible to the consumer by a CAS onto an append-only list the
// first time it is used, and a push finds its thread's lane by walking that
// list: a queue sees pushes from a handful of threads (its owning rank and
// the peers that target it), so the walk is short. Fully drained segments
// go back to their lane, which zeroes their stamps before relinking them,
// so a lane holds only as many segments as its largest backlog needed.
//
// Ordering: events pop in (vtime, ticket) order. The ticket breaks vtime
// ties in global admission order, which subsumes per-source FIFO (any one
// source pushes its events in nondecreasing vtime order). The consumer
// files each drained entry into a private in-order run, a ring that takes
// every entry whose key is above the run's last one (the data path pushes
// almost every event in vtime order), or else into a straggler min-heap;
// the earliest pending entry is min(run front, heap top). Arrived events
// move to a ready-FIFO only when the FIFO is empty, so the FIFO is always
// ascending in (vtime, ticket) and is a snapshot: events drained after a
// promotion wait behind it; the earliest event is min(FIFO front, pending).
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

  /// Pushed and not yet popped (a push in progress may already count).
  std::size_t size() const;
  std::uint64_t overflows() const;
  // test-only-ok: CQ and NIC tests reset the overflow latch.
  void clear_overflow();
  /// Lane segments allocated so far; recycled segments are not recounted.
  // test-only-ok: oracle for the lane-recycling tests.
  std::uint64_t segments_allocated() const;

 private:
  /// Every Completion field, packed to leave room for a stamp in one line.
  struct Packed {
    std::uint64_t wr_id;
    std::uint64_t imm;
    std::uint64_t vtime;
    std::uint64_t result;
    std::uint32_t byte_len;
    std::uint32_t epoch;
    Rank peer;
    Status status;
    OpCode op;
  };
  struct alignas(64) Slot {
    Packed e;
    /// ticket + 1 once `e` is written (producer release-stores); 0 before.
    std::atomic<std::uint64_t> stamp{0};
  };
  static_assert(sizeof(Slot) == 64, "a slot is one cache line");
  struct Segment {
    Slot slots[kSegmentSlots];
    /// The producer's next segment, linked once this one is full.
    std::atomic<Segment*> next{nullptr};
  };
  struct Lane;
  /// A drained slot, private to the consumer.
  struct Entry {
    Packed e;
    std::uint64_t ticket;
  };

  /// std::*_heap comparator ("less"): true when `a` arrives after `b`,
  /// yielding a min-heap on (vtime, ticket).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.e.vtime != b.e.vtime) return util::vt_after(a.e.vtime, b.e.vtime);
      return a.ticket > b.ticket;
    }
  };

  Segment* take_segment(Lane& lane);
  /// Give `lane` its first segment and publish it on active_.
  void activate(Lane& lane);
  Lane& thread_lane();
  /// Move every published entry from the lanes into the run or the heap.
  void drain();
  void drain_lane(Lane& lane);
  void file(const Packed& e, std::uint64_t ticket);
  void grow_run();
  std::size_t run_size() const { return run_tail_ - run_head_; }
  const Entry& run_front() const { return run_[run_head_ & (run_.size() - 1)]; }
  /// True when the run is non-empty and its front is the earliest pending.
  bool run_is_min() const;
  /// Earliest entry of the run and the heap; nullptr when both are empty.
  const Entry* pending_min() const;
  /// Remove pending_min(), which must be non-null.
  void pop_pending();
  bool ready_empty() const { return ready_head_ == ready_.size(); }
  /// Earliest of the FIFO front and pending_min(); nullptr when empty.
  const Entry* earliest() const;
  bool overflowed() const;
  void promote_arrived(std::uint64_t now);
  static Completion unpack(const Entry& e);
  /// Account for `n` events leaving the queue.
  void popped(std::size_t n);

  const std::size_t depth_;

  // Shared, one line each. pushed_ is written only by producers (one CAS
  // per push), popped_ only by the consumer.
  alignas(64) std::atomic<std::uint64_t> pushed_{0};
  alignas(64) std::atomic<std::uint64_t> popped_{0};
  alignas(64) std::atomic<std::uint64_t> overflows_{0};
  /// Every lane that has published an entry, newest first (append-only).
  alignas(64) std::atomic<Lane*> active_{nullptr};
  std::atomic<std::uint64_t> segment_allocs_{0};

  // Consumer-only state. Storage grows on first use, never shrinks.
  alignas(64) Lane* seen_head_ = nullptr;
  std::vector<Lane*> lanes_;
  /// In-order run: ascending (vtime, ticket), a power-of-two ring indexed
  /// by free-running counters.
  std::vector<Entry> run_;
  std::size_t run_head_ = 0;
  std::size_t run_tail_ = 0;
  /// Straggler min-heap on (vtime, ticket).
  std::vector<Entry> heap_;
  /// Arrived events, ascending (vtime, ticket), from ready_head_ on.
  std::vector<Entry> ready_;
  std::size_t ready_head_ = 0;
};

}  // namespace photon::fabric
