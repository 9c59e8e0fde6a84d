#include "fabric/completion_queue.hpp"

#include <algorithm>

namespace photon::fabric {

using util::vt_before_eq;

struct alignas(64) CompletionQueue::Lane {
  // Producer side: written only by the lane's producer thread.
  Segment* tail = nullptr;
  std::uint32_t tail_pos = 0;
  /// The last popped_ this producer read; popped_ only grows, so it is a
  /// lower bound on the live value.
  std::uint64_t popped_seen = 0;
  /// Serial of the thread owning the lane.
  std::uint64_t thread_key = 0;
  /// Written before the lane is published on active_, immutable after.
  Lane* next_active = nullptr;
  /// Recycled segments the producer took from `returned`, linked by next.
  Segment* free = nullptr;
  /// Drained segments handed back by the consumer: a stack it pushes onto
  /// and the producer empties whole, so no pop can suffer ABA.
  std::atomic<Segment*> returned{nullptr};

  // Consumer side (the producer sets head once, before publishing the lane).
  alignas(64) Segment* head = nullptr;
  std::uint32_t head_pos = 0;
};

namespace {
std::uint64_t this_thread_serial() {
  static std::atomic<std::uint64_t> next{0};
  // relaxed-ok: the fetch_add only has to hand every thread a distinct
  // value; nothing is published through it.
  thread_local const std::uint64_t serial =
      next.fetch_add(1, std::memory_order_relaxed) + 1;
  return serial;
}
}  // namespace

CompletionQueue::CompletionQueue(std::size_t depth) : depth_(depth) {}

CompletionQueue::~CompletionQueue() {
  // Every segment is on exactly one chain: a lane's head..tail, its private
  // free list, or its returned stack.
  Lane* l = active_.load(std::memory_order_acquire);
  while (l != nullptr) {
    Lane* next = l->next_active;
    for (Segment* chain : {l->head, l->free,
                           l->returned.load(std::memory_order_acquire)}) {
      while (chain != nullptr) {
        Segment* n = chain->next.load(std::memory_order_acquire);
        delete chain;
        chain = n;
      }
    }
    delete l;
    l = next;
  }
}

// ---- producer side ----------------------------------------------------------

CompletionQueue::Segment* CompletionQueue::take_segment(Lane& lane) {
  if (lane.free == nullptr)
    lane.free = lane.returned.exchange(nullptr, std::memory_order_acquire);
  Segment* s = lane.free;
  if (s == nullptr) {
    // relaxed-ok: allocation statistic, read only for introspection.
    segment_allocs_.fetch_add(1, std::memory_order_relaxed);
    return new Segment;
  }
  // The segment is ours alone now; the release that links it into the lane
  // publishes the reset to the consumer.
  // relaxed-ok: ordered by the acquire exchange above and that release.
  lane.free = s->next.load(std::memory_order_relaxed);
  // relaxed-ok: as above.
  s->next.store(nullptr, std::memory_order_relaxed);
  // relaxed-ok: as above.
  for (Slot& slot : s->slots) slot.stamp.store(0, std::memory_order_relaxed);
  return s;
}

void CompletionQueue::activate(Lane& lane) {
  Segment* s = take_segment(lane);
  lane.tail = s;
  lane.head = s;
  // The release CAS publishes head and next_active with the lane.
  // relaxed-ok: the initial guess is re-read by the CAS on failure.
  lane.next_active = active_.load(std::memory_order_relaxed);
  while (!active_.compare_exchange_weak(lane.next_active, &lane,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
    // relaxed-ok: failure order; the successful CAS is the release.
  }
}

CompletionQueue::Lane& CompletionQueue::thread_lane() {
  const std::uint64_t key = this_thread_serial();
  for (Lane* l = active_.load(std::memory_order_acquire); l != nullptr;
       l = l->next_active) {
    if (l->thread_key == key) return *l;
  }
  Lane* l = new Lane;
  l->thread_key = key;
  activate(*l);
  return *l;
}

bool CompletionQueue::push(const Completion& c) {
  Lane& lane = thread_lane();
  // Admit and take a ticket in one CAS: exactly `depth` pushes can be
  // pending, however many producers race for the last slot, and the
  // modification order of pushed_ is the global admission order.
  // relaxed-ok: entries are published through their slot's stamp, never
  // through pushed_; the CAS re-reads it on failure.
  std::uint64_t cur = pushed_.load(std::memory_order_relaxed);
  do {
    if (cur >= lane.popped_seen + depth_) {
      // Looks full against the cached pop count: re-read before rejecting.
      // The acquire pairs with the consumer's release in popped(), so every
      // push counted in the value read is already visible to the CAS.
      lane.popped_seen = popped_.load(std::memory_order_acquire);
      if (cur >= lane.popped_seen + depth_) {
        // relaxed-ok: sticky latch and statistic; no data rides on it.
        overflows_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
  } while (!pushed_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_relaxed));

  if (lane.tail_pos == kSegmentSlots) {
    Segment* s = take_segment(lane);
    lane.tail->next.store(s, std::memory_order_release);
    lane.tail = s;
    lane.tail_pos = 0;
  }
  Slot& slot = lane.tail->slots[lane.tail_pos++];
  slot.e = Packed{c.wr_id,    c.imm,   c.vtime, c.result, c.byte_len,
                  c.epoch,    c.peer,  c.status, c.op};
  slot.stamp.store(cur + 1, std::memory_order_release);
  return true;
}

// ---- consumer side ----------------------------------------------------------

void CompletionQueue::drain_lane(Lane& lane) {
  for (;;) {
    Segment* s = lane.head;
    for (; lane.head_pos < kSegmentSlots; ++lane.head_pos) {
      const Slot& slot = s->slots[lane.head_pos];
      const std::uint64_t stamp = slot.stamp.load(std::memory_order_acquire);
      if (stamp == 0) return;
      file(slot.e, stamp - 1);
    }
    Segment* next = s->next.load(std::memory_order_acquire);
    if (next == nullptr) return;  // the producer has not moved on yet
    lane.head = next;
    lane.head_pos = 0;
    // The producer left `s` for good when it linked `next`: hand it back.
    // relaxed-ok: the CAS below re-reads the top on failure.
    Segment* top = lane.returned.load(std::memory_order_relaxed);
    do {
      // relaxed-ok: published by the release CAS.
      s->next.store(top, std::memory_order_relaxed);
    } while (!lane.returned.compare_exchange_weak(top, s,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed));
  }
}

void CompletionQueue::drain() {
  Lane* head = active_.load(std::memory_order_acquire);
  for (Lane* l = head; l != seen_head_; l = l->next_active) lanes_.push_back(l);
  seen_head_ = head;
  for (Lane* l : lanes_) drain_lane(*l);
}

// An entry joins the run when it sorts after the run's last entry (always,
// for a source pushing alone in vtime order); anything else is a straggler.
// It is written at the run's tail first and stays there if it belongs.
void CompletionQueue::file(const Packed& e, std::uint64_t ticket) {
  if (run_size() == run_.size()) grow_run();
  const std::size_t mask = run_.size() - 1;
  Entry& tail = run_[run_tail_ & mask];
  tail.e = e;
  tail.ticket = ticket;
  if (run_size() == 0 || Later{}(tail, run_[(run_tail_ - 1) & mask])) {
    ++run_tail_;
    return;
  }
  heap_.push_back(tail);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void CompletionQueue::grow_run() {
  std::vector<Entry> bigger(std::max<std::size_t>(64, 2 * run_.size()));
  const std::size_t n = run_size();
  for (std::size_t i = 0; i < n; ++i)
    bigger[i] = run_[(run_head_ + i) & (run_.size() - 1)];
  run_.swap(bigger);
  run_head_ = 0;
  run_tail_ = n;
}

bool CompletionQueue::run_is_min() const {
  return run_size() != 0 &&
         (heap_.empty() || !Later{}(run_front(), heap_.front()));
}

const CompletionQueue::Entry* CompletionQueue::pending_min() const {
  if (run_is_min()) return &run_front();
  return heap_.empty() ? nullptr : &heap_.front();
}

void CompletionQueue::pop_pending() {
  if (run_is_min()) {
    ++run_head_;
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

bool CompletionQueue::overflowed() const {
  // relaxed-ok: sticky latch; a poll racing the overflowing push may miss it
  // once, exactly as it could have run just before that push.
  return overflows_.load(std::memory_order_relaxed) != 0;
}

void CompletionQueue::popped(std::size_t n) {
  // Only this thread writes popped_. The release makes every push counted
  // by the pops it reports visible to a producer that reads it (see push).
  // relaxed-ok: single writer reading its own last store.
  popped_.store(popped_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
}

// Promotion only runs when the ready-FIFO is empty: a single promotion
// batch takes pending entries in ascending (vtime, ticket) order, so the
// FIFO stays sorted. Mixing batches could interleave a later, smaller-vtime
// push behind an earlier promotion and break poll_min's global ordering.
void CompletionQueue::promote_arrived(std::uint64_t now) {
  if (!ready_empty()) return;
  ready_.clear();
  ready_head_ = 0;
  for (const Entry* e = pending_min(); e != nullptr && vt_before_eq(e->e.vtime, now);
       e = pending_min()) {
    ready_.push_back(*e);
    pop_pending();
  }
}

const CompletionQueue::Entry* CompletionQueue::earliest() const {
  // The FIFO is ascending, so its front is its minimum; compare it with the
  // earliest pending entry on the full (vtime, ticket) key.
  const Entry* pending = pending_min();
  if (ready_empty()) return pending;
  const Entry* front = &ready_[ready_head_];
  return pending == nullptr || !Later{}(*front, *pending) ? front : pending;
}

Completion CompletionQueue::unpack(const Entry& en) {
  const Packed& e = en.e;
  return Completion{.wr_id = e.wr_id, .op = e.op, .status = e.status,
                    .peer = e.peer, .imm = e.imm, .byte_len = e.byte_len,
                    .vtime = e.vtime, .result = e.result, .epoch = e.epoch};
}

Status CompletionQueue::poll_ready(Completion& out, std::uint64_t now) {
  std::size_t n = 0;
  return poll_ready_batch(std::span<Completion>(&out, 1), n, now);
}

Status CompletionQueue::poll_ready_batch(std::span<Completion> out,
                                         std::size_t& n_out,
                                         std::uint64_t now) {
  n_out = 0;
  if (overflowed()) return Status::QueueFull;
  drain();
  // The rest of an earlier promotion goes first.
  while (n_out < out.size() && !ready_empty())
    out[n_out++] = unpack(ready_[ready_head_++]);
  if (n_out < out.size()) {
    // A fresh promotion, written straight to `out`; whatever arrived but
    // does not fit is promoted to the FIFO, as if all of it had been.
    for (const Entry* e = pending_min(); n_out < out.size() && e != nullptr &&
                                         vt_before_eq(e->e.vtime, now);
         e = pending_min()) {
      out[n_out++] = unpack(*e);
      pop_pending();
    }
    if (n_out == out.size()) promote_arrived(now);
  }
  if (n_out == 0) return Status::NotFound;
  popped(n_out);
  return Status::Ok;
}

Status CompletionQueue::poll_min(Completion& out) {
  if (overflowed()) return Status::QueueFull;
  drain();
  const Entry* e = earliest();
  if (e == nullptr) return Status::NotFound;
  out = unpack(*e);
  if (ready_empty() || e != &ready_[ready_head_]) {
    pop_pending();
  } else {
    ++ready_head_;
  }
  popped(1);
  return Status::Ok;
}

std::optional<std::uint64_t> CompletionQueue::min_vtime() {
  drain();
  const Entry* e = earliest();
  if (e == nullptr) return std::nullopt;
  return e->e.vtime;
}

std::size_t CompletionQueue::size() const {
  // Pops first: the acquire pairs with popped()'s release, so the push
  // count read next covers every push those pops consumed.
  const std::uint64_t pops = popped_.load(std::memory_order_acquire);
  // relaxed-ok: a snapshot of the admission counter.
  return static_cast<std::size_t>(pushed_.load(std::memory_order_relaxed) - pops);
}

std::uint64_t CompletionQueue::overflows() const {
  // relaxed-ok: statistic read.
  return overflows_.load(std::memory_order_relaxed);
}

void CompletionQueue::clear_overflow() {
  // relaxed-ok: the latch orders no data (see overflowed()).
  overflows_.store(0, std::memory_order_relaxed);
}

std::uint64_t CompletionQueue::segments_allocated() const {
  // relaxed-ok: statistic read.
  return segment_allocs_.load(std::memory_order_relaxed);
}

}  // namespace photon::fabric
