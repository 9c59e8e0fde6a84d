#include "fabric/completion_queue.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace photon::fabric {

using util::vt_before_eq;

struct alignas(64) CompletionQueue::Lane {
  // Producer side: written only by the lane's producer thread.
  Segment* tail = nullptr;
  std::uint32_t tail_pos = 0;
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
  s->filled.store(0, std::memory_order_relaxed);
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
  // Reserve room first: exactly `depth` pushes can be pending, however many
  // producers race for the last slot.
  // relaxed-ok: an admission counter; entries are published through the
  // lane's fill count, never through count_.
  std::size_t cur = count_.load(std::memory_order_relaxed);
  do {
    if (cur >= depth_) {
      // relaxed-ok: sticky latch and statistic; no data rides on it.
      overflows_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  } while (!count_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_relaxed));
  // relaxed-ok: the modification order of the counter alone defines push
  // order; the entry itself is published by the fill-count release below.
  const std::uint64_t ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);

  Lane& lane = thread_lane();
  if (lane.tail_pos == kSegmentSlots) {
    Segment* s = take_segment(lane);
    lane.tail->next.store(s, std::memory_order_release);
    lane.tail = s;
    lane.tail_pos = 0;
  }
  lane.tail->slots[lane.tail_pos] = Entry{c, ticket};
  lane.tail->filled.store(++lane.tail_pos, std::memory_order_release);
  return true;
}

// ---- consumer side ----------------------------------------------------------

void CompletionQueue::drain_lane(Lane& lane) {
  for (;;) {
    Segment* s = lane.head;
    const std::uint32_t filled = s->filled.load(std::memory_order_acquire);
    for (; lane.head_pos < filled; ++lane.head_pos) {
      heap_.push_back(s->slots[lane.head_pos]);
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    if (filled < kSegmentSlots) return;
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

bool CompletionQueue::overflowed() const {
  // relaxed-ok: sticky latch; a poll racing the overflowing push may miss it
  // once, exactly as it could have run just before that push.
  return overflows_.load(std::memory_order_relaxed) != 0;
}

void CompletionQueue::popped(std::size_t n) {
  // relaxed-ok: admission counter (see push).
  count_.fetch_sub(n, std::memory_order_relaxed);
}

// Promotion only runs when the ready-FIFO is empty: a single promotion
// batch pops the heap in ascending (vtime, ticket) order, so the FIFO stays
// sorted. Mixing batches could interleave a later, smaller-vtime push
// behind an earlier promotion and break poll_min's global ordering.
void CompletionQueue::promote_arrived(std::uint64_t now) {
  if (!ready_.empty()) return;
  while (!heap_.empty() && vt_before_eq(heap_.front().c.vtime, now)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    ready_.push_back(heap_.back());
    heap_.pop_back();
  }
}

Completion CompletionQueue::pop_earliest() {
  // The FIFO is ascending, so its front is its minimum; compare it with the
  // heap top on the full (vtime, ticket) key.
  if (!ready_.empty() && (heap_.empty() || !Later{}(ready_.front(), heap_.front()))) {
    Completion c = ready_.front().c;
    ready_.pop_front();
    return c;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Completion c = heap_.back().c;
  heap_.pop_back();
  return c;
}

Status CompletionQueue::poll_ready(Completion& out, std::uint64_t now) {
  if (overflowed()) return Status::QueueFull;
  drain();
  promote_arrived(now);
  if (ready_.empty()) return Status::NotFound;
  out = ready_.front().c;
  ready_.pop_front();
  popped(1);
  return Status::Ok;
}

Status CompletionQueue::poll_ready_batch(std::span<Completion> out,
                                         std::size_t& n_out,
                                         std::uint64_t now) {
  n_out = 0;
  if (overflowed()) return Status::QueueFull;
  drain();
  while (n_out < out.size()) {
    promote_arrived(now);
    if (ready_.empty()) break;
    const std::size_t take = std::min(out.size() - n_out, ready_.size());
    for (std::size_t i = 0; i < take; ++i) out[n_out + i] = ready_[i].c;
    ready_.erase(ready_.begin(), ready_.begin() + take);
    n_out += take;
  }
  if (n_out == 0) return Status::NotFound;
  popped(n_out);
  return Status::Ok;
}

Status CompletionQueue::poll_min(Completion& out) {
  if (overflowed()) return Status::QueueFull;
  drain();
  if (empty()) return Status::NotFound;
  out = pop_earliest();
  popped(1);
  return Status::Ok;
}

std::optional<std::uint64_t> CompletionQueue::min_vtime() {
  drain();
  if (empty()) return std::nullopt;
  if (ready_.empty()) return heap_.front().c.vtime;
  if (heap_.empty()) return ready_.front().c.vtime;
  return util::vt_min(ready_.front().c.vtime, heap_.front().c.vtime);
}

Status CompletionQueue::wait_any(Completion& out, std::uint64_t timeout_ns) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout_ns);
  for (;;) {
    const Status st = poll_min(out);
    if (st != Status::NotFound) return st;
    if (std::chrono::steady_clock::now() >= deadline) return Status::NotFound;
    std::this_thread::yield();
  }
}

std::size_t CompletionQueue::size() const {
  // relaxed-ok: a snapshot of the admission counter.
  return count_.load(std::memory_order_relaxed);
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
