// Completion-queue virtual-arrival semantics (the LogGOPSim contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "fabric/completion_queue.hpp"
#include "util/idle_wait.hpp"
#include "util/rng.hpp"

namespace photon::fabric {
namespace {

Completion mk(std::uint64_t wr, std::uint64_t vt, Rank peer = 1) {
  Completion c;
  c.wr_id = wr;
  c.vtime = vt;
  c.peer = peer;
  return c;
}

TEST(CompletionQueueVt, PollReadyHidesFutureEvents) {
  CompletionQueue cq(16);
  ASSERT_TRUE(cq.push(mk(1, 1000)));
  Completion c;
  EXPECT_EQ(cq.poll_ready(c, 999), Status::NotFound);
  EXPECT_EQ(cq.poll_ready(c, 1000), Status::Ok);
  EXPECT_EQ(c.wr_id, 1u);
}

TEST(CompletionQueueVt, PollReadySkipsFutureHeadForArrivedLater) {
  CompletionQueue cq(16);
  // Pushed in real-time order, but the head is "later" in virtual time
  // (different sources): the arrived event must be reachable.
  ASSERT_TRUE(cq.push(mk(1, 5000, 2)));
  ASSERT_TRUE(cq.push(mk(2, 100, 3)));
  Completion c;
  ASSERT_EQ(cq.poll_ready(c, 200), Status::Ok);
  EXPECT_EQ(c.wr_id, 2u);
  EXPECT_EQ(cq.poll_ready(c, 200), Status::NotFound);
}

TEST(CompletionQueueVt, PollReadyPreservesPerSourceOrder) {
  CompletionQueue cq(16);
  ASSERT_TRUE(cq.push(mk(1, 100, 2)));
  ASSERT_TRUE(cq.push(mk(2, 200, 2)));
  Completion c;
  ASSERT_EQ(cq.poll_ready(c, 1000), Status::Ok);
  EXPECT_EQ(c.wr_id, 1u);
  ASSERT_EQ(cq.poll_ready(c, 1000), Status::Ok);
  EXPECT_EQ(c.wr_id, 2u);
}

TEST(CompletionQueueVt, PollMinReturnsEarliestArrival) {
  CompletionQueue cq(16);
  ASSERT_TRUE(cq.push(mk(1, 5000)));
  ASSERT_TRUE(cq.push(mk(2, 100)));
  ASSERT_TRUE(cq.push(mk(3, 3000)));
  Completion c;
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 2u);
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 3u);
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 1u);
  EXPECT_EQ(cq.poll_min(c), Status::NotFound);
}

TEST(CompletionQueueVt, MinVtimeReportsEarliest) {
  CompletionQueue cq(16);
  EXPECT_FALSE(cq.min_vtime().has_value());
  cq.push(mk(1, 700));
  cq.push(mk(2, 300));
  EXPECT_EQ(cq.min_vtime().value(), 300u);
}

TEST(CompletionQueueVt, OverflowDropsAndSticks) {
  CompletionQueue cq(2);
  EXPECT_TRUE(cq.push(mk(1, 1)));
  EXPECT_TRUE(cq.push(mk(2, 2)));
  EXPECT_FALSE(cq.push(mk(3, 3)));
  EXPECT_EQ(cq.overflows(), 1u);
  Completion c;
  EXPECT_EQ(cq.poll_ready(c, 100), Status::QueueFull);
  EXPECT_EQ(cq.poll_min(c), Status::QueueFull);
  cq.clear_overflow();
  EXPECT_EQ(cq.poll_min(c), Status::Ok);
}

TEST(CompletionQueueVt, SizeTracksContents) {
  CompletionQueue cq(8);
  EXPECT_EQ(cq.size(), 0u);
  cq.push(mk(1, 1));
  cq.push(mk(2, 2));
  EXPECT_EQ(cq.size(), 2u);
  Completion c;
  cq.poll_min(c);
  EXPECT_EQ(cq.size(), 1u);
}

// Equal vtimes must pop in global push order, which in particular keeps
// each source's events FIFO (sources push in nondecreasing vtime order).
TEST(CompletionQueueVt, PerSourceFifoPreservedUnderVtimeTies) {
  CompletionQueue cq(64);
  // Interleave two sources, all at the same vtime.
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(cq.push(mk(/*wr=*/2 * i, /*vt=*/500, /*peer=*/2)));
    ASSERT_TRUE(cq.push(mk(/*wr=*/2 * i + 1, /*vt=*/500, /*peer=*/3)));
  }
  Completion c;
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_EQ(cq.poll_ready(c, 1000), Status::Ok);
    EXPECT_EQ(c.wr_id, i) << "tie broken out of push order";
  }
}

TEST(CompletionQueueVt, PollMinTiesBrokenInPushOrder) {
  CompletionQueue cq(16);
  ASSERT_TRUE(cq.push(mk(1, 300, 2)));
  ASSERT_TRUE(cq.push(mk(2, 300, 3)));
  ASSERT_TRUE(cq.push(mk(3, 100, 4)));
  Completion c;
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 3u);
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 1u);
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 2u);
}

// Randomized: draining with poll_min yields a globally nondecreasing vtime
// sequence and per-source FIFO, whatever the push order across sources.
TEST(CompletionQueueVt, PollMinGlobalVtimeOrderRandomized) {
  util::Xoshiro256 rng(99);
  CompletionQueue cq(4096);
  constexpr int kSources = 5;
  std::uint64_t next_vt[kSources] = {};
  std::uint64_t wr = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto s = static_cast<Rank>(rng.next() % kSources);
    next_vt[s] += rng.next() % 50;  // per-source nondecreasing
    ASSERT_TRUE(cq.push(mk(wr++, next_vt[s], s)));
  }
  Completion c;
  std::uint64_t last_vt = 0;
  std::uint64_t last_wr[kSources];
  std::fill(std::begin(last_wr), std::end(last_wr), ~std::uint64_t{0});
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(cq.poll_min(c), Status::Ok);
    EXPECT_GE(c.vtime, last_vt) << "poll_min vtime went backwards";
    last_vt = c.vtime;
    if (last_wr[c.peer] != ~std::uint64_t{0}) {
      EXPECT_GT(c.wr_id, last_wr[c.peer]) << "per-source FIFO broken";
    }
    last_wr[c.peer] = c.wr_id;
  }
  EXPECT_EQ(cq.poll_min(c), Status::NotFound);
}

// A push with a smaller vtime than events already promoted to the ready
// FIFO must still be found by poll_min (heap vs FIFO interaction).
TEST(CompletionQueueVt, PollMinSeesLateSmallVtimePushAfterPromotion) {
  CompletionQueue cq(16);
  ASSERT_TRUE(cq.push(mk(1, 10)));
  ASSERT_TRUE(cq.push(mk(2, 20)));
  ASSERT_TRUE(cq.push(mk(3, 50)));
  Completion c;
  // Promote all three into the ready FIFO, consume only the first.
  ASSERT_EQ(cq.poll_ready(c, 100), Status::Ok);
  EXPECT_EQ(c.wr_id, 1u);
  // Late producer publishes an earlier arrival than the FIFO's remainder.
  ASSERT_TRUE(cq.push(mk(4, 30)));
  EXPECT_EQ(cq.min_vtime().value(), 20u);
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 2u);
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 4u);  // 30 before 50
  ASSERT_EQ(cq.poll_min(c), Status::Ok);
  EXPECT_EQ(c.wr_id, 3u);
}

TEST(CompletionQueueVt, MinVtimeExactThroughMixedOperations) {
  CompletionQueue cq(64);
  EXPECT_FALSE(cq.min_vtime().has_value());
  cq.push(mk(1, 700));
  EXPECT_EQ(cq.min_vtime().value(), 700u);
  cq.push(mk(2, 300));
  EXPECT_EQ(cq.min_vtime().value(), 300u);
  cq.push(mk(3, 500));
  Completion c;
  ASSERT_EQ(cq.poll_ready(c, 400), Status::Ok);  // pops 300
  EXPECT_EQ(cq.min_vtime().value(), 500u);
  ASSERT_EQ(cq.poll_min(c), Status::Ok);  // pops 500
  EXPECT_EQ(cq.min_vtime().value(), 700u);
  ASSERT_EQ(cq.poll_min(c), Status::Ok);  // pops 700
  EXPECT_FALSE(cq.min_vtime().has_value());
}

TEST(CompletionQueueVt, BatchDrainsArrivedInOrderUpToCapacity) {
  CompletionQueue cq(64);
  ASSERT_TRUE(cq.push(mk(1, 400)));
  ASSERT_TRUE(cq.push(mk(2, 100)));
  ASSERT_TRUE(cq.push(mk(3, 9000)));  // future
  ASSERT_TRUE(cq.push(mk(4, 200)));
  std::vector<Completion> out(2);
  std::size_t n = 0;
  ASSERT_EQ(cq.poll_ready_batch(out, n, 500), Status::Ok);
  ASSERT_EQ(n, 2u);  // capped by the span
  EXPECT_EQ(out[0].wr_id, 2u);
  EXPECT_EQ(out[1].wr_id, 4u);
  ASSERT_EQ(cq.poll_ready_batch(out, n, 500), Status::Ok);
  ASSERT_EQ(n, 1u);  // only one arrived event left
  EXPECT_EQ(out[0].wr_id, 1u);
  EXPECT_EQ(cq.poll_ready_batch(out, n, 500), Status::NotFound);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(cq.size(), 1u);  // the future event stays queued
}

TEST(CompletionQueueVt, BatchSeesEventsPushedAfterPartialDrain) {
  CompletionQueue cq(64);
  for (std::uint64_t i = 0; i < 6; ++i) ASSERT_TRUE(cq.push(mk(i, 10 * i)));
  std::vector<Completion> out(4);
  std::size_t n = 0;
  ASSERT_EQ(cq.poll_ready_batch(out, n, 1000), Status::Ok);
  ASSERT_EQ(n, 4u);
  ASSERT_TRUE(cq.push(mk(100, 5)));  // earlier than the two left over
  ASSERT_EQ(cq.poll_ready_batch(out, n, 1000), Status::Ok);
  ASSERT_EQ(n, 3u);
  // Leftover FIFO first (40, 50), then the promoted late push.
  EXPECT_EQ(out[0].wr_id, 4u);
  EXPECT_EQ(out[1].wr_id, 5u);
  EXPECT_EQ(out[2].wr_id, 100u);
}

TEST(CompletionQueueVt, BatchReportsOverflowLatch) {
  CompletionQueue cq(2);
  EXPECT_TRUE(cq.push(mk(1, 1)));
  EXPECT_TRUE(cq.push(mk(2, 2)));
  EXPECT_FALSE(cq.push(mk(3, 3)));
  std::vector<Completion> out(8);
  std::size_t n = 7;
  EXPECT_EQ(cq.poll_ready_batch(out, n, 100), Status::QueueFull);
  EXPECT_EQ(n, 0u);
  cq.clear_overflow();
  EXPECT_EQ(cq.poll_ready_batch(out, n, 100), Status::Ok);
  EXPECT_EQ(n, 2u);
}

// A consumer polling poll_min must see every push of concurrent producers.
// Run under TSan in CI.
TEST(CompletionQueueVt, PollMinWithConcurrentPushers) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  CompletionQueue cq(kProducers * kPerProducer);
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i)
        cq.push(mk(static_cast<std::uint64_t>(p) * kPerProducer + i, 1000 + i,
                   static_cast<Rank>(p)));  // depth == total, cannot overflow
    });
  }
  go.store(true, std::memory_order_release);
  Completion c;
  const auto pop = [&]() -> std::optional<Status> {
    const Status st = cq.poll_min(c);
    if (st == Status::NotFound) return std::nullopt;
    return st;
  };
  for (int i = 0; i < kProducers * kPerProducer; ++i)
    ASSERT_EQ(util::wait_until(10'000'000'000ULL, pop, [] { return false; }),
              Status::Ok)
        << "event " << i;
  for (auto& t : producers) t.join();
  EXPECT_EQ(cq.size(), 0u);
  EXPECT_EQ(cq.poll_min(c), Status::NotFound);
}

// min_vtime is advisory under concurrency but must settle to the exact
// minimum once producers quiesce.
TEST(CompletionQueueVt, MinVtimeExactAfterConcurrentPushesQuiesce) {
  CompletionQueue cq(1024);
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 100; ++i)
        cq.push(mk(i, 10'000 + static_cast<std::uint64_t>(p * 100) + i,
                   static_cast<Rank>(p)));
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(cq.min_vtime().value(), 10'000u);
}

// ---- lock-free producer lanes ------------------------------------------------

// Several producer threads, each on its own lane, push far more events than
// one segment holds while the consumer drains concurrently: nothing is lost
// or duplicated, every producer's events come out in push order, and the
// popped vtimes never go backwards.
TEST(CompletionQueueLanes, ConcurrentProducersKeepPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer =
      20 * CompletionQueue::kSegmentSlots + 7;  // ends mid-segment
  CompletionQueue cq(kProducers * kPerProducer);
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(cq.push(mk(i, 1000 + i, static_cast<Rank>(p))));
    });
  }
  go.store(true, std::memory_order_release);
  std::uint64_t next[kProducers] = {};
  std::vector<Completion> batch(16);
  std::uint64_t got = 0;
  while (got < kProducers * kPerProducer) {
    std::size_t n = 0;
    // Alternate the batch drain with poll_min so both consumer paths race
    // the producers.
    if (got % 2 == 0) {
      if (cq.poll_ready_batch(batch, n, ~std::uint64_t{0} >> 1) != Status::Ok)
        continue;
    } else if (cq.poll_min(batch[0]) == Status::Ok) {
      n = 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Completion& c = batch[i];
      ASSERT_LT(c.peer, static_cast<Rank>(kProducers));
      ASSERT_EQ(c.wr_id, next[c.peer]) << "producer " << c.peer;
      ++next[c.peer];
    }
    got += n;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(cq.size(), 0u);
  Completion c;
  EXPECT_EQ(cq.poll_min(c), Status::NotFound);
  EXPECT_EQ(cq.overflows(), 0u);
}

// With no consumer, producers racing for the last free entries get exactly
// `depth` pushes accepted and every other push counted as an overflow.
TEST(CompletionQueueLanes, OverflowCountExactUnderConcurrentProducers) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3 * CompletionQueue::kSegmentSlots;
  constexpr std::size_t kDepth = 100;
  CompletionQueue cq(kDepth);
  std::atomic<bool> go{false};
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i)
        if (cq.push(mk(i, 1, static_cast<Rank>(p))))
          accepted.fetch_add(1);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  EXPECT_EQ(accepted.load(), static_cast<int>(kDepth));
  EXPECT_EQ(cq.size(), kDepth);
  EXPECT_EQ(cq.overflows(), kProducers * kPerProducer - kDepth);
  Completion c;
  EXPECT_EQ(cq.poll_min(c), Status::QueueFull);
  cq.clear_overflow();
  std::size_t drained = 0;
  while (cq.poll_min(c) == Status::Ok) ++drained;
  EXPECT_EQ(drained, kDepth);
}

// Drained segments go back to their lane: a long push/drain stream through
// one lane allocates a handful of segments, not one per segment's worth of
// events.
TEST(CompletionQueueLanes, DrainedSegmentsAreReused) {
  CompletionQueue cq(1024);
  Completion c;
  for (std::uint64_t round = 0; round < 200; ++round) {
    for (std::uint64_t i = 0; i < 3 * CompletionQueue::kSegmentSlots; ++i)
      ASSERT_TRUE(cq.push(mk(i, round)));
    for (std::uint64_t i = 0; i < 3 * CompletionQueue::kSegmentSlots; ++i) {
      ASSERT_EQ(cq.poll_min(c), Status::Ok);
      ASSERT_EQ(c.wr_id, i);
    }
  }
  // The backlog peaks at three full segments plus the producer's fresh one.
  EXPECT_LE(cq.segments_allocated(), 5u);
}

// The same reuse under a concurrent producer that keeps at most a bounded
// backlog in flight.
TEST(CompletionQueueLanes, SegmentReuseUnderConcurrentProducer) {
  constexpr std::uint64_t kEvents = 200 * CompletionQueue::kSegmentSlots;
  constexpr std::size_t kBacklog = 2 * CompletionQueue::kSegmentSlots;
  CompletionQueue cq(kBacklog);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents;) {
      if (cq.push(mk(i, i))) {
        ++i;
      } else {
        cq.clear_overflow();  // full: wait for the consumer
        std::this_thread::yield();
      }
    }
  });
  Completion c;
  for (std::uint64_t i = 0; i < kEvents;) {
    const Status st = cq.poll_min(c);
    if (st == Status::Ok) {
      ASSERT_EQ(c.wr_id, i);
      ++i;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  // A bounded backlog needs a bounded number of segments, however long the
  // stream runs (kBacklog spans at most three, plus one being refilled).
  EXPECT_LE(cq.segments_allocated(), 6u);
}

// Every pushing thread gets a lane of its own, and its events stay queued
// after the thread exits.
TEST(CompletionQueueLanes, LanesOutliveTheirThreads) {
  constexpr int kThreads = 6;
  constexpr int kPerThread = 2 * CompletionQueue::kSegmentSlots + 3;
  CompletionQueue cq(kThreads * kPerThread);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        ASSERT_TRUE(cq.push(mk(i, 5, static_cast<Rank>(t))));
    });
  }
  for (auto& t : ts) t.join();
  std::vector<std::uint64_t> next(kThreads, 0);
  Completion c;
  while (cq.poll_ready(c, 5) == Status::Ok) {
    ASSERT_EQ(c.wr_id, next[c.peer]);
    ++next[c.peer];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

// Every field of a completion pushed by producer `p` as its k-th event,
// derived from k so that a consumer can check a slot was read whole.
Completion derived(Rank p, std::uint64_t k) {
  Completion c;
  c.wr_id = k;
  c.imm = k * 0x9e3779b97f4a7c15ULL + p;
  c.vtime = 1000 + k;
  c.result = ~k ^ (std::uint64_t{p} << 56);
  c.byte_len = static_cast<std::uint32_t>(k * 7 + p);
  c.epoch = static_cast<std::uint32_t>(k ^ 0x5a5a5a5aU);
  c.status = static_cast<Status>(k % kStatusCount);
  c.op = static_cast<OpCode>(k % 8);
  c.peer = p;
  return c;
}

void expect_derived(const Completion& c) {
  ASSERT_LT(c.peer, 2u);
  const Completion want = derived(c.peer, c.wr_id);
  EXPECT_EQ(c.imm, want.imm) << "wr " << c.wr_id;
  EXPECT_EQ(c.vtime, want.vtime) << "wr " << c.wr_id;
  EXPECT_EQ(c.result, want.result) << "wr " << c.wr_id;
  EXPECT_EQ(c.byte_len, want.byte_len) << "wr " << c.wr_id;
  EXPECT_EQ(c.epoch, want.epoch) << "wr " << c.wr_id;
  EXPECT_EQ(c.status, want.status) << "wr " << c.wr_id;
  EXPECT_EQ(c.op, want.op) << "wr " << c.wr_id;
}

// A slot's fields and its publication stamp share a cache line, and the
// stamp is stored last: a consumer racing two producers must never see a
// published slot with a field from before the write (a stale or zeroed
// recycled slot), whichever poll it drains with.
TEST(CompletionQueueLanes, PublishedSlotIsNeverSeenHalfWritten) {
  constexpr std::uint64_t kPerProducer = 1000 * CompletionQueue::kSegmentSlots + 5;
  constexpr std::size_t kDepth = 3 * CompletionQueue::kSegmentSlots;
  CompletionQueue cq(kDepth);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};  // set when the consumer gives up
  std::vector<std::thread> producers;
  for (Rank p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t k = 0; k < kPerProducer && !stop.load();) {
        if (cq.push(derived(p, k))) {
          ++k;
        } else {
          std::this_thread::yield();  // full: the consumer clears the latch
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  std::uint64_t next[2] = {};
  std::vector<Completion> batch(16);
  std::uint64_t got = 0;
  for (std::uint64_t round = 0; got < 2 * kPerProducer && !HasFailure(); ++round) {
    std::size_t n = 0;
    Status st;
    if (round % 2 == 0) {
      st = cq.poll_ready_batch(batch, n, ~std::uint64_t{0} >> 1);
    } else {
      st = cq.poll_min(batch[0]);
      n = st == Status::Ok ? 1 : 0;
    }
    if (st == Status::QueueFull) cq.clear_overflow();
    for (std::size_t i = 0; i < n && !HasFailure(); ++i) {
      const Completion& c = batch[i];
      expect_derived(c);
      if (HasFailure()) break;
      EXPECT_EQ(c.wr_id, next[c.peer]) << "producer " << c.peer;
      ++next[c.peer];
    }
    got += n;
  }
  stop.store(true);
  for (auto& t : producers) t.join();
  if (!HasFailure()) {
    EXPECT_EQ(cq.size(), 0u);
  }
}

// A lane caches the pop count it last read. Filling to depth, draining
// everything and filling again must accept every push: a lane that never
// refreshed its cache would see the queue as still full.
TEST(CompletionQueueLanes, AdmitsAFullDepthAgainAfterDrain) {
  constexpr std::size_t kDepth = 2 * CompletionQueue::kSegmentSlots + 9;
  CompletionQueue cq(kDepth);
  Completion c;
  std::uint64_t wr = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < kDepth; ++i)
      ASSERT_TRUE(cq.push(mk(wr++, 10))) << "round " << round << " push " << i;
    EXPECT_EQ(cq.size(), kDepth);
    EXPECT_FALSE(cq.push(mk(wr, 10)));
    cq.clear_overflow();
    for (std::size_t i = 0; i < kDepth; ++i) ASSERT_EQ(cq.poll_min(c), Status::Ok);
    EXPECT_EQ(cq.size(), 0u);
  }
  EXPECT_EQ(cq.overflows(), 0u);
}

// Admission against a live consumer: three producers push into a shallow
// queue while the consumer drains. Every attempt is either accepted or
// counted as an overflow, the consumer never sees more than `depth`
// pending, and at quiescence accepted == popped + size().
TEST(CompletionQueueLanes, AdmissionBalancesAgainstALiveConsumer) {
  constexpr int kProducers = 3;
  constexpr std::uint64_t kAttempts = 20000;
  constexpr std::size_t kDepth = 8;
  CompletionQueue cq(kDepth);
  std::atomic<bool> go{false};
  std::atomic<int> running{kProducers};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t ok = 0;
      for (std::uint64_t i = 0; i < kAttempts; ++i)
        if (cq.push(mk(ok, i, static_cast<Rank>(p)))) ++ok;
      accepted.fetch_add(ok);
      rejected.fetch_add(kAttempts - ok);
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  go.store(true, std::memory_order_release);
  std::uint64_t popped = 0;
  std::size_t max_seen = 0;
  std::vector<Completion> batch(4);
  while (running.load(std::memory_order_acquire) != 0) {
    max_seen = std::max(max_seen, cq.size());
    std::size_t n = 0;
    Status st = cq.poll_ready_batch(batch, n, ~std::uint64_t{0} >> 1);
    if (st == Status::QueueFull) {
      cq.clear_overflow();
      continue;
    }
    popped += n;
    if (st == Status::NotFound && cq.poll_min(batch[0]) == Status::Ok) ++popped;
  }
  for (auto& t : producers) t.join();
  EXPECT_LE(max_seen, kDepth);
  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kAttempts);
  EXPECT_EQ(accepted.load(), popped + cq.size());
  EXPECT_LE(cq.size(), kDepth);
  cq.clear_overflow();
  Completion c;
  while (cq.poll_min(c) == Status::Ok) ++popped;
  EXPECT_EQ(popped, accepted.load());
}

// ---- reference model ----------------------------------------------------------

// The queue's ordering contract, written the slow, obvious way: pending
// events sorted on (vtime, push index), and a ready FIFO that is refilled
// with every arrived pending event only once it is empty (the promotion
// snapshot).
class ReferenceCq {
 public:
  void push(std::uint64_t index, std::uint64_t vtime) {
    const Item it{vtime, index};
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), it), it);
  }
  std::optional<std::uint64_t> poll_ready(std::uint64_t now) {
    promote(now);
    if (ready_.empty()) return std::nullopt;
    const std::uint64_t idx = ready_.front().index;
    ready_.pop_front();
    return idx;
  }
  std::vector<std::uint64_t> poll_ready_batch(std::size_t cap, std::uint64_t now) {
    std::vector<std::uint64_t> out;
    while (out.size() < cap) {
      promote(now);
      if (ready_.empty()) break;
      out.push_back(ready_.front().index);
      ready_.pop_front();
    }
    return out;
  }
  std::optional<std::uint64_t> poll_min() {
    const bool from_ready =
        !ready_.empty() && (pending_.empty() || ready_.front() < pending_.front());
    if (from_ready) {
      const std::uint64_t idx = ready_.front().index;
      ready_.pop_front();
      return idx;
    }
    if (pending_.empty()) return std::nullopt;
    const std::uint64_t idx = pending_.front().index;
    pending_.erase(pending_.begin());
    return idx;
  }
  std::optional<std::uint64_t> min_vtime() const {
    std::optional<std::uint64_t> m;
    if (!ready_.empty()) m = ready_.front().vtime;
    if (!pending_.empty() && (!m || pending_.front().vtime < *m))  // vtime-ok: small test values
      m = pending_.front().vtime;
    return m;
  }
  std::size_t size() const { return ready_.size() + pending_.size(); }

 private:
  struct Item {
    std::uint64_t vtime;
    std::uint64_t index;
    bool operator<(const Item& o) const {
      return vtime != o.vtime ? vtime < o.vtime : index < o.index;  // vtime-ok
    }
  };
  void promote(std::uint64_t now) {
    if (!ready_.empty()) return;
    while (!pending_.empty() && pending_.front().vtime <= now) {  // vtime-ok
      ready_.push_back(pending_.front());
      pending_.erase(pending_.begin());
    }
  }
  std::vector<Item> pending_;
  std::deque<Item> ready_;
};

// Randomized differential test against ReferenceCq. Phases alternate
// push-heavy and poll-heavy mixes, so the in-order run fills past its
// first capacity (growth), drains and refills across its end (wrap), and
// out-of-order pushes land in the straggler heap beside it. Bursts pushed
// from short-lived threads add lanes whose entries drain out of ticket
// order. Every pop is compared by push index; size() and min_vtime() are
// compared after every step.
TEST(CompletionQueueVt, MatchesReferenceModelUnderRandomOps) {
  util::Xoshiro256 rng(20261017);
  CompletionQueue cq(1 << 16);
  ReferenceCq ref;
  std::uint64_t next_index = 0;
  std::uint64_t frontier = 1000;  // the in-order producers' vtime
  const auto next_vtime = [&] {
    if (rng.below(8) == 0) return frontier - rng.below(900);  // straggler
    frontier += rng.below(4) == 0 ? 0 : rng.below(20);        // ties too
    return frontier;
  };
  const auto push_one = [&](std::uint64_t vt) {
    ASSERT_TRUE(cq.push(mk(next_index, vt)));
    ref.push(next_index++, vt);
  };
  std::vector<Completion> batch(24);
  for (int phase = 0; phase < 60; ++phase) {
    const std::uint64_t push_pct = phase % 3 == 0 ? 85 : phase % 3 == 1 ? 50 : 20;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t now = frontier - 150 + rng.below(200);
      const std::uint64_t roll = rng.below(100);
      if (roll < push_pct) {
        if (rng.below(64) == 0) {
          // A burst from another thread: its own lane, admitted in order.
          std::vector<std::uint64_t> vts(1 + rng.below(40));
          for (auto& vt : vts) vt = next_vtime();
          std::thread([&] {
            for (const std::uint64_t vt : vts) ASSERT_TRUE(cq.push(mk(next_index++, vt)));
          }).join();
          for (std::uint64_t i = 0; i < vts.size(); ++i)
            ref.push(next_index - vts.size() + i, vts[i]);
        } else {
          push_one(next_vtime());
        }
      } else {
        Completion c;
        switch (rng.below(4)) {
          case 0: {
            const auto want = ref.poll_ready(now);
            const Status st = cq.poll_ready(c, now);
            ASSERT_EQ(st == Status::Ok, want.has_value()) << "step " << step;
            if (want) {
              ASSERT_EQ(c.wr_id, *want);
            }
            break;
          }
          case 1: {
            const std::size_t cap = 1 + rng.below(batch.size());
            const auto want = ref.poll_ready_batch(cap, now);
            std::size_t n = 0;
            const Status st = cq.poll_ready_batch(
                std::span<Completion>(batch.data(), cap), n, now);
            ASSERT_EQ(st == Status::Ok, !want.empty());
            ASSERT_EQ(n, want.size());
            for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(batch[i].wr_id, want[i]);
            break;
          }
          case 2: {
            const auto want = ref.poll_min();
            const Status st = cq.poll_min(c);
            ASSERT_EQ(st == Status::Ok, want.has_value());
            if (want) {
              ASSERT_EQ(c.wr_id, *want);
            }
            break;
          }
          default:
            ASSERT_EQ(cq.min_vtime(), ref.min_vtime());
            break;
        }
      }
      ASSERT_EQ(cq.size(), ref.size());
      ASSERT_EQ(cq.min_vtime(), ref.min_vtime());
    }
  }
  for (;;) {
    const auto want = ref.poll_min();
    Completion c;
    const Status st = cq.poll_min(c);
    ASSERT_EQ(st == Status::Ok, want.has_value());
    if (!want) break;
    ASSERT_EQ(c.wr_id, *want);
  }
}

}  // namespace
}  // namespace photon::fabric
