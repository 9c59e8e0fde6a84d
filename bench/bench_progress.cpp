// Progress-path microbenchmarks: host (wall-clock) cost of the completion
// queue and of Photon::progress(), independent of the virtual wire model.
//
// The completion queue is the hot structure of every progress loop: each
// spin polls both CQs, and blocking waits read min_vtime() to decide how
// far to jump. The seed implementation was a flat deque with linear scans,
// so an empty poll and every poll_min cost O(n) in queue depth; the current
// implementation hands each completion over in one cache line of a
// lock-free producer lane and files it into an in-order run (a ring), or a
// (vtime, ticket) straggler heap when it arrives out of order, with a ready
// FIFO in front. To keep the speedup measurable forever, this bench carries
// a verbatim copy of the seed structure (`LegacyCq` below) and reports both
// series side by side.
//
// Series, per depth in {256, 4096, 65536}:
//   push        ns per push into the current queue
//   drain(min)  ns per completion when draining via poll_min
//   poll(empty) ns per poll_ready call when nothing has arrived yet --
//               the dominant cost of a progress spin with events in flight
//   drain(rdy)  ns per completion draining arrived events one at a time
//   batch64     ns per completion draining via poll_ready_batch (span of 64)
//   in-order    batch64 with monotone vtimes, as the data path pushes them
//   min_vtime   ns per min_vtime() query on a full queue
// plus a two-thread hand-off row (one producer thread pushing monotone
// vtimes into a bounded queue, the consumer draining with poll_ready_batch;
// wall ns per completion) and one Photon-level row: wall ns per delivered
// signal for a saturated 2-rank signal stream (posts, batched CQ drains,
// probe queue, wait_event).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "benchsupport/harness.hpp"
#include "benchsupport/report.hpp"
#include "benchsupport/table.hpp"
#include "fabric/completion_queue.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"
#include "util/vtime.hpp"

using namespace photon;
using benchsupport::run_spmd_vtime;
using fabric::Completion;
using fabric::CompletionQueue;

namespace {

// ---------------------------------------------------------------------------
// Reference: the pre-heap completion queue (flat deque, linear scans), kept
// here verbatim so the bench compares against a fixed baseline rather than
// against whatever the library currently ships.
class LegacyCq {
 public:
  explicit LegacyCq(std::size_t depth) : depth_(depth) {}

  bool push(const Completion& c) {
    util::LockGuard lock(mutex_);
    if (items_.size() >= depth_) return false;
    items_.push_back(c);
    return true;
  }

  Status poll_ready(Completion& out, std::uint64_t now) {
    util::LockGuard lock(mutex_);
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (util::vt_before_eq(it->vtime, now)) {
        out = *it;
        items_.erase(it);
        return Status::Ok;
      }
    }
    return Status::NotFound;
  }

  Status poll_min(Completion& out) {
    util::LockGuard lock(mutex_);
    if (items_.empty()) return Status::NotFound;
    auto min_it = std::min_element(items_.begin(), items_.end(),
                                   [](const Completion& a, const Completion& b) {
                                     return util::vt_before(a.vtime, b.vtime);
                                   });
    out = *min_it;
    items_.erase(min_it);
    return Status::Ok;
  }

  std::optional<std::uint64_t> min_vtime() const {
    util::LockGuard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::uint64_t m = ~std::uint64_t{0};
    for (const auto& c : items_) m = std::min(m, c.vtime);  // vtime-ok: sentinel min
    return m;
  }

 private:
  mutable util::Mutex mutex_;
  std::deque<Completion> items_ GUARDED_BY(mutex_);
  std::size_t depth_;
};

// ---------------------------------------------------------------------------
constexpr std::uint64_t kFarFuture = ~std::uint64_t{0} >> 1;

// vtime_range == 0: every event at vtime 0. kInOrder: vtime = index.
constexpr std::uint64_t kInOrder = ~std::uint64_t{0};

std::vector<Completion> make_events(std::size_t n, std::uint64_t vtime_range) {
  util::Xoshiro256 rng(0x9e3779b97f4a7c15ULL + n);
  std::vector<Completion> evs(n);
  for (std::size_t i = 0; i < n; ++i) {
    evs[i].wr_id = i;
    evs[i].peer = static_cast<fabric::Rank>(i % 8);
    evs[i].vtime = vtime_range == kInOrder ? i
                   : vtime_range == 0      ? 0
                                           : rng.below(vtime_range);
  }
  return evs;
}

// Results, collected for the end-of-run table. g_rows[depth] columns match
// the series list in the header comment; index 1/5 hold the legacy series.
struct Row {
  double push_ns = 0;
  double legacy_drain_min_ns = 0;
  double drain_min_ns = 0;
  double legacy_poll_empty_ns = 0;
  double poll_empty_ns = 0;
  double drain_ready_ns = 0;
  double drain_batch_ns = 0;
  double drain_in_order_ns = 0;
  double legacy_min_vtime_ns = 0;
  double min_vtime_ns = 0;
};
std::map<std::size_t, Row> g_rows;
double g_handoff_ns = 0;
double g_progress_ns_per_event = 0;

template <class Fn>
double timed_ns_per_op(std::size_t ops, Fn&& fn) {
  util::WallTimer t;
  fn();
  return static_cast<double>(t.elapsed_ns()) / static_cast<double>(ops);
}

void BM_CqPush(benchmark::State& st) {
  const auto depth = static_cast<std::size_t>(st.range(0));
  const auto evs = make_events(depth, kFarFuture);
  for (auto _ : st) {
    CompletionQueue cq(depth);
    const double ns = timed_ns_per_op(depth, [&] {
      for (const auto& e : evs) cq.push(e);
    });
    g_rows[depth].push_ns = ns;
    st.SetIterationTime(ns * static_cast<double>(depth) / 1e9);
  }
}

template <class Q>
void drain_min_bench(benchmark::State& st, double Row::*slot) {
  const auto depth = static_cast<std::size_t>(st.range(0));
  const auto evs = make_events(depth, kFarFuture);
  for (auto _ : st) {
    Q cq(depth);
    for (const auto& e : evs) cq.push(e);
    Completion c;
    const double ns = timed_ns_per_op(depth, [&] {
      while (cq.poll_min(c) == Status::Ok) benchmark::DoNotOptimize(c);
    });
    g_rows[depth].*slot = ns;
    st.SetIterationTime(ns * static_cast<double>(depth) / 1e9);
  }
}
void BM_LegacyDrainMin(benchmark::State& st) {
  drain_min_bench<LegacyCq>(st, &Row::legacy_drain_min_ns);
}
void BM_DrainMin(benchmark::State& st) {
  drain_min_bench<CompletionQueue>(st, &Row::drain_min_ns);
}

// Cost of one progress spin while every event is still in the virtual
// future: poll_ready must report NotFound without disturbing the queue.
template <class Q>
void poll_empty_bench(benchmark::State& st, double Row::*slot) {
  constexpr std::size_t kPolls = 4096;
  const auto depth = static_cast<std::size_t>(st.range(0));
  const auto evs = make_events(depth, 0);  // then shift into the future
  Q cq(depth);
  for (auto e : evs) {
    e.vtime += kFarFuture;
    cq.push(e);
  }
  for (auto _ : st) {
    Completion c;
    const double ns = timed_ns_per_op(kPolls, [&] {
      for (std::size_t i = 0; i < kPolls; ++i) {
        benchmark::DoNotOptimize(cq.poll_ready(c, /*now=*/0));
      }
    });
    g_rows[depth].*slot = ns;
    st.SetIterationTime(ns * kPolls / 1e9);
  }
}
void BM_LegacyPollEmpty(benchmark::State& st) {
  poll_empty_bench<LegacyCq>(st, &Row::legacy_poll_empty_ns);
}
void BM_PollEmpty(benchmark::State& st) {
  poll_empty_bench<CompletionQueue>(st, &Row::poll_empty_ns);
}

void BM_DrainReady(benchmark::State& st) {
  const auto depth = static_cast<std::size_t>(st.range(0));
  const auto evs = make_events(depth, 1 << 20);
  for (auto _ : st) {
    CompletionQueue cq(depth);
    for (const auto& e : evs) cq.push(e);
    Completion c;
    const double ns = timed_ns_per_op(depth, [&] {
      while (cq.poll_ready(c, kFarFuture) == Status::Ok)
        benchmark::DoNotOptimize(c);
    });
    g_rows[depth].drain_ready_ns = ns;
    st.SetIterationTime(ns * static_cast<double>(depth) / 1e9);
  }
}

void drain_batch_bench(benchmark::State& st, std::uint64_t vtime_range,
                       double Row::*slot) {
  const auto depth = static_cast<std::size_t>(st.range(0));
  const auto evs = make_events(depth, vtime_range);
  std::array<Completion, 64> out;
  for (auto _ : st) {
    CompletionQueue cq(depth);
    for (const auto& e : evs) cq.push(e);
    const double ns = timed_ns_per_op(depth, [&] {
      std::size_t n = 0;
      while (cq.poll_ready_batch(out, n, kFarFuture) == Status::Ok)
        benchmark::DoNotOptimize(out[0]);
    });
    g_rows[depth].*slot = ns;
    st.SetIterationTime(ns * static_cast<double>(depth) / 1e9);
  }
}
void BM_DrainBatch(benchmark::State& st) {
  drain_batch_bench(st, 1 << 20, &Row::drain_batch_ns);
}
void BM_DrainBatchInOrder(benchmark::State& st) {
  drain_batch_bench(st, kInOrder, &Row::drain_in_order_ns);
}

// Cross-thread hand-off: one producer thread pushes monotone vtimes, never
// more than `depth` ahead of the consumer (so no push overflows), while
// the consumer drains with poll_ready_batch. Each completion crosses cores
// once, as a put's target event does.
void BM_Handoff(benchmark::State& st) {
  constexpr std::size_t kDepth = 1024;
  constexpr std::uint64_t kEvents = 200'000;
  std::array<Completion, 64> out;
  for (auto _ : st) {
    CompletionQueue cq(kDepth);
    util::WallTimer t;
    std::thread producer([&] {
      Completion c;
      std::size_t room = 0;  // pushes known to fit, like a sender's credits
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        // Only this thread pushes, so size() can only overstate the backlog.
        while (room == 0) {
          room = kDepth - cq.size();
          // A bare CQ microbench: no rank or virtual clock to idle-wait on.
          // idle-ok: producer backpressure while the consumer drains.
          if (room == 0) std::this_thread::yield();
        }
        c.wr_id = i;
        c.vtime = i;
        cq.push(c);
        --room;
      }
    });
    std::uint64_t got = 0;
    while (got < kEvents) {
      std::size_t n = 0;
      if (cq.poll_ready_batch(out, n, kFarFuture) == Status::Ok) {
        benchmark::DoNotOptimize(out[0]);
        got += n;
      }
    }
    producer.join();
    g_handoff_ns = static_cast<double>(t.elapsed_ns()) / kEvents;
    st.SetIterationTime(g_handoff_ns * kEvents / 1e9);
  }
}

template <class Q>
void min_vtime_bench(benchmark::State& st, double Row::*slot) {
  constexpr std::size_t kCalls = 4096;
  const auto depth = static_cast<std::size_t>(st.range(0));
  const auto evs = make_events(depth, kFarFuture);
  Q cq(depth);
  for (const auto& e : evs) cq.push(e);
  for (auto _ : st) {
    const double ns = timed_ns_per_op(kCalls, [&] {
      for (std::size_t i = 0; i < kCalls; ++i)
        benchmark::DoNotOptimize(cq.min_vtime());
    });
    g_rows[depth].*slot = ns;
    st.SetIterationTime(ns * kCalls / 1e9);
  }
}
void BM_LegacyMinVtime(benchmark::State& st) {
  min_vtime_bench<LegacyCq>(st, &Row::legacy_min_vtime_ns);
}
void BM_MinVtime(benchmark::State& st) {
  min_vtime_bench<CompletionQueue>(st, &Row::min_vtime_ns);
}

// Photon-level: wall cost per delivered signal in a saturated 2-rank
// stream. Rank 0 posts back-to-back signals (progress() drains its send CQ
// in batches when the SQ backs up); rank 1 sits in wait_event. The metric
// is total wall time of the SPMD section divided by events -- both ranks'
// progress work included, which is what a runtime system pays.
void BM_ProgressSaturated(benchmark::State& st) {
  constexpr int kEvents = 20000;
  constexpr std::uint64_t kWait = 30'000'000'000ULL;
  for (auto _ : st) {
    util::WallTimer t;
    run_spmd_vtime(benchsupport::bench_fabric(2), [&](runtime::Env& env) {
      core::Photon ph(env.nic, env.bootstrap, core::Config{});
      benchsupport::sync_reset(env);
      if (env.rank == 0) {
        for (int i = 0; i < kEvents; ++i) {
          if (ph.signal(1, static_cast<std::uint64_t>(i), kWait) != Status::Ok)
            throw std::runtime_error("signal failed");
        }
        ph.flush(1, kWait);
      } else {
        core::ProbeEvent ev;
        for (int i = 0; i < kEvents; ++i) {
          if (ph.wait_event(ev, kWait) != Status::Ok)
            throw std::runtime_error("signal missing");
        }
      }
      env.bootstrap.barrier(env.rank);
    });
    const double ns = static_cast<double>(t.elapsed_ns()) / kEvents;
    g_progress_ns_per_event = ns;
    st.SetIterationTime(ns * kEvents / 1e9);
  }
  st.counters["wall_ns_per_event"] = g_progress_ns_per_event;
}

}  // namespace

#define DEPTHS Arg(256)->Arg(4096)->Arg(65536)
BENCHMARK(BM_CqPush)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_LegacyDrainMin)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_DrainMin)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_LegacyPollEmpty)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_PollEmpty)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_DrainReady)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_DrainBatch)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_DrainBatchInOrder)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_LegacyMinVtime)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_MinVtime)->DEPTHS->UseManualTime()->Iterations(1);
BENCHMARK(BM_Handoff)->UseManualTime()->Iterations(1);
BENCHMARK(BM_ProgressSaturated)->UseManualTime()->Iterations(1);
#undef DEPTHS

int main(int argc, char** argv) {
  benchsupport::BenchReport report("progress");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using benchsupport::Table;
  Table t("P-1  Completion-queue host cost (wall ns/op; legacy = seed deque)");
  t.columns({"depth", "push", "drain(min)", "legacy", "speedup", "poll(empty)",
             "legacy", "drain(rdy)", "batch64", "in-order", "min_vtime",
             "legacy"});
  const auto cell = [](double v) { return v > 0 ? Table::num(v) : std::string("-"); };
  for (const auto& [depth, r] : g_rows) {
    t.row({std::to_string(depth), cell(r.push_ns), cell(r.drain_min_ns),
           cell(r.legacy_drain_min_ns),
           r.drain_min_ns > 0 && r.legacy_drain_min_ns > 0
               ? Table::num(r.legacy_drain_min_ns / r.drain_min_ns, 1) + "x"
               : "-",
           cell(r.poll_empty_ns), cell(r.legacy_poll_empty_ns),
           cell(r.drain_ready_ns), cell(r.drain_batch_ns),
           cell(r.drain_in_order_ns), cell(r.min_vtime_ns), cell(r.legacy_min_vtime_ns)});
  }
  t.print();

  Table p("P-2  Cross-thread hand-off and Photon::progress() (wall ns/event)");
  p.columns({"metric", "value"});
  p.row({"CQ hand-off, 1 producer thread -> poll_ready_batch",
         Table::num(g_handoff_ns)});
  p.row({"saturated 2-rank signal stream (both ranks)",
         Table::num(g_progress_ns_per_event)});
  p.print();
  benchsupport::print_resilience_table();
  // Wall-clock host cost is nondeterministic; the "wall_" prefix tells
  // tools/perf_gate.sh to report it without gating.
  report.metric("wall_progress_ns_per_event", g_progress_ns_per_event);
  return 0;
}
