// Unified metrics registry: named counters and log2-bucketed
// latency histograms with a relaxed-atomic hot path.
//
// One MetricsRegistry aggregates the whole system's observability state —
// middleware stats, fabric counters, resilience totals, and per-op
// virtual-time latency distributions — behind a single snapshot() call. The
// process-wide instance (MetricsRegistry::process()) is the default sink for
// every layer; components either *record* live (histogram hot path: one
// relaxed enabled() load, one atomic fetch_add) or *fold* their existing raw
// counters in at teardown, keeping those atomics as the backing store.
//
// Cost contract:
//   * disabled at runtime (the default): every record_* call is one relaxed
//     atomic load and a predicted-not-taken branch;
//   * compiled out (-DPHOTON_TELEMETRY=OFF): the hook call sites in the data
//     path vanish entirely (see telemetry/hooks.hpp), and tier-1 behavior is
//     bit-for-bit identical — telemetry never influences protocol state or
//     virtual time.
//
// Thread-safety: metric *creation* (name resolution) takes a mutex; metric
// objects have stable addresses for the registry's lifetime and their update
// paths are lock-free relaxed atomics, so any number of rank threads may
// record concurrently. snapshot() is safe concurrent with recording (values
// are read relaxed; a snapshot taken mid-traffic is approximate per metric
// but never torn per word).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/mutex.hpp"

namespace photon::telemetry {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    // relaxed-ok: per-metric monotonic statistics; snapshot() documents
    // the approximate-but-untorn read contract.
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept {
    // relaxed-ok: per-metric monotonic statistics; snapshot() documents
    // the approximate-but-untorn read contract.
    return v_.load(std::memory_order_relaxed);
  }
  // relaxed-ok: per-metric monotonic statistics; snapshot() documents
  // the approximate-but-untorn read contract.
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Read-only view of a histogram at one point in time.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;
  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;
  std::uint64_t sum = 0;

  /// Upper bound of the bucket holding the requested rank (p in [0,100]);
  /// 0 when empty. Bucket b > 0 covers [2^(b-1), 2^b - 1].
  std::uint64_t percentile(double p) const noexcept;
  double mean() const noexcept {
    return total == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(total);
  }
  void merge(const HistogramSnapshot& o) noexcept;
};

/// Log2-bucketed histogram with an atomic record path (bucket 0 = value 0;
/// bucket b covers [2^(b-1), 2^b - 1]; values >= 2^62 land in the overflow
/// bucket 63), safe for concurrent recording from many rank threads.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  void record(std::uint64_t value) noexcept {
    // relaxed-ok: per-metric monotonic statistics; snapshot() documents
    // the approximate-but-untorn read contract.
    counts_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    // relaxed-ok: per-metric monotonic statistics; snapshot() documents
    // the approximate-but-untorn read contract.
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    // relaxed-ok: per-metric monotonic statistics; snapshot() documents
    // the approximate-but-untorn read contract.
    return total_.load(std::memory_order_relaxed);
  }
  HistogramSnapshot snapshot() const noexcept;
  void reset() noexcept;

  static std::size_t bucket_of(std::uint64_t v) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Full-registry snapshot: plain values keyed by metric name.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Merge another snapshot in: counters add, histograms merge bucket
  /// counts. Disjoint name sets simply union.
  void merge(const Snapshot& o);

  /// Merge every histogram whose name starts with `prefix` into one
  /// distribution (e.g. all "photon.vlat." series for a bench summary).
  HistogramSnapshot merged_histogram(std::string_view prefix) const;

  std::uint64_t counter_or(std::string_view name, std::uint64_t fallback) const;

  /// Compact single-object JSON: {"counters":{...},
  /// "histograms":{"name":{"total":..,"sum":..,"p50":..,"p99":..,
  /// "p999":..,"buckets":{"<b>":count,...}},...}}.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide default registry (disabled until someone enables it).
  static MetricsRegistry& process();

  /// Runtime master switch. Disabled registries still hand out metric
  /// objects (so hot paths can cache pointers) but record/fold callers gate
  /// on enabled() — one relaxed load — and snapshots show whatever was
  /// recorded while enabled.
  bool enabled() const noexcept {
    // relaxed-ok: independent on/off gate; stale reads only delay the
    // first recorded sample by one observation.
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    // relaxed-ok: independent on/off gate; stale reads only delay the
    // first recorded sample by one observation.
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Named metric accessors: find-or-create; returned references stay valid
  /// for the registry's lifetime.
  Counter& counter(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Teardown fold: add each nonzero value to the counter "<prefix><name>".
  /// Components keep their raw stats as the backing store and call this once
  /// from their destructor; zero values create no column, and a disabled
  /// registry takes nothing.
  void fold(std::string_view prefix,
            std::initializer_list<std::pair<std::string_view, std::uint64_t>>
                stats);

  Snapshot snapshot() const;
  /// Zero every counter/histogram.
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable util::Mutex mu_;  ///< guards the maps, not the metric hot paths
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> hists_
      GUARDED_BY(mu_);
};

}  // namespace photon::telemetry
