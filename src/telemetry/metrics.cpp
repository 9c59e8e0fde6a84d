#include "telemetry/metrics.hpp"

#include <bit>

#include "util/json.hpp"

namespace photon::telemetry {

// ---- HistogramSnapshot ------------------------------------------------------

std::uint64_t HistogramSnapshot::percentile(double p) const noexcept {
  if (total == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[static_cast<std::size_t>(b)];
    if (seen > rank) {
      if (b == 0) return 0;
      // The overflow bucket absorbs everything >= 2^62 and has no finite
      // upper bound to report.
      if (b >= kBuckets - 1) return ~0ULL;
      return (1ULL << b) - 1;
    }
  }
  return ~0ULL;
}

void HistogramSnapshot::merge(const HistogramSnapshot& o) noexcept {
  for (int b = 0; b < kBuckets; ++b)
    counts[static_cast<std::size_t>(b)] += o.counts[static_cast<std::size_t>(b)];
  total += o.total;
  sum += o.sum;
}

// ---- LatencyHistogram -------------------------------------------------------

std::size_t LatencyHistogram::bucket_of(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const int b = std::bit_width(v);  // 1..64
  return b >= kBuckets ? static_cast<std::size_t>(kBuckets - 1)
                       : static_cast<std::size_t>(b);
}

HistogramSnapshot LatencyHistogram::snapshot() const noexcept {
  // relaxed-ok: snapshots are documented approximate-per-metric; each word
  // is read untorn and no cross-metric ordering is promised.
  HistogramSnapshot s;
  for (int b = 0; b < kBuckets; ++b)
    s.counts[static_cast<std::size_t>(b)] =
        counts_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  s.total = total_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void LatencyHistogram::reset() noexcept {
  // relaxed-ok: reset only runs between measurement phases; concurrent
  // recorders at worst land one sample on either side of the zeroing.
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---- Snapshot ---------------------------------------------------------------

void Snapshot::merge(const Snapshot& o) {
  for (const auto& [k, v] : o.counters) counters[k] += v;
  for (const auto& [k, v] : o.histograms) {
    auto it = histograms.find(k);
    if (it == histograms.end())
      histograms.emplace(k, v);
    else
      it->second.merge(v);
  }
}

HistogramSnapshot Snapshot::merged_histogram(std::string_view prefix) const {
  HistogramSnapshot out;
  for (const auto& [name, h] : histograms)
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix)
      out.merge(h);
  return out;
}

std::uint64_t Snapshot::counter_or(std::string_view name,
                                   std::uint64_t fallback) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

std::string Snapshot::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [k, v] : counters) w.key(k).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [k, h] : histograms) {
    w.key(k).begin_object();
    w.key("total").value(h.total);
    w.key("sum").value(h.sum);
    w.key("p50").value(h.percentile(50));
    w.key("p99").value(h.percentile(99));
    w.key("p999").value(h.percentile(99.9));
    w.key("buckets").begin_object();
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      const auto c = h.counts[static_cast<std::size_t>(b)];
      if (c != 0) w.key(std::to_string(b)).value(c);
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

// ---- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::process() {
  static MetricsRegistry r;
  return r;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  util::LockGuard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  util::LockGuard lock(mu_);
  auto it = hists_.find(name);
  if (it == hists_.end())
    it = hists_.emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  return *it->second;
}

void MetricsRegistry::fold(
    std::string_view prefix,
    std::initializer_list<std::pair<std::string_view, std::uint64_t>> stats) {
  if (!enabled()) return;
  std::string name(prefix);
  for (const auto& [stat, v] : stats) {
    if (v == 0) continue;
    name.resize(prefix.size());
    name += stat;
    counter(name).add(v);
  }
}

Snapshot MetricsRegistry::snapshot() const {
  util::LockGuard lock(mu_);
  Snapshot s;
  for (const auto& [k, c] : counters_) s.counters[k] = c->get();
  for (const auto& [k, h] : hists_) s.histograms[k] = h->snapshot();
  return s;
}

void MetricsRegistry::reset() {
  util::LockGuard lock(mu_);
  for (auto& [k, c] : counters_) c->reset();
  for (auto& [k, h] : hists_) h->reset();
}

}  // namespace photon::telemetry
