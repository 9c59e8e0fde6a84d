// Telemetry registry: histogram edge cases, snapshot merging, probes, and
// end-to-end per-op virtual-latency recording through a live Photon cluster.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/photon.hpp"
#include "runtime/cluster.hpp"
#include "telemetry/hooks.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/oplat.hpp"
#include "test_helpers.hpp"

namespace photon::telemetry {
namespace {

using photon::testing::pattern;
using photon::testing::timed_fabric;
using runtime::Cluster;
using runtime::Env;

constexpr std::uint64_t kWait = 3'000'000'000ULL;

// ---- histogram edge cases ---------------------------------------------------

TEST(LatencyHistogram, EmptyPercentilesAreZero) {
  LatencyHistogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.percentile(0), 0u);
  EXPECT_EQ(s.percentile(50), 0u);
  EXPECT_EQ(s.percentile(99.9), 0u);
  EXPECT_EQ(s.percentile(100), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(LatencyHistogram, SingleSampleEveryPercentileIsItsBucketBound) {
  LatencyHistogram h;
  h.record(100);  // bucket 7: [64, 127]
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.total, 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 100.0);
  // With one sample, every percentile is the upper bound of its bucket.
  EXPECT_EQ(s.percentile(0), 127u);
  EXPECT_EQ(s.percentile(50), 127u);
  EXPECT_EQ(s.percentile(100), 127u);
}

TEST(LatencyHistogram, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of((1ULL << 62) - 1), 62u);
}

TEST(LatencyHistogram, OverflowBucketAbsorbsHugeValues) {
  LatencyHistogram h;
  EXPECT_EQ(LatencyHistogram::bucket_of(1ULL << 62), 63u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~0ULL), 63u);
  h.record(1ULL << 62);
  h.record(~0ULL);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts[63], 2u);
  EXPECT_EQ(s.total, 2u);
  // The overflow bucket has no finite upper bound; percentile saturates.
  EXPECT_EQ(s.percentile(50), ~0ULL);
}

TEST(LatencyHistogram, PercentileUpperBoundSemantics) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(10);  // bucket 4: [8, 15]
  h.record(1000);                             // bucket 10: [512, 1023]
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.percentile(50), 15u);
  EXPECT_EQ(s.percentile(98), 15u);
  EXPECT_EQ(s.percentile(100), 1023u);
}

TEST(LatencyHistogram, ConcurrentRecordingLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t * 1000 + i));
    });
  for (auto& t : ts) t.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.total, static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t bucket_sum = 0;
  for (const auto c : s.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, s.total);
}

// ---- registry + snapshot ----------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableObjects) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.add(3);
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_EQ(reg.counter("x").get(), 3u);
  LatencyHistogram& h = reg.histogram("lat");
  h.record(10);
  EXPECT_EQ(&reg.histogram("lat"), &h);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
}

TEST(MetricsRegistry, MergeOfDisjointRegistriesUnionsEverything) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("only.a").add(1);
  a.histogram("hist.a").record(8);
  b.counter("only.b").add(2);
  b.histogram("hist.b").record(16);

  Snapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.counter_or("only.a", 0), 1u);
  EXPECT_EQ(s.counter_or("only.b", 0), 2u);
  EXPECT_EQ(s.histograms.at("hist.a").total, 1u);
  EXPECT_EQ(s.histograms.at("hist.b").total, 1u);
}

TEST(MetricsRegistry, MergeOverlapAddsCountersMergesHists) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("n").add(10);
  b.counter("n").add(5);
  a.histogram("h").record(4);
  b.histogram("h").record(400);

  Snapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.counter_or("n", 0), 15u);
  EXPECT_EQ(s.histograms.at("h").total, 2u);
  EXPECT_EQ(s.histograms.at("h").sum, 404u);
}

TEST(MetricsRegistry, MergedHistogramByPrefix) {
  MetricsRegistry reg;
  reg.histogram("photon.vlat.local.put.peer0").record(10);
  reg.histogram("photon.vlat.local.eager.peer1").record(20);
  reg.histogram("photon.vlat.remote.put.peer0").record(30);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.merged_histogram("photon.vlat.local.").total, 2u);
  EXPECT_EQ(s.merged_histogram("photon.vlat.remote.").total, 1u);
  EXPECT_EQ(s.merged_histogram("photon.vlat.").total, 3u);
  EXPECT_EQ(s.merged_histogram("nothing.").total, 0u);
}

TEST(MetricsRegistry, FoldAddsNonzeroStatsUnderThePrefix) {
  MetricsRegistry reg;
  reg.fold("core.", {{"puts", 3}});
  EXPECT_TRUE(reg.snapshot().counters.empty());  // disabled: takes nothing

  reg.set_enabled(true);
  reg.fold("core.", {{"puts", 3}, {"gets", 0}, {"signals", 2}});
  reg.fold("core.", {{"puts", 4}});  // a second component's fold adds up
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_or("core.puts", 0), 7u);
  EXPECT_EQ(s.counter_or("core.signals", 0), 2u);
  EXPECT_EQ(s.counters.count("core.gets"), 0u);  // zero makes no column
}

TEST(MetricsRegistry, ResetZeroesEveryMetric) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.histogram("h").record(9);
  reg.reset();
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_or("c", 99), 0u);
  EXPECT_EQ(s.histograms.at("h").total, 0u);
}

TEST(MetricsRegistry, DisabledByDefaultAndRecorderHonorsIt) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  OpLatencyRecorder rec;
  rec.bind(reg, 2);
  rec.record_local(OpClass::kPut, 1, 100);  // gated out: registry disabled
  EXPECT_EQ(reg.snapshot().merged_histogram("photon.vlat.").total, 0u);
  reg.set_enabled(true);
  rec.record_local(OpClass::kPut, 1, 100);
  rec.record_remote(OpClass::kEager, 0, 50);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.histograms.at("photon.vlat.local.put.peer1").total, 1u);
  EXPECT_EQ(s.histograms.at("photon.vlat.remote.eager.peer0").total, 1u);
}

// ---- end-to-end: Photon records per-op virtual latencies --------------------

TEST(TelemetryEndToEnd, PhotonPopulatesLocalAndRemoteLatencies) {
#if !PHOTON_TELEMETRY_ENABLED
  GTEST_SKIP() << "data-path hooks compiled out (-DPHOTON_TELEMETRY=OFF)";
#endif
  MetricsRegistry reg;
  reg.set_enabled(true);
  Cluster cluster(timed_fabric(2));
  cluster.run([&](Env& env) {
    core::Config cfg;
    cfg.metrics = &reg;
    core::Photon ph(env.nic, env.bootstrap, cfg);
    std::vector<std::byte> buf(4096);
    auto desc = ph.register_buffer(buf.data(), buf.size());
    ASSERT_TRUE(desc.ok());
    auto all = ph.exchange_descriptors(desc.value());

    if (env.rank == 0) {
      // One direct put (with remote event) + a few eager sends.
      std::memcpy(buf.data(), pattern(512).data(), 512);
      ASSERT_EQ(ph.put_with_completion(1, core::local_slice(desc.value(), 0, 512),
                                       core::slice(all[1], 512, 512), 1, 2),
                Status::Ok);
      core::LocalComplete lc;
      ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(ph.send_with_completion(1, pattern(64),
                                          10 + static_cast<std::uint64_t>(i),
                                          20 + static_cast<std::uint64_t>(i),
                                          kWait),
                  Status::Ok);
        ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        core::ProbeEvent ev;
        ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
      }
    }
    env.bootstrap.barrier(env.rank);
  });

  const Snapshot s = reg.snapshot();
  // Rank 0 completed 1 put + 3 eager sends locally.
  EXPECT_EQ(s.histograms.at("photon.vlat.local.put.peer1").total, 1u);
  EXPECT_EQ(s.histograms.at("photon.vlat.local.eager.peer1").total, 3u);
  // Rank 1 consumed the matching remote deliveries, attributed to rank 0.
  EXPECT_EQ(s.histograms.at("photon.vlat.remote.put.peer0").total, 1u);
  EXPECT_EQ(s.histograms.at("photon.vlat.remote.eager.peer0").total, 3u);
  // Virtual latencies are nonzero under the timed fabric: the wire model
  // charges real virtual nanoseconds between post and delivery.
  EXPECT_GT(s.merged_histogram("photon.vlat.remote.").sum, 0u);
}

}  // namespace
}  // namespace photon::telemetry
