// perfbench: wall-clock benchmark of the Photon stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one two-rank workload (pwc_small, bulk_rdv, parcel_rpc or kv_zipf;
// meta.json says what each one stresses) and prints one JSON object as the
// last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones: the S measured seconds
// are split into kWindows equal windows and each metric is the median over
// them. With --trace 1 they are the per-layer ones, from a traced phase of
// S/2 seconds, and the tracing overhead is measured against an untraced
// phase of S/2 seconds run just before it; the raw spans go to --trace-out.
// attempted and failed count every op of every phase. A readable summary
// goes to stderr.
//
// A run: generate the inputs from the seed; set the stack up kSetupReps
// times (setup_s is the median, each timed from Cluster construction until
// every rank is ready for its first op); on the last set-up run an untimed
// warm-up phase of kWarmupS seconds (the first second or so of a process
// started on an idle VM runs several times slower), then the measured
// phases. Rank threads are pinned to distinct CPUs, leaving at least one CPU
// for the rest of the process.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kRanks = 2;
constexpr int kSetupReps = 5;
constexpr double kWarmupS = 2.0;
constexpr std::size_t kWindows = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pwc_small|bulk_rdv|parcel_rpc|kv_zipf --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
      if (!have_seed) usage("--seed must be a non-negative integer");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 600))
        usage("--seconds must be a number in (0, 600]");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds <= 0)
    usage("--workload, --seed and --seconds are required");
  return o;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "pwc_small") return make_pwc_small();
  if (name == "bulk_rdv") return make_bulk_rdv();
  if (name == "parcel_rpc") return make_parcel_rpc();
  if (name == "kv_zipf") return make_kv_zipf();
  return nullptr;
}

// ---- host -----------------------------------------------------------------------

/// CPUs for the rank threads: the last kRanks of the allowed set, leaving
/// the rest to the driver thread and the OS. Empty (run unpinned) when
/// fewer than kRanks + 1 CPUs are allowed.
std::vector<int> rank_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.size() < kRanks + 1) return {};
  return std::vector<int>(cpus.end() - kRanks, cpus.end());
}

void pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0)
    throw std::runtime_error("cannot pin a rank thread to CPU " + std::to_string(cpu));
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Ends the process when a run outlives its budget -- a hang inside a
/// blocking library call, which the loops' stall guards cannot see --
/// naming what each rank was blocked in.
class HangWatchdog {
 public:
  HangWatchdog(const std::array<Beacon, kRanks>& beacons, std::chrono::seconds budget)
      : beacons_(beacons), thread_([this, budget] { watch(budget); }) {}
  ~HangWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  HangWatchdog(const HangWatchdog&) = delete;
  HangWatchdog& operator=(const HangWatchdog&) = delete;

 private:
  void watch(std::chrono::seconds budget) {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, budget, [this] { return done_; })) return;
    for (std::uint32_t r = 0; r < kRanks; ++r)
      std::fprintf(stderr, "perfbench: hang after %lld s: rank %u blocked in %s (peer %d)\n",
                   static_cast<long long>(budget.count()), r,
                   beacons_[r].call.load(std::memory_order_relaxed),
                   beacons_[r].peer.load(std::memory_order_relaxed));
    std::fflush(stderr);
    std::_Exit(3);
  }

  const std::array<Beacon, kRanks>& beacons_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members it uses exist
};

// ---- phases ---------------------------------------------------------------------

/// Public layer counters one rank reads around a phase.
struct LayerCounters {
  std::uint64_t credit_stalls = 0;   ///< CoreStats
  std::uint64_t ledger_stalls = 0;   ///< CoreStats
  std::uint64_t wire_ops = 0;        ///< Nic puts + gets + sends + atomics
  std::uint64_t bytes_out = 0;       ///< Nic
  std::uint64_t completions = 0;     ///< Nic completions polled
  std::uint64_t parcels_sent = 0;    ///< EngineStats
  std::uint64_t parcel_retries = 0;  ///< EngineStats

  static LayerCounters read(RankWorkload& rw, photon::fabric::Nic& nic) {
    LayerCounters c;
    const auto& s = rw.photon().stats();
    c.credit_stalls = s.credit_stalls;
    c.ledger_stalls = s.ledger_stalls;
    // relaxed-ok: statistics, read on the NIC's own rank thread.
    constexpr auto kRelaxed = std::memory_order_relaxed;
    const auto& n = nic.counters();
    c.wire_ops = n.puts.load(kRelaxed) + n.gets.load(kRelaxed) +
                 n.sends.load(kRelaxed) + n.atomics.load(kRelaxed);
    c.bytes_out = n.bytes_out.load(kRelaxed);
    c.completions = n.completions_polled.load(kRelaxed);
    if (const auto* e = rw.engine()) {
      c.parcels_sent = e->stats().sent;
      c.parcel_retries = e->stats().send_retries;
    }
    return c;
  }
  LayerCounters operator-(const LayerCounters& o) const {
    return {credit_stalls - o.credit_stalls, ledger_stalls - o.ledger_stalls,
            wire_ops - o.wire_ops,           bytes_out - o.bytes_out,
            completions - o.completions,     parcels_sent - o.parcels_sent,
            parcel_retries - o.parcel_retries};
  }
  LayerCounters& operator+=(const LayerCounters& o) {
    credit_stalls += o.credit_stalls;
    ledger_stalls += o.ledger_stalls;
    wire_ops += o.wire_ops;
    bytes_out += o.bytes_out;
    completions += o.completions;
    parcels_sent += o.parcels_sent;
    parcel_retries += o.parcel_retries;
    return *this;
  }
};

struct PhaseRecord {
  double seconds = 0;
  bool traced = false;
  std::uint64_t start_ns = 0;  ///< set by rank 0 between two barriers
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_start_ns = 0;
  std::uint64_t cpu_end_ns = 0;
  std::array<PhaseOut, kRanks> out{};
  std::array<LayerCounters, kRanks> delta{};
};

void run_phases(photon::runtime::Env& env, RankWorkload& rw,
                std::vector<PhaseRecord>& phases, Tracer& tracer, Beacon& beacon) {
  const photon::fabric::Rank r = env.rank;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    PhaseRecord& rec = phases[i];
    env.bootstrap.barrier(r);
    if (r == 0) {
      rec.start_ns = now_ns();
      rec.cpu_start_ns = process_cpu_ns();
    }
    env.bootstrap.barrier(r);
    Phase p;
    p.id = static_cast<int>(i);
    p.deadline_ns = rec.start_ns + static_cast<std::uint64_t>(rec.seconds * 1e9);
    p.tr = rec.traced ? &tracer : nullptr;
    beacon.set("phase", -1);
    const LayerCounters before = LayerCounters::read(rw, env.nic);
    rw.run_phase(p, rec.out[r]);
    rec.delta[r] = LayerCounters::read(rw, env.nic) - before;
    beacon.set("end-of-phase barrier", -1);
    env.bootstrap.barrier(r);
    if (r == 0) {
      rec.end_ns = now_ns();
      rec.cpu_end_ns = process_cpu_ns();
    }
  }
}

/// One phase summed over the ranks.
struct Totals {
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;
  Hist lat, vlat, find_ns, insert_ns;
  LoopStats loop;
  LayerCounters delta;
  double wall_s = 0;
  double cpu_s = 0;

  explicit Totals(const PhaseRecord& rec) {
    for (const PhaseOut& o : rec.out) {
      ops += o.ops;
      attempted += o.attempted;
      failed += o.failed;
      bytes += o.bytes;
      lat.merge(o.lat);
      vlat.merge(o.vlat);
      find_ns.merge(o.find_ns);
      insert_ns.merge(o.insert_ns);
      loop.add(o.loop);
    }
    for (const LayerCounters& d : rec.delta) delta += d;
    wall_s = static_cast<double>(rec.end_ns - rec.start_ns) / 1e9;
    cpu_s = static_cast<double>(rec.cpu_end_ns - rec.cpu_start_ns) / 1e9;
  }
  double ops_per_s() const { return ratio(static_cast<double>(ops), wall_s); }
};

// ---- metrics --------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct SetupSamples {
  std::vector<double> setup_s, cluster_ms, core_ms, dds_ms, preload_ms;
};

/// Medians over the measured windows (phases 1..n).
std::vector<Metric> end_to_end(const std::vector<PhaseRecord>& phases,
                               const SetupSamples& setup) {
  std::vector<double> ops_s, mb_s, p50, p99, cpu;
  for (std::size_t i = 1; i < phases.size(); ++i) {
    const Totals t(phases[i]);
    ops_s.push_back(t.ops_per_s());
    mb_s.push_back(ratio(static_cast<double>(t.bytes), t.wall_s) / 1e6);
    p50.push_back(t.lat.percentile(50) / 1e3);
    p99.push_back(t.lat.percentile(99) / 1e3);
    cpu.push_back(ratio(t.cpu_s * 1e6, static_cast<double>(t.ops)));
  }
  return {
      {"ops_per_s", median(ops_s), "1/s"},
      {"goodput_mb_s", median(mb_s), "MB/s"},
      {"lat_p50_us", median(p50), "us"},
      {"lat_p99_us", median(p99), "us"},
      {"cpu_us_per_op", median(cpu), "us"},
      {"setup_s", median(setup.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Totals& plain, const Totals& t,
                              const std::array<Tracer, kRanks>& tracers,
                              const SetupSamples& setup, double fail_ratio) {
  const auto agg = [&](SpanId id) {
    Tracer::Agg a;
    for (const Tracer& tr : tracers) {
      a.count += tr.agg(id).count;
      a.total_ns += tr.agg(id).total_ns;
      a.self_ns += tr.agg(id).self_ns;
    }
    return a;
  };
  const auto mean_ns = [&](SpanId id) {
    const Tracer::Agg a = agg(id);
    return ratio(static_cast<double>(a.total_ns), static_cast<double>(a.count));
  };
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self{};
  for (int id = 0; id < kSpanCount; ++id)
    self[static_cast<std::size_t>(layer_of(static_cast<SpanId>(id)))] +=
        static_cast<double>(agg(static_cast<SpanId>(id)).self_ns);
  double top_ns = 0;
  double spans = 0;
  for (const Tracer& tr : tracers) {
    top_ns += static_cast<double>(tr.top_level_ns());
    spans += static_cast<double>(tr.spans());
  }
  // Shares are of the traced phase's rank-thread time.
  const double thread_ns = t.wall_s * 1e9 * kRanks;
  const auto pct = [&](double ns) { return 100.0 * ratio(ns, thread_ns); };
  const auto layer_pct = [&](Layer l) { return pct(self[static_cast<std::size_t>(l)]); };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const LoopStats& l = t.loop;
  const LayerCounters& c = t.delta;
  const double ops = d(t.ops);
  return {
      {"runtime.cluster_ms", median(setup.cluster_ms), "ms"},
      {"core.construct_ms", median(setup.core_ms), "ms"},
      {"dds.construct_ms", median(setup.dds_ms), "ms"},
      {"dds.preload_ms", median(setup.preload_ms), "ms"},
      {"core.post_ns.put", mean_ns(kPostPut), "ns"},
      {"core.post_ns.eager", mean_ns(kPostEager), "ns"},
      {"core.post_ns.signal", mean_ns(kPostSignal), "ns"},
      {"core.post_ns.os_put", mean_ns(kPostOsPut), "ns"},
      {"core.post_ns.os_get", mean_ns(kPostOsGet), "ns"},
      {"core.post_retry_ratio", ratio(d(l.try_rejects), d(l.try_calls)), "ratio"},
      {"core.credit_stalls_per_op", ratio(d(c.credit_stalls), ops), "1/op"},
      {"core.ledger_stalls_per_op", ratio(d(c.ledger_stalls), ops), "1/op"},
      {"core.progress_ns", mean_ns(kProgress), "ns"},
      {"core.progress_empty_ratio", ratio(d(l.progress_empty), d(l.progress_calls)), "ratio"},
      {"core.jumps_per_op", ratio(d(l.jumps), ops), "1/op"},
      {"core.jump_ns", mean_ns(kJump), "ns"},
      {"core.rdv_advert_ns", ratio(d(l.advert_ns), d(l.adverts)), "ns"},
      {"core.os_put_ns_per_kib", ratio(d(l.os_put_ns), d(l.os_put_bytes) / 1024.0), "ns/KiB"},
      {"fabric.wire_ops_per_op", ratio(d(c.wire_ops), ops), "1/op"},
      {"fabric.bytes_per_payload_byte", ratio(d(c.bytes_out), d(t.bytes)), "B/B"},
      {"fabric.completions_per_op", ratio(d(c.completions), ops), "1/op"},
      {"fabric.model_lat_p50_us", t.vlat.percentile(50) / 1e3, "us"},
      {"parcels.send_ns", mean_ns(kParcelSend), "ns"},
      {"parcels.progress_ns", mean_ns(kParcelProgress), "ns"},
      {"parcels.dispatch_per_progress",
       ratio(d(l.parcel_dispatched), d(agg(kParcelProgress).count)), "ratio"},
      {"parcels.send_retries_per_parcel", ratio(d(c.parcel_retries), d(c.parcels_sent)), "1/op"},
      {"dds.find_ns_p50", t.find_ns.percentile(50), "ns"},
      {"dds.find_ns_p99", t.find_ns.percentile(99), "ns"},
      {"dds.insert_ns_p50", t.insert_ns.percentile(50), "ns"},
      {"dds.insert_ns_p99", t.insert_ns.percentile(99), "ns"},
      {"dds.atomics_per_insert", ratio(d(l.dds_insert_atomics), d(l.dds_inserts)), "1/op"},
      {"dds.gets_per_find", ratio(d(l.dds_find_atomics), d(l.dds_finds)), "1/op"},
      {"core.self_pct", layer_pct(Layer::kCore), "%"},
      {"parcels.self_pct", layer_pct(Layer::kParcels), "%"},
      {"dds.self_pct", layer_pct(Layer::kDds), "%"},
      {"bench.self_pct", pct(thread_ns - top_ns), "%"},
      {"trace.overhead_pct", 100.0 * (1.0 - ratio(t.ops_per_s(), plain.ops_per_s())), "%"},
      {"trace.spans", spans, "count"},
      {"lat_samples", d(t.lat.count()), "count"},
      {"fail_ratio", fail_ratio, "ratio"},
  };
}

/// The traced phase's raw spans as a Chrome/Perfetto trace (ts relative to
/// the phase start, one track per rank).
void write_trace(const std::string& path, const std::array<Tracer, kRanks>& tracers,
                 std::uint64_t t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [");
  const char* sep = "\n";
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    for (const Tracer::Record& rec : tracers[r].log()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %u, "
                   "\"parent\": %u, \"op\": %llu}}",
                   sep, kSpanNames[rec.id], r,
                   (static_cast<double>(rec.start_ns) - static_cast<double>(t0)) / 1e3,
                   static_cast<double>(rec.end_ns - rec.start_ns) / 1e3, rec.serial,
                   rec.parent, static_cast<unsigned long long>(rec.op));
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += std::string(i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

photon::fabric::FabricConfig fabric_config() {
  photon::fabric::FabricConfig cfg;  // calibrated wire model, clean wire
  cfg.nranks = kRanks;
  return cfg;
}

int run(const Options& opt) {
  std::unique_ptr<Workload> wl = make_workload(opt.workload);
  if (!wl) usage("unknown workload " + opt.workload);
  wl->generate(opt.seed);

  // Phase 0 is the warm-up; the rest are measured.
  std::vector<PhaseRecord> phases(opt.trace ? 3 : 1 + kWindows);
  phases[0].seconds = kWarmupS;
  for (std::size_t i = 1; i < phases.size(); ++i)
    phases[i].seconds = opt.seconds / static_cast<double>(phases.size() - 1);
  if (opt.trace) phases[2].traced = true;

  std::array<Beacon, kRanks> beacons;
  std::array<Tracer, kRanks> tracers;
  const std::vector<int> cpus = rank_cpus();
  const auto budget = std::chrono::seconds(
      std::min<long long>(170, static_cast<long long>(kWarmupS + opt.seconds) + 60));
  HangWatchdog watchdog(beacons, budget);

  SetupSamples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool measure = rep + 1 == kSetupReps;
    std::array<SetupTimes, kRanks> times{};
    std::uint64_t ready_ns = 0;
    const std::uint64_t t0 = now_ns();
    photon::runtime::Cluster cluster(fabric_config());
    setup.cluster_ms.push_back(ms_since(t0));
    cluster.run([&](photon::runtime::Env& env) {
      if (!cpus.empty()) pin_self(cpus[env.rank]);
      Beacon& beacon = beacons[env.rank];
      beacon.set("setup", -1);
      std::unique_ptr<RankWorkload> rw = wl->setup(env, beacon, times[env.rank]);
      env.bootstrap.barrier(env.rank);
      if (env.rank == 0) ready_ns = now_ns();
      if (measure) run_phases(env, *rw, phases, tracers[env.rank], beacon);
      beacon.set("teardown: Photon::quiesce", -1);
      if (rw->photon().quiesce(kOpTimeoutNs) != photon::Status::Ok)
        throw std::runtime_error("teardown: Photon::quiesce timed out");
      env.bootstrap.barrier(env.rank);
    });
    setup.setup_s.push_back(static_cast<double>(ready_ns - t0) / 1e9);
    setup.core_ms.push_back(std::max(times[0].core_ms, times[1].core_ms));
    setup.dds_ms.push_back(std::max(times[0].dds_ms, times[1].dds_ms));
    setup.preload_ms.push_back(std::max(times[0].preload_ms, times[1].preload_ms));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool all_ran = true;
  for (const PhaseRecord& rec : phases) {
    const Totals t(rec);
    attempted += t.attempted;
    failed += t.failed;
    all_ran = all_ran && t.ops > 0;
  }
  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = per_layer(Totals(phases[1]), Totals(phases[2]), tracers, setup,
                        ratio(static_cast<double>(failed), static_cast<double>(attempted)));
    if (!opt.trace_out.empty()) write_trace(opt.trace_out, tracers, phases[2].start_ns);
  } else {
    metrics = end_to_end(phases, setup);
  }

  std::fprintf(stderr, "perfbench: %s, seed %llu, rank threads %s\n", opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed),
               cpus.empty() ? "unpinned (fewer than 3 CPUs allowed)" : "pinned");
  for (std::size_t i = 1; i < phases.size(); ++i) {
    const Totals t(phases[i]);
    std::fprintf(stderr,
                 "  phase %zu%s: %.3f s, %llu ops (%llu latency samples), %.1f ops/s\n",
                 i, phases[i].traced ? " (traced)" : "", t.wall_s,
                 static_cast<unsigned long long>(t.ops),
                 static_cast<unsigned long long>(t.lat.count()), t.ops_per_s());
  }
  std::fprintf(stderr, "  all phases: %llu ops attempted, %llu failed\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name, m.value, m.unit);
  print_result(failed == 0 && all_ran, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}
