#include "benchsupport/report.hpp"

#include <cstdlib>
#include <fstream>

#include "telemetry/hooks.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace photon::benchsupport {

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

void emit_env(util::JsonWriter& w, const char* name) {
  const char* v = std::getenv(name);
  w.key(name);
  if (v == nullptr)
    w.null();
  else
    w.value(std::string_view(v));
}

void emit_hist(util::JsonWriter& w, const char* key,
               const telemetry::HistogramSnapshot& h) {
  w.key(key).begin_object();
  w.key("count").value(h.total);
  w.key("mean_ns").value(h.mean());
  w.key("p50_ns").value(h.percentile(50));
  w.key("p99_ns").value(h.percentile(99));
  w.key("p999_ns").value(h.percentile(99.9));
  w.end_object();
}

}  // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  if (!env_flag("PHOTON_BENCH_NO_TELEMETRY")) {
    auto& reg = telemetry::MetricsRegistry::process();
    reg.reset();
    reg.set_enabled(true);
  }
}

BenchReport::~BenchReport() {
  if (!written_) write();
}

void BenchReport::metric(std::string_view name, double value) {
  metrics_[std::string(name)] = value;
}

std::string BenchReport::path() const {
  const char* dir = std::getenv("PHOTON_BENCH_DIR");
  std::string p = dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "";
  return p + "BENCH_" + name_ + ".json";
}

std::string BenchReport::to_json() const {
  const telemetry::Snapshot s = telemetry::MetricsRegistry::process().snapshot();
  const std::uint64_t vtime_ns = s.counter_or("bench.vtime_ns", 0);
  const std::uint64_t ops = s.counter_or("fabric.puts", 0) +
                            s.counter_or("fabric.gets", 0) +
                            s.counter_or("fabric.sends", 0) +
                            s.counter_or("fabric.atomics", 0);
  const double vsecs = static_cast<double>(vtime_ns) / 1e9;

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value(name_);
  w.key("schema").value(1);
  w.key("deterministic").value(deterministic_);

  w.key("config").begin_object();
  w.key("telemetry_compiled").value(PHOTON_TELEMETRY_ENABLED != 0);
#if defined(PHOTON_CHECK_ENABLED)
  w.key("check_compiled").value(true);
#else
  w.key("check_compiled").value(false);
#endif
  w.key("telemetry_runtime")
      .value(telemetry::MetricsRegistry::process().enabled());
  emit_env(w, "PHOTON_WIRE_DROP");
  emit_env(w, "PHOTON_WIRE_CORRUPT");
  emit_env(w, "PHOTON_WIRE_DELAY");
  emit_env(w, "PHOTON_WIRE_DELAY_NS");
  emit_env(w, "PHOTON_WIRE_SEED");
  w.end_object();

  w.key("vtime_ns").value(vtime_ns);
  w.key("ops").value(ops);
  w.key("ops_per_sec").value(vsecs > 0 ? static_cast<double>(ops) / vsecs : 0.0);
  w.key("bytes_moved").value(s.counter_or("fabric.bytes_out", 0));

  w.key("vlat").begin_object();
  emit_hist(w, "local", s.merged_histogram("photon.vlat.local."));
  emit_hist(w, "remote", s.merged_histogram("photon.vlat.remote."));
  w.end_object();

  // Reliable-delivery totals, as every fabric folded them at teardown.
  w.key("resilience").begin_object();
  for (const char* k : {"retransmits", "crc_rejects", "dup_suppressed",
                        "wire_faults_fired", "op_timeouts", "recoveries",
                        "stale_epoch_drops"})
    w.key(k).value(s.counter_or(std::string("fabric.") + k, 0));
  w.end_object();

  w.key("metrics").begin_object();
  for (const auto& [k, v] : metrics_) w.key(k).value(v);
  w.end_object();

  // Full registry snapshot, for humans and future tooling; the gate only
  // reads the derived fields above.
  w.key("snapshot").raw(s.to_json());
  w.end_object();
  return w.str();
}

bool BenchReport::write() {
  written_ = true;
  const std::string p = path();
  std::ofstream out(p, std::ios::trunc);
  if (!out) {
    log::error("bench report: cannot open ", p);
    return false;
  }
  out << to_json() << '\n';
  if (!out.flush()) {
    log::error("bench report: write failed for ", p);
    return false;
  }
  log::info("bench report written: ", p);
  return true;
}

}  // namespace photon::benchsupport
