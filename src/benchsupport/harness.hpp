// Shared harness for the paper-figure benchmarks.
//
// Every experiment is one SPMD section on a fresh cluster; the measurement
// is *virtual* time (see fabric/vclock.hpp), so results are deterministic
// and host-independent. Each bench binary registers its sweep with
// google-benchmark (manual time = virtual seconds) and prints a paper-style
// table of the same series at the end.
#pragma once

#include <functional>
#include <string>

#include "benchsupport/table.hpp"
#include "core/photon.hpp"
#include "msg/engine.hpp"
#include "runtime/cluster.hpp"
#include "telemetry/metrics.hpp"
#include "util/timing.hpp"

namespace photon::benchsupport {

/// Run `body` SPMD on a fresh cluster; returns the maximum virtual-clock
/// value across ranks at the end (clocks start at zero). The per-run virtual
/// time also accumulates into the registry counter "bench.vtime_ns" (the
/// denominator of every BENCH_*.json ops/s figure), and the fabric's own
/// counters fold into the registry when its destructor runs at scope exit —
/// the "fabric.*" totals BenchReport and print_resilience_table() read.
inline std::uint64_t run_spmd_vtime(
    const fabric::FabricConfig& fcfg,
    const std::function<void(runtime::Env&)>& body) {
  runtime::Cluster cluster(fcfg);
  cluster.run(body);
  std::uint64_t vt = 0;
  for (fabric::Rank r = 0; r < cluster.size(); ++r)
    vt = std::max(vt, cluster.fabric().nic(r).clock().now());
  auto& reg = telemetry::MetricsRegistry::process();
  if (reg.enabled()) reg.counter("bench.vtime_ns").add(vt);
  return vt;
}

/// Collective: fence all ranks, zero every virtual clock and all wire
/// resource timestamps, fence again. Call after setup so measurements start
/// from a clean virtual t=0 (setup traffic like bounce pre-posting and
/// descriptor exchange is excluded, as a real benchmark's warmup would be).
inline void sync_reset(runtime::Env& env) {
  env.bootstrap.barrier(env.rank);
  if (env.rank == 0) env.cluster.reset_virtual_time();
  env.bootstrap.barrier(env.rank);
}

/// Default calibrated fabric (wire model ON) with `n` ranks.
inline fabric::FabricConfig bench_fabric(std::uint32_t n) {
  fabric::FabricConfig cfg;
  cfg.nranks = n;
  return cfg;
}

inline double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// MB/s for `bytes` moved in `ns` of virtual time.
inline double mbps(std::uint64_t bytes, std::uint64_t ns) {
  if (ns == 0) return 0.0;
  return static_cast<double>(bytes) / (static_cast<double>(ns) / 1e9) / 1e6;
}

/// Million ops per second.
inline double mops(std::uint64_t ops, std::uint64_t ns) {
  if (ns == 0) return 0.0;
  return static_cast<double>(ops) / (static_cast<double>(ns) / 1e9) / 1e6;
}

/// Print the reliable-delivery counters when anything fired — a lossy-wire
/// run (PHOTON_WIRE_* env) shows how much retransmission / backoff the
/// reported numbers absorbed; a clean run prints nothing. Reads the
/// "fabric.*" totals every fabric folds into the process registry at
/// teardown (the same numbers as BENCH_*.json "resilience").
inline void print_resilience_table() {
  const telemetry::Snapshot s = telemetry::MetricsRegistry::process().snapshot();
  const auto c = [&s](const char* name) {
    return std::to_string(s.counter_or(std::string("fabric.") + name, 0));
  };
  if (s.counter_or("fabric.wire_faults_fired", 0) == 0 &&
      s.counter_or("fabric.retransmits", 0) == 0 &&
      s.counter_or("fabric.op_timeouts", 0) == 0)
    return;
  Table tbl("Reliable delivery (accumulated fabric totals)");
  tbl.columns({"faults fired", "retransmits", "crc rejects", "dups suppressed",
               "op timeouts"});
  tbl.row({c("wire_faults_fired"), c("retransmits"), c("crc_rejects"),
           c("dup_suppressed"), c("op_timeouts")});
  tbl.print();
}

}  // namespace photon::benchsupport
