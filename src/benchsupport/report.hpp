// Machine-readable bench reports: every bench binary owns one BenchReport
// and gets a BENCH_<name>.json next to it (or in $PHOTON_BENCH_DIR) at exit.
//
// The report is assembled from the process telemetry registry — the
// BenchReport constructor enables it (set PHOTON_BENCH_NO_TELEMETRY=1 to
// measure the disabled-telemetry hot path), the harness accumulates
// "bench.vtime_ns" per SPMD section, fabrics/engines fold their counters at
// teardown, and the Photon data path records per-op virtual-time latency
// histograms. From those the report derives:
//
//   * ops        — fabric-level operation count (puts+gets+sends+atomics)
//   * ops_per_sec— ops over accumulated *virtual* seconds (deterministic)
//   * vlat.local / vlat.remote — p50/p99/p999/mean over all per-(op,peer)
//     virtual-latency series (deterministic)
//   * resilience — retransmits / crc rejects / dups / faults / timeouts /
//     recoveries / stale-epoch drops, read from the "fabric.*" counters
//   * config     — fingerprint of compiled features + wire-fault env
//   * metrics    — bench-specific scalars added via metric() (wall-clock
//     values go here; tools/perf_gate.sh gates them loosely or not at all)
//
// tools/perf_gate.sh diffs two directories of these files per-metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace photon::benchsupport {

class BenchReport {
 public:
  /// `name` keys the output file: BENCH_<name>.json. Enables the process
  /// metrics registry (unless PHOTON_BENCH_NO_TELEMETRY=1) and resets it so
  /// the report covers exactly this process's work.
  explicit BenchReport(std::string name);
  /// Writes the report if write() was not already called.
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Attach a bench-specific scalar (appears under "metrics"). Metrics named
  /// "wall_*" are understood by the gate as nondeterministic.
  void metric(std::string_view name, double value);

  /// Declare that this bench's op counts depend on real thread interleaving
  /// (e.g. optimistic-retry loops under genuine contention). The gate then
  /// applies its relative tolerance to the exact-match metrics instead of
  /// requiring zero drift. Default: deterministic.
  void deterministic(bool d) { deterministic_ = d; }

  /// Destination path: $PHOTON_BENCH_DIR/BENCH_<name>.json (cwd by default).
  std::string path() const;

  /// Serialize the full report (also what gets written to path()).
  std::string to_json() const;

  /// Write to path(); returns false (and logs) on I/O failure.
  bool write();

 private:
  std::string name_;
  std::map<std::string, double> metrics_;
  bool deterministic_ = true;
  bool written_ = false;
};

}  // namespace photon::benchsupport
