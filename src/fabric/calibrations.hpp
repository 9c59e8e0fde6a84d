// Named wire calibrations standing in for the paper's backend abstraction.
//
// The real Photon selects a backend at init (InfiniBand verbs, Cray uGNI,
// or sockets); in this reproduction a backend is a LogGP calibration of the
// simulated fabric. Values are order-of-magnitude figures for the 2016-era
// hardware classes the paper targets:
//   * verbs  — FDR InfiniBand: ~1.3 us latency, ~6.6 GB/s, fast posting
//   * ugni   — Cray Aries/Gemini class: slightly lower latency, higher
//              injection rate, comparable bandwidth
//   * sockets — kernel TCP loopback-class: tens-of-microseconds latency,
//              high per-message CPU cost, ~1 GB/s
//
// test-only-ok: the backend calibrations DESIGN.md names; core_api_test and
// wire_invariants_test pin their ordering.
#pragma once

#include <stdexcept>
#include <string_view>

#include "fabric/wire_model.hpp"

namespace photon::fabric {

enum class Backend { kVerbs, kUgni, kSockets };

inline WireConfig backend_calibration(Backend b) {
  WireConfig w;
  switch (b) {
    case Backend::kVerbs:
      w.latency_ns = 1300;
      w.send_overhead_ns = 120;
      w.recv_overhead_ns = 90;
      w.gap_ns = 40;
      w.per_byte_ns = 0.15;
      w.atomic_exec_ns = 30;
      break;
    case Backend::kUgni:
      w.latency_ns = 1000;
      w.send_overhead_ns = 100;
      w.recv_overhead_ns = 80;
      w.gap_ns = 25;
      w.per_byte_ns = 0.12;
      w.atomic_exec_ns = 25;
      break;
    case Backend::kSockets:
      w.latency_ns = 25'000;
      w.send_overhead_ns = 2'000;
      w.recv_overhead_ns = 2'000;
      w.gap_ns = 500;
      w.per_byte_ns = 0.9;
      w.atomic_exec_ns = 200;  // emulated in software at the target
      break;
  }
  return w;
}

inline Backend backend_from_name(std::string_view name) {
  if (name == "verbs") return Backend::kVerbs;
  if (name == "ugni") return Backend::kUgni;
  if (name == "sockets") return Backend::kSockets;
  throw std::invalid_argument("unknown backend: " + std::string(name));
}

inline const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kVerbs: return "verbs";
    case Backend::kUgni: return "ugni";
    case Backend::kSockets: return "sockets";
  }
  return "unknown";
}

}  // namespace photon::fabric
