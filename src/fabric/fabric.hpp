// The fabric: the set of NICs plus the shared wire model.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "check/checker.hpp"
#include "fabric/nic.hpp"
#include "fabric/wire_model.hpp"
#include "telemetry/metrics.hpp"

namespace photon::fabric {

struct FabricConfig {
  std::uint32_t nranks = 2;
  WireConfig wire{};
  NicConfig nic{};
};

class Fabric {
 public:
  explicit Fabric(const FabricConfig& cfg);
  /// Folds NIC counters into the process metrics registry (when enabled)
  /// so bench/test snapshots taken after teardown still see fabric totals.
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  std::uint32_t size() const noexcept { return cfg_.nranks; }
  Nic& nic(Rank r) { return *nics_.at(r); }
  const Nic& nic(Rank r) const { return *nics_.at(r); }
  WireModel& wire() noexcept { return wire_; }
  const FabricConfig& config() const noexcept { return cfg_; }

  /// Shared shadow-state validator (one per fabric; hooks are compiled in
  /// only when the build enables PHOTON_CHECK).
  check::Checker& checker() noexcept { return checker_; }

  /// Scripted peer death. Models a fabric-manager notification: every NIC's
  /// health table latches `r` Down at once and all links toward it are cut
  /// permanently, so pending ops resolve at their deadlines and new posts
  /// fast-fail with Status::PeerUnreachable. Reversible only via revive():
  /// the latch holds until the link reopens AND a probe runs the
  /// epoch-fence (Nic::try_recover). Callable from any thread.
  void kill(Rank r);

  /// Reopen the links Fabric::kill(r) cut (clears the per-peer link windows
  /// toward `r` on every other NIC). Does NOT flip health state — each rank
  /// returns `r` to Up only by running the reconnect/fence protocol on its
  /// own thread (Nic::try_recover, or automatically on the next post when
  /// NicConfig::auto_recover is set). Callable from any thread.
  void revive(Rank r);

  /// Per-plane fault-injector totals summed across all NICs (reporting).
  FaultInjector::FiredCounts fault_totals() const;

  /// Add every NIC counter (summed across ranks, "fabric.<counter>"), the
  /// fault-injector firing total ("fabric.wire_faults_fired"), the CQ
  /// overflow count ("fabric.cq.overflows"), and the per-plane injector
  /// breakdown ("fault.drops", "fault.ack_drops",
  /// "fault.corruptions", "fault.delays", "fault.link_down_stalls",
  /// "fault.post_failures", "fault.injected_total") into `reg`. No-op when
  /// the registry is disabled. Called automatically at destruction against
  /// MetricsRegistry::process().
  void fold_metrics(telemetry::MetricsRegistry& reg) const;

 private:
  /// PHOTON_WIRE_{DROP,CORRUPT,DELAY,DELAY_NS,SEED}: arm a seeded random
  /// lossy wire on every NIC at construction. Lets the CI soak leg run the
  /// unmodified test suites over a lossy fabric.
  void apply_env_wire_faults();

  FabricConfig cfg_;
  check::Checker checker_;  // before nics_: NICs bind to it at construction
  WireModel wire_;
  std::vector<std::unique_ptr<Nic>> nics_;
};

}  // namespace photon::fabric
