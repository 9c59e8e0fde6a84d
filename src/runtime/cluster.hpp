// Threads-as-ranks SPMD harness.
//
// A Cluster owns one Fabric and one bootstrap Exchanger; run() launches one
// thread per rank, hands each an Env, joins them, and rethrows the first
// rank exception. run() may be called repeatedly against the same fabric
// (the virtual clocks and wire state persist unless reset).
#pragma once

#include <functional>
#include <memory>

#include "fabric/fabric.hpp"
#include "runtime/bootstrap.hpp"
#include "runtime/watchdog.hpp"

namespace photon::runtime {

class Cluster;

/// Everything a rank's body needs.
struct Env {
  fabric::Rank rank;
  std::uint32_t size;
  fabric::Nic& nic;
  Exchanger& bootstrap;
  Cluster& cluster;
  Watchdog* watchdog = nullptr;  ///< set while a watchdog monitors this run

  fabric::VClock& clock() { return nic.clock(); }

  /// Liveness beacon: name the blocking operation this rank is entering so
  /// a watchdog stall report can attribute the hang. No-op when no watchdog
  /// is attached.
  void note(const char* op, fabric::Rank peer) {
    if (watchdog != nullptr) watchdog->note(rank, op, peer);
  }
  void note(const char* op) {
    if (watchdog != nullptr) watchdog->note(rank, op);
  }
};

class Cluster {
 public:
  /// Attaches a liveness watchdog automatically when PHOTON_WATCHDOG=1
  /// (see WatchdogConfig::from_env).
  explicit Cluster(const fabric::FabricConfig& cfg);

  fabric::Fabric& fabric() noexcept { return fabric_; }
  Exchanger& bootstrap() noexcept { return bootstrap_; }
  std::uint32_t size() const noexcept { return fabric_.size(); }

  /// Attach (or replace) the liveness watchdog; it monitors every
  /// subsequent run() section. Pass enabled=false to detach.
  void set_watchdog(const WatchdogConfig& cfg);

  /// The attached watchdog, or nullptr when none/disabled.
  Watchdog* watchdog() noexcept {
    return watchdog_ && watchdog_->config().enabled ? watchdog_.get()
                                                    : nullptr;
  }

  /// SPMD section: body(env) runs once per rank, concurrently. When a
  /// watchdog is attached its monitor thread runs for the duration of the
  /// section and stops before run() returns. Each rank thread sets
  /// util::t_cpu_shared, which is false when the calling thread's affinity
  /// mask holds a CPU for every rank.
  void run(const std::function<void(Env&)>& body);

  /// Reset all virtual clocks and wire-resource timestamps (between
  /// benchmark repetitions).
  void reset_virtual_time();

 private:
  fabric::Fabric fabric_;
  Exchanger bootstrap_;
  std::unique_ptr<Watchdog> watchdog_;
};

}  // namespace photon::runtime
