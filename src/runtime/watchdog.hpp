// Liveness watchdog: a vtime-progress monitor for SPMD sections.
//
// Everything in this reproduction is paced by virtual time — a healthy rank
// advances its VClock whenever it completes wire ops, charges compute, or
// idles through util::wait_until (Photon::wait_for). A rank that spins in a
// progress loop waiting for a frame that will never arrive (permanent link
// cut, auto_recover off, fast-fail latch never tripped) burns wall-clock
// *without* advancing virtual time. The watchdog samples every rank's
// VClock from a monitor thread; when no rank makes vtime progress for a
// wall-clock budget it declares a stall and emits an attributed report
// naming, per rank, the last operation beacon (what the rank said it was
// doing), the peer it was aimed at, and that peer's health state and epoch
// as seen from the stuck rank's NIC.
//
// Opt-in, zero-cost when disabled: Cluster::run starts the monitor only
// when a config with enabled=true is attached (programmatically or via
// PHOTON_WATCHDOG=1). Beacons are two relaxed stores on the rank thread.
// Stalls are counted under `runtime.watchdog.stalls` in the process metrics
// registry; one report fires per stall episode and the detector re-arms as
// soon as any rank advances again.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fabric/fabric.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace photon::runtime {

struct WatchdogConfig {
  bool enabled = false;
  /// Wall-clock milliseconds with zero vtime progress across ALL ranks
  /// before a stall is declared. Generous by default: a false positive
  /// would abort/flag a healthy run, a late true positive only delays the
  /// report.
  std::uint64_t budget_ms = 2000;
  /// Monitor sampling period.
  std::uint64_t poll_ms = 25;

  /// PHOTON_WATCHDOG=1 enables; PHOTON_WATCHDOG_BUDGET_MS and
  /// PHOTON_WATCHDOG_POLL_MS override the defaults.
  static WatchdogConfig from_env();
};

/// What the monitor saw when it declared a stall.
struct StallReport {
  struct RankState {
    fabric::Rank rank = 0;
    std::uint64_t vtime = 0;       ///< frozen VClock value
    const char* op = "";           ///< last beacon ("" = no beacon set)
    bool has_peer = false;
    fabric::Rank peer = 0;         ///< beacon target when has_peer
    const char* peer_state = "";   ///< health of `peer` at this rank's NIC
    std::uint32_t peer_epoch = 0;  ///< tx epoch toward `peer`
  };
  std::uint64_t stalled_ms = 0;  ///< wall time with no progress
  std::vector<RankState> ranks;

  /// Human-readable multi-line report ("rank 1 stuck in probe_event toward
  /// peer 0 [Down epoch 2] at vtime ...").
  std::string to_string() const;
};

class Watchdog {
 public:
  static constexpr std::uint32_t kMaxRanks = 64;

  using Callback = std::function<void(const StallReport&)>;

  explicit Watchdog(WatchdogConfig cfg) : cfg_(cfg) {}
  ~Watchdog() { stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  const WatchdogConfig& config() const noexcept { return cfg_; }

  /// Invoked on the monitor thread for every declared stall (in addition to
  /// the stderr report). Set before start().
  // test-only-ok: chaos tests observe stall reports with it.
  void set_callback(Callback cb) { callback_ = std::move(cb); }

  /// Rank-thread beacon: "I am about to block in `op` toward `peer`".
  /// `op` must be a string literal / static string (stored by pointer).
  void note(fabric::Rank rank, const char* op, fabric::Rank peer) {
    if (rank >= kMaxRanks) return;
    Beacon& b = beacons_[rank];
    // relaxed-ok: advisory diagnostic breadcrumbs; the monitor tolerates a
    // momentarily mixed (op, peer) pair — the report is attribution, not
    // synchronization.
    b.peer.store(static_cast<std::uint64_t>(peer) + 1,
                 std::memory_order_relaxed);
    b.op.store(op, std::memory_order_relaxed);
  }

  /// Rank-thread beacon without a peer ("barrier", "compute", ...).
  void note(fabric::Rank rank, const char* op) {
    if (rank >= kMaxRanks) return;
    Beacon& b = beacons_[rank];
    // relaxed-ok: advisory diagnostic breadcrumbs (see note above).
    b.peer.store(0, std::memory_order_relaxed);
    b.op.store(op, std::memory_order_relaxed);
  }

  /// Start monitoring `fab` (idempotent; no-op when disabled). The fabric
  /// must outlive the watchdog or stop() must be called first.
  void start(fabric::Fabric& fab);

  /// Join the monitor thread (idempotent).
  void stop();

  /// Stall episodes declared since construction.
  std::uint64_t stalls() const {
    // relaxed-ok: monotonic statistic; read only for reporting.
    return stalls_.load(std::memory_order_relaxed);
  }

  /// Copy of the most recent stall report (empty ranks when none yet).
  StallReport last_report() const;

 private:
  struct Beacon {
    std::atomic<const char*> op{nullptr};
    std::atomic<std::uint64_t> peer{0};  ///< rank+1; 0 = no peer
  };

  void monitor_loop(fabric::Fabric* fab);
  StallReport build_report(fabric::Fabric& fab, std::uint64_t stalled_ms) const;

  WatchdogConfig cfg_;
  Callback callback_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> stalls_{0};
  Beacon beacons_[kMaxRanks];

  mutable util::Mutex report_mutex_;
  StallReport last_report_ GUARDED_BY(report_mutex_);
};

}  // namespace photon::runtime
