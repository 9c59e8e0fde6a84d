#include "runtime/watchdog.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "resilience/peer_health.hpp"
#include "telemetry/metrics.hpp"

namespace photon::runtime {

namespace {

std::uint64_t env_ms(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 0) : fallback;
}

}  // namespace

WatchdogConfig WatchdogConfig::from_env() {
  WatchdogConfig cfg;
  const char* on = std::getenv("PHOTON_WATCHDOG");
  cfg.enabled = on != nullptr && on[0] != '\0' && on[0] != '0';
  cfg.budget_ms = env_ms("PHOTON_WATCHDOG_BUDGET_MS", cfg.budget_ms);
  cfg.poll_ms = env_ms("PHOTON_WATCHDOG_POLL_MS", cfg.poll_ms);
  if (cfg.poll_ms == 0) cfg.poll_ms = 1;
  return cfg;
}

std::string StallReport::to_string() const {
  std::string out = "watchdog: no virtual-time progress for " +
                    std::to_string(stalled_ms) + " ms\n";
  for (const auto& r : ranks) {
    out += "  rank " + std::to_string(r.rank) + " at vtime " +
           std::to_string(r.vtime);
    if (r.op != nullptr && r.op[0] != '\0') {
      out += " stuck in ";
      out += r.op;
      if (r.has_peer) {
        out += " toward peer " + std::to_string(r.peer) + " [" +
               r.peer_state + " epoch " + std::to_string(r.peer_epoch) + "]";
      }
    } else {
      out += " (no beacon)";
    }
    out += "\n";
  }
  return out;
}

void Watchdog::start(fabric::Fabric& fab) {
  if (!cfg_.enabled) return;
  // relaxed-ok: running_ gates only this control path; the thread itself is
  // created/joined on the caller thread, which provides the ordering.
  if (running_.load(std::memory_order_relaxed)) return;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this, &fab] { monitor_loop(&fab); });
}

void Watchdog::stop() {
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

StallReport Watchdog::last_report() const {
  util::LockGuard lock(report_mutex_);
  return last_report_;
}

StallReport Watchdog::build_report(fabric::Fabric& fab,
                                   std::uint64_t stalled_ms) const {
  StallReport rep;
  rep.stalled_ms = stalled_ms;
  for (fabric::Rank r = 0; r < fab.size(); ++r) {
    StallReport::RankState s;
    s.rank = r;
    s.vtime = fab.nic(r).clock().now();
    if (r < kMaxRanks) {
      // relaxed-ok: advisory diagnostic breadcrumbs written by the rank
      // thread; a torn (op, peer) pair only misattributes the report line.
      const char* op = beacons_[r].op.load(std::memory_order_relaxed);
      const std::uint64_t peer1 = beacons_[r].peer.load(std::memory_order_relaxed);
      s.op = op != nullptr ? op : "";
      if (peer1 != 0) {
        s.has_peer = true;
        s.peer = static_cast<fabric::Rank>(peer1 - 1);
        if (s.peer < fab.size()) {
          s.peer_state =
              resilience::peer_state_name(fab.nic(r).health().state(s.peer));
          s.peer_epoch = fab.nic(r).tx_epoch(s.peer);
        }
      }
    }
    rep.ranks.push_back(s);
  }
  return rep;
}

void Watchdog::monitor_loop(fabric::Fabric* fab) {
  using clock = std::chrono::steady_clock;
  std::vector<std::uint64_t> last(fab->size(), 0);
  for (fabric::Rank r = 0; r < fab->size(); ++r)
    last[r] = fab->nic(r).clock().now();
  auto last_progress = clock::now();
  bool reported = false;  // one report per stall episode

  // relaxed-ok: running_ is a stop flag; join() in stop() orders teardown.
  while (running_.load(std::memory_order_relaxed)) {
    // idle-ok: the monitor's own poll period, not a rank's wait loop.
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.poll_ms));
    bool progressed = false;
    for (fabric::Rank r = 0; r < fab->size(); ++r) {
      const std::uint64_t v = fab->nic(r).clock().now();
      if (v != last[r]) {
        last[r] = v;
        progressed = true;
      }
    }
    if (progressed) {
      last_progress = clock::now();
      reported = false;  // re-arm for the next episode
      continue;
    }
    const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
                             clock::now() - last_progress)
                             .count();
    if (reported || stalled < static_cast<long long>(cfg_.budget_ms)) continue;

    StallReport rep =
        build_report(*fab, static_cast<std::uint64_t>(stalled));
    {
      util::LockGuard lock(report_mutex_);
      last_report_ = rep;
    }
    // relaxed-ok: monotonic statistic; read only for reporting.
    stalls_.fetch_add(1, std::memory_order_relaxed);
    auto& reg = telemetry::MetricsRegistry::process();
    if (reg.enabled()) reg.counter("runtime.watchdog.stalls").add(1);
    std::fputs(rep.to_string().c_str(), stderr);
    if (callback_) callback_(rep);
    reported = true;
  }
}

}  // namespace photon::runtime
