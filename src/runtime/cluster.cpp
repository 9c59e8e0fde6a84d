#include "runtime/cluster.hpp"

#include <sched.h>

#include <exception>
#include <thread>
#include <vector>

#include "util/idle_wait.hpp"

namespace photon::runtime {

namespace {
/// True when the calling thread's affinity mask holds fewer CPUs than
/// `nranks` (or cannot be read): rank threads it starts may share a CPU.
bool ranks_share_cpus(std::uint32_t nranks) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return true;
  return static_cast<std::uint32_t>(CPU_COUNT(&set)) < nranks;
}
}  // namespace

Cluster::Cluster(const fabric::FabricConfig& cfg)
    : fabric_(cfg), bootstrap_(cfg.nranks) {
  const WatchdogConfig wd = WatchdogConfig::from_env();
  if (wd.enabled) set_watchdog(wd);
}

void Cluster::set_watchdog(const WatchdogConfig& cfg) {
  watchdog_ = cfg.enabled ? std::make_unique<Watchdog>(cfg) : nullptr;
}

void Cluster::run(const std::function<void(Env&)>& body) {
  const std::uint32_t n = fabric_.size();
  Watchdog* wd = watchdog();
  const bool shared = ranks_share_cpus(n);
  if (wd != nullptr) wd->start(fabric_);
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      util::t_cpu_shared = shared;
      Env env{r, n, fabric_.nic(r), bootstrap_, *this, wd};
      try {
        body(env);
      } catch (...) {
        errors[r] = std::current_exception();
        // Unblock peers stuck in bootstrap collectives so the whole
        // section fails fast instead of deadlocking on join.
        bootstrap_.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (wd != nullptr) wd->stop();
  bootstrap_.clear_abort();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

void Cluster::reset_virtual_time() {
  for (fabric::Rank r = 0; r < fabric_.size(); ++r) {
    fabric_.nic(r).clock().reset();
    fabric_.nic(r).reset_stream_time();
  }
  fabric_.wire().reset();
}

}  // namespace photon::runtime
