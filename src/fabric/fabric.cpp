#include "fabric/fabric.hpp"

#include <cstdlib>

namespace photon::fabric {

namespace {

double env_double(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : 0.0;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 0) : fallback;
}

}  // namespace

Fabric::Fabric(const FabricConfig& cfg)
    : cfg_(cfg), wire_(cfg.wire, cfg.nranks) {
  nics_.reserve(cfg.nranks);
  for (Rank r = 0; r < cfg.nranks; ++r)
    nics_.push_back(std::make_unique<Nic>(*this, r, cfg.nic));
  apply_env_wire_faults();
}

Fabric::~Fabric() { fold_metrics(telemetry::MetricsRegistry::process()); }

void Fabric::fold_metrics(telemetry::MetricsRegistry& reg) const {
  std::uint64_t faults_fired = 0;
  std::uint64_t cq_overflows = 0;
  for (const auto& n : nics_) {
    n->counters().for_each([&reg](const char* name, std::uint64_t v) {
      reg.fold("fabric.", {{name, v}});
    });
    faults_fired += n->faults().fired();
    cq_overflows += n->send_cq().overflows() + n->recv_cq().overflows();
  }
  // cq.overflows is the sticky QueueFull state: nonzero means a CQ
  // overflowed and poll returns QueueFull.
  reg.fold("fabric.", {{"wire_faults_fired", faults_fired},
                       {"cq.overflows", cq_overflows}});
  // Per-plane injector breakdown under its own `fault.*` namespace, so soak
  // and chaos BENCH_*.json reports show injected-vs-survived totals.
  const FaultInjector::FiredCounts fc = fault_totals();
  reg.fold("fault.", {{"post_failures", fc.post_failures},
                      {"drops", fc.drops},
                      {"ack_drops", fc.ack_drops},
                      {"corruptions", fc.corruptions},
                      {"delays", fc.delays},
                      {"link_down_stalls", fc.link_down_stalls},
                      {"injected_total", fc.total()}});
}

void Fabric::apply_env_wire_faults() {
  const double loss = env_double("PHOTON_WIRE_DROP");
  const double corrupt = env_double("PHOTON_WIRE_CORRUPT");
  const double delay_p = env_double("PHOTON_WIRE_DELAY");
  if (loss <= 0.0 && corrupt <= 0.0 && delay_p <= 0.0) return;
  const std::uint64_t seed = env_u64("PHOTON_WIRE_SEED", 0x5EED);
  for (Rank r = 0; r < size(); ++r) {
    FaultInjector::WireRandomConfig w;
    // Half of the configured loss hits the frame, half hits only the ack —
    // the latter forces real duplicate-suppression traffic.
    w.drop_p = loss / 2;
    w.ack_drop_p = loss / 2;
    w.corrupt_p = corrupt;
    w.delay_p = delay_p;
    w.delay_ns = env_u64("PHOTON_WIRE_DELAY_NS", 20'000);
    w.seed = seed + r * 0x9E3779B9ULL;
    nics_[r]->faults().set_wire_random(w);
  }
}

void Fabric::kill(Rank r) {
  if (r >= size()) return;
  for (Rank i = 0; i < size(); ++i) {
    if (i == r) continue;
    nics_[i]->faults().set_link_window({r, 0, kLinkDownForever});
    nics_[i]->health().force_down(r);
  }
}

void Fabric::revive(Rank r) {
  if (r >= size()) return;
  for (Rank i = 0; i < size(); ++i) {
    if (i == r) continue;
    nics_[i]->faults().clear_link_windows(r);
  }
}

FaultInjector::FiredCounts Fabric::fault_totals() const {
  FaultInjector::FiredCounts total;
  for (const auto& n : nics_) {
    const auto c = n->faults().fired_counts();
    total.post_failures += c.post_failures;
    total.drops += c.drops;
    total.ack_drops += c.ack_drops;
    total.corruptions += c.corruptions;
    total.delays += c.delays;
    total.link_down_stalls += c.link_down_stalls;
  }
  return total;
}

}  // namespace photon::fabric
