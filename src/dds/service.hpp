// PhotonDDS: distributed data-structure service layer over the Photon core.
//
// Three structures — a sharded hash table, an MPMC queue, and an MCS-style
// lock — each with two interchangeable engines behind one interface:
//   * Backend::kRma — pure one-sided: remote-atomic CAS/fetch-add/swap
//     claims, 8-byte GWC reads, put-based handoff. The owner's CPU is never
//     involved in another rank's operation.
//   * Backend::kRpc — a parcel/active-message twin: every operation is a
//     request to the owning rank's handler, which applies it to plain local
//     state and replies. The owner's scheduler is on every critical path.
// The pair makes the paper's core claim measurable end-to-end: bench_dds
// drives identical Zipfian key traffic through both and compares tails.
//
// A Service bundles the shared plumbing one rank needs to host structures:
// the Photon instance, a parcel engine for the RPC twins (and for lock
// handoff signals' progress), and the out-of-band exchanger for collective
// construction. Construction of every structure is collective and must run
// in the same order on all ranks (handler ids and descriptor exchanges are
// SPMD-matched, like the published library's registration phase).
//
// Threading: like core::Photon, a Service and its structures are owned by
// their rank's thread; only the fabric underneath is cross-thread.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>

#include "core/photon.hpp"
#include "dds/ha.hpp"
#include "parcels/parcel_engine.hpp"
#include "parcels/transport.hpp"
#include "telemetry/hooks.hpp"

namespace photon::dds {

/// Which engine a structure runs on; fixed at construction, same on every
/// rank (the wire protocols are incompatible).
enum class Backend : std::uint8_t {
  kRma,  ///< one-sided remote atomics + 8-byte reads/writes
  kRpc,  ///< parcel request/reply to the owning rank
};

inline const char* backend_name(Backend b) noexcept {
  return b == Backend::kRma ? "rma" : "rpc";
}

/// Per-operation telemetry: an ops counter, an error counter, and a
/// virtual-latency histogram under "<scope>.<op>.{ops,errors,vlat}". The
/// whole object is inert while the registry is disabled, and recording call
/// sites compile out entirely under -DPHOTON_TELEMETRY=OFF (same contract as
/// the core's OpLatencyRecorder).
class OpMetrics {
 public:
  OpMetrics(telemetry::MetricsRegistry& reg, const std::string& scope,
            const char* op)
      : reg_(reg),
        ops_(reg.counter(scope + "." + op + ".ops")),
        errors_(reg.counter(scope + "." + op + ".errors")),
        vlat_(reg.histogram(scope + "." + op + ".vlat")) {}

  bool armed() const noexcept { return reg_.enabled(); }

  void record(std::uint64_t t0, std::uint64_t t1, bool ok) noexcept {
    if (!armed()) return;
    ops_.add(1);
    if (!ok) errors_.add(1);
    vlat_.record(t1 >= t0 ? t1 - t0 : 0);  // clocks rewind on sync_reset
  }

 private:
  telemetry::MetricsRegistry& reg_;
  telemetry::Counter& ops_;
  telemetry::Counter& errors_;
  telemetry::LatencyHistogram& vlat_;
};

class Service {
 public:
  /// Collective (constructs the parcel stack over `ph`). `oob` must be the
  /// same exchanger the Photon instance was bootstrapped with.
  Service(core::Photon& ph, runtime::Exchanger& oob)
      : ph_(ph),
        oob_(oob),
        transport_(ph),
        engine_(transport_, registry_),
        dir_(ph, resolve_metrics(ph)) {
    // Registered before any structure's handlers (every rank constructs its
    // Service first), so the fence marker id is SPMD-identical.
    h_fence_ = registry_.add([this](parcels::Context& ctx) {
      std::uint64_t gen = 0;
      if (ctx.args().size() != sizeof(gen)) return;
      std::memcpy(&gen, ctx.args().data(), sizeof(gen));
      ++fence_arrived_[gen];
    });
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  fabric::Rank rank() const noexcept { return ph_.rank(); }
  std::uint32_t size() const noexcept { return ph_.size(); }
  core::Photon& photon() noexcept { return ph_; }
  runtime::Exchanger& oob() noexcept { return oob_; }
  parcels::HandlerRegistry& registry() noexcept { return registry_; }
  parcels::ParcelEngine& engine() noexcept { return engine_; }
  fabric::VClock& clock() noexcept { return ph_.clock(); }

  /// The registry DDS metrics bind to (the Photon instance's sink).
  telemetry::MetricsRegistry& metrics() noexcept { return resolve_metrics(ph_); }

  /// The shard-ownership directory (the HA layer; see dds/ha.hpp). Always
  /// constructed — replication is opted into per structure, and the
  /// directory stays inert (epoch 0, owner = home) until a failover.
  Directory& directory() noexcept { return dir_; }

  /// Drive everything: core progress plus parcel dispatch, so a rank blocked
  /// in one structure's wait loop keeps serving RPC requests it owns.
  void progress() { engine_.progress(); }
  bool progress_jump() { return ph_.progress_jump(); }

  /// Collective barrier that keeps serving: every rank broadcasts a fence
  /// marker and dispatches parcels until it has heard from everyone. Use
  /// this — never a blocking out-of-band barrier — to delimit phases while
  /// RPC-backed structures are live: a rank parked in a hard barrier cannot
  /// run the handlers its peers' operations need. Once fence() returns, this
  /// rank's markers are already in every peer's ring, so peers can finish
  /// their own fence without our CPU. Peers latched Down are excluded — the
  /// fence spans the live membership, so survivors can still phase-sync
  /// after a failover (a peer that dies mid-fence drops out of the expected
  /// count on the next poll).
  Status fence(std::uint64_t timeout_ns = 10'000'000'000ULL) {
    const std::uint64_t gen = ++fence_gen_;
    for (fabric::Rank r = 0; r < size(); ++r)
      if (r != rank() && !ph_.peer_down(r))
        engine_.send(r, h_fence_,
                     std::as_bytes(std::span<const std::uint64_t, 1>(&gen, 1)));
    const bool ok = engine_.run_until(
        [&] {
          std::uint32_t expect = 0;
          for (fabric::Rank r = 0; r < size(); ++r)
            if (r != rank() && !ph_.peer_down(r)) ++expect;
          return fence_arrived_[gen] >= expect;
        },
        timeout_ns);
    fence_arrived_.erase(gen);
    return ok ? Status::Ok : Status::Timeout;
  }

  /// Distinct take_event() id for a lock instance's successor handoff: a
  /// keyed id (core::kKeyedEventBit), so the parcel dispatcher's probe never
  /// sees it, in the service half of the keyed space. Collective order
  /// makes the id SPMD-identical per instance.
  std::uint64_t alloc_handoff_id() noexcept {
    return core::kKeyedEventBit | core::kKeyedServiceBit | ++handoff_seq_;
  }

  /// Telemetry scope for one structure: "<prefix>.<struct>.<backend>" with
  /// an optional caller override (bench_dds scopes per Zipf skew).
  static std::string scope_for(const std::string& override_scope,
                               const char* structure, Backend b) {
    if (!override_scope.empty()) return override_scope;
    return std::string("dds.") + structure + "." + backend_name(b);
  }

 private:
  static telemetry::MetricsRegistry& resolve_metrics(core::Photon& ph) noexcept {
    auto* m = ph.config().metrics;
    return m != nullptr ? *m : telemetry::MetricsRegistry::process();
  }

  core::Photon& ph_;
  runtime::Exchanger& oob_;
  parcels::HandlerRegistry registry_;
  parcels::PhotonTransport transport_;
  parcels::ParcelEngine engine_;
  Directory dir_;
  std::uint64_t handoff_seq_ = 0;
  parcels::HandlerId h_fence_ = parcels::kInvalidHandler;
  std::uint64_t fence_gen_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> fence_arrived_;
};

/// splitmix64 finalizer — shared key scrambling for shard/slot selection.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace photon::dds
