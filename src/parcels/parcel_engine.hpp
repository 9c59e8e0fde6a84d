// The parcel engine: an HPX-5-flavoured active-message progress loop.
//
// Handlers run inline on the rank's thread (one scheduler per rank, as in a
// lightweight AMT runtime's network progress thread). Dispatch cost is a
// calibrated virtual-time knob. Quiescence detection uses a global
// sent/received credit count over remote atomics on rank 0 — itself an RMA
// use case.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "parcels/transport.hpp"
#include "util/idle_wait.hpp"

namespace photon::parcels {

struct EngineConfig {
  std::uint64_t dispatch_cost_ns = 50;  ///< per-parcel scheduler cost
  std::size_t poll_batch = 16;          ///< parcels pulled per progress()
};

struct EngineStats {
  std::uint64_t sent = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t send_retries = 0;
};

class ParcelEngine {
 public:
  ParcelEngine(Transport& transport, HandlerRegistry& registry,
               const EngineConfig& cfg = {});
  /// Folds EngineStats into the process metrics registry (when enabled) as
  /// "parcels.*" counters.
  ~ParcelEngine();

  fabric::Rank rank() const { return transport_.rank(); }
  std::uint32_t size() const { return transport_.size(); }
  const EngineStats& stats() const noexcept { return stats_; }
  Transport& transport() noexcept { return transport_; }

  /// Send a parcel (blocks through transient back-pressure).
  void send(fabric::Rank dst, HandlerId h, std::span<const std::byte> args);

  /// Poll the transport and dispatch up to cfg.poll_batch parcels.
  /// Returns the number dispatched.
  std::size_t progress();

  /// Dispatch until `done()` returns true (local predicate), polling and
  /// running handlers in between. Wall-time bounded.
  template <typename Done>
  bool run_until(Done&& done, std::uint64_t timeout_ns = 30'000'000'000ULL);

 private:
  friend class Context;
  Transport& transport_;
  HandlerRegistry& registry_;
  EngineConfig cfg_;
  EngineStats stats_;
  bool in_handler_ = false;
  std::deque<Parcel> ready_;  ///< parcels spawned while a handler runs
};

template <typename Done>
bool ParcelEngine::run_until(Done&& done, std::uint64_t timeout_ns) {
  return util::wait_until(
             timeout_ns,
             [&](bool& progressed) -> std::optional<bool> {
               if (done()) return true;
               progressed = progress() != 0;
               return std::nullopt;
             },
             [this] { return transport_.progress_jump(); })
      .has_value();
}

}  // namespace photon::parcels
