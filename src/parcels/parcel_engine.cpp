#include "parcels/parcel_engine.hpp"

#include <stdexcept>

#include "fabric/nic.hpp"
#include "telemetry/hooks.hpp"

namespace photon::parcels {

fabric::Rank Context::rank() const noexcept { return engine_.transport().rank(); }
std::uint32_t Context::size() const noexcept { return engine_.transport().size(); }

void Context::reply(HandlerId h, std::span<const std::byte> args) {
  engine_.send(p_.src, h, args);
}

void Context::spawn(fabric::Rank dst, HandlerId h,
                    std::span<const std::byte> args) {
  engine_.send(dst, h, args);
}

ParcelEngine::ParcelEngine(Transport& transport, HandlerRegistry& registry,
                           const EngineConfig& cfg)
    : transport_(transport), registry_(registry), cfg_(cfg) {}

ParcelEngine::~ParcelEngine() {
  PHOTON_TELEM_HOOK(telemetry::MetricsRegistry::process().fold(
      "parcels.", {{"sent", stats_.sent},
                   {"dispatched", stats_.dispatched},
                   {"send_retries", stats_.send_retries}}));
}

void ParcelEngine::send(fabric::Rank dst, HandlerId h,
                        std::span<const std::byte> args) {
  // Each retry jumps eagerly itself, so the idle steps between retries take
  // the plain back-off (a jump that never succeeds).
  const auto sent = util::wait_until(
      30'000'000'000ULL,
      [&]() -> std::optional<bool> {
        const Status st = transport_.send(dst, h, args);
        if (st == Status::Ok) return true;
        if (!transient(st))
          throw std::runtime_error("parcel send failed: " +
                                   std::string(status_name(st)));
        ++stats_.send_retries;
        transport_.progress();
        (void)transport_.progress_jump();
        // Back-pressure relief may require dispatching inbound parcels (the
        // peer could be blocked on us) — but never reenter a running handler.
        if (!in_handler_) (void)progress();
        return std::nullopt;
      },
      [] { return false; });
  if (!sent) throw std::runtime_error("parcel send timed out");
  ++stats_.sent;
}

std::size_t ParcelEngine::progress() {
  if (in_handler_) return 0;
  transport_.progress();
  std::size_t dispatched = 0;
  for (std::size_t i = 0; i < cfg_.poll_batch; ++i) {
    std::optional<Parcel> p;
    if (!ready_.empty()) {
      p = std::move(ready_.front());
      ready_.pop_front();
    } else {
      p = transport_.poll();
    }
    if (!p) break;
    const Handler* h = registry_.find(p->handler);
    if (h == nullptr)
      throw std::runtime_error("parcel for unregistered handler " +
                               std::to_string(p->handler));
    if (!*h) continue;  // handler deregistered: drop the straggler
    transport_.clock().add(cfg_.dispatch_cost_ns);
    Context ctx(*this, *p);
    in_handler_ = true;
    (*h)(ctx);
    in_handler_ = false;
    ++stats_.dispatched;
    ++dispatched;
  }
  return dispatched;
}

}  // namespace photon::parcels
