#include "fabric/wire_model.hpp"

#include <algorithm>

namespace photon::fabric {

namespace {
/// Wire size of the control message that initiates a get or an atomic.
constexpr std::size_t kRequestBytes = 16;
/// Wire size of an atomic operand/response.
constexpr std::size_t kAtomicBytes = 8;
}  // namespace

WireModel::WireModel(const WireConfig& cfg, std::uint32_t nranks)
    : cfg_(cfg),
      nranks_(nranks),
      link_free_(static_cast<std::size_t>(nranks) * nranks),
      nic_free_(nranks) {
  reset();
}

void WireModel::reset() {
  // relaxed-ok: reset runs between phases with no concurrent reservations.
  for (auto& l : link_free_) l.t.store(0, std::memory_order_relaxed);
  for (auto& n : nic_free_) n.t.store(0, std::memory_order_relaxed);
}

std::uint64_t WireModel::reserve_link(FreeAt& link, std::uint64_t ready,
                                      std::uint64_t busy) {
  // relaxed-ok: the CAS transfers a virtual-time reservation, not memory —
  // each winner derives its own start from the value it swapped in, and no
  // other location is published through the exchange.
  std::uint64_t cur = link.t.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t start = std::max(ready, cur);
    if (link.t.compare_exchange_weak(cur, start + busy, std::memory_order_relaxed)) {
      return start;
    }
  }
}

std::uint64_t WireModel::reserve_nic(Rank src, std::uint64_t ready,
                                     std::uint64_t busy) {
  std::atomic<std::uint64_t>& port = nic_free_[src].t;
  // relaxed-ok: single writer (src's thread); a virtual-time value, nothing
  // else is published through it.
  const std::uint64_t start = std::max(ready, port.load(std::memory_order_relaxed));
  port.store(start + busy, std::memory_order_relaxed);  // relaxed-ok: as above
  return start;
}

WireModel::Times WireModel::transfer(Rank src, Rank dst, std::uint64_t ready,
                                     std::size_t bytes) {
  if (!cfg_.enabled) return {ready, ready};
  const std::uint64_t inj_start = reserve_nic(src, ready, cfg_.gap_ns);
  const std::uint64_t busy = cfg_.gap_ns + byte_cost(bytes);
  const std::uint64_t start = reserve_link(link(src, dst), inj_start, busy);
  const std::uint64_t xmit_end = start + busy;
  return {xmit_end, xmit_end + cfg_.latency_ns};
}

WireModel::Times WireModel::get(Rank initiator, Rank target, std::uint64_t ready,
                                std::size_t bytes) {
  if (!cfg_.enabled) return {ready, ready};
  // Request phase: initiator -> target (small control message).
  const Times req = transfer(initiator, target, ready, kRequestBytes);
  // Data phase: target -> initiator, DMA'd by the target NIC with no target
  // CPU involvement; it occupies the target's outbound link.
  const std::uint64_t busy = cfg_.gap_ns + byte_cost(bytes);
  const std::uint64_t start = reserve_link(link(target, initiator), req.deliver, busy);
  const std::uint64_t data_end = start + busy;
  return {data_end + cfg_.latency_ns, req.deliver};
}

WireModel::Times WireModel::atomic_op(Rank initiator, Rank target,
                                      std::uint64_t ready) {
  if (!cfg_.enabled) return {ready, ready};
  const Times req = transfer(initiator, target, ready, kRequestBytes + kAtomicBytes);
  const std::uint64_t exec_done = req.deliver + cfg_.atomic_exec_ns;
  // The 8-byte response is charged latency + serialization but does NOT
  // reserve the return link: reserving it at a *future* time (exec_done)
  // would head-of-line-block the target's own present-time sends behind a
  // negligible-bandwidth response (bump-pointer reservations cannot
  // backfill), cascading ~L per op under bidirectional atomic streams.
  const std::uint64_t busy = cfg_.gap_ns + byte_cost(kAtomicBytes);
  return {exec_done + busy + cfg_.latency_ns, exec_done};
}

}  // namespace photon::fabric
