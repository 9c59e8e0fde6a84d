#include "dds/ha.hpp"

#include <atomic>
#include <stdexcept>


namespace photon::dds {

Directory::Directory(core::Photon& ph, telemetry::MetricsRegistry& reg)
    : ph_(ph),
      cells_(ph.size(), 0),
      promotions_(reg.counter("dds.ha.promotions")),
      redirects_(reg.counter("dds.ha.redirects")),
      repl_fences_(reg.counter("dds.ha.repl_fences")),
      state_bytes_(reg.counter("dds.ha.state_transfer_bytes")) {
  for (fabric::Rank h = 0; h < ph_.size(); ++h) cells_[h] = pack(0, h);
  auto desc = ph_.register_buffer(cells_.data(), cells_.size() * 8);
  if (!desc.ok())
    throw std::runtime_error("dds::Directory: table registration failed");
  desc_ = desc.value();
  peers_ = ph_.exchange_descriptors(desc_);
}

Directory::~Directory() { (void)ph_.unregister_buffer(desc_); }

std::uint64_t Directory::entry(fabric::Rank shard) const noexcept {
  // const_cast: atomic_ref over const objects lands only in C++26; the cell
  // really is mutable shared state (peers CAS it remotely).
  return std::atomic_ref<std::uint64_t>(
             const_cast<std::uint64_t&>(cells_[shard]))
      .load(std::memory_order_acquire);
}

bool Directory::adopt(fabric::Rank shard, std::uint64_t e) noexcept {
  std::atomic_ref<std::uint64_t> cellref(cells_[shard]);
  std::uint64_t cur = cellref.load(std::memory_order_acquire);
  while (entry_epoch(e) > entry_epoch(cur)) {
    if (cellref.compare_exchange_weak(cur, e, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      ph_.nic().health().publish_shard_epoch(shard, entry_epoch(e));
      return true;
    }
  }
  return false;
}

void Directory::poll_naks() {
  if (!enabled()) return;
  while (auto nk = ph_.take_shard_nak()) {
    if (nk->shard >= ph_.size()) continue;
    const auto shard = static_cast<fabric::Rank>(nk->shard);
    // Owner parity invariant: every promotion bumps the epoch by one and
    // flips the owner between home and partner, so even epochs belong to
    // the home and odd ones to the partner.
    const fabric::Rank own = nk->epoch % 2 == 0 ? shard : partner(shard);
    adopt(shard, pack(nk->epoch, own));
  }
}

util::Result<fabric::Rank> Directory::resolve(fabric::Rank shard,
                                              std::uint64_t timeout_ns) {
  if (!enabled()) {
    if (ph_.peer_down(shard)) return Status::PeerUnreachable;
    return shard;
  }
  poll_naks();
  const auto waited = ph_.wait_for(
      timeout_ns, [&] { return try_resolve(shard, timeout_ns); });
  return waited.value_or(Status::Timeout);
}

std::optional<util::Result<fabric::Rank>> Directory::try_resolve(
    fabric::Rank shard, std::uint64_t timeout_ns) {
  for (;;) {
    const std::uint64_t e = entry(shard);
    const fabric::Rank o = entry_owner(e);
    if (!ph_.peer_down(o)) return o;
    const fabric::Rank b = other_replica(shard, o);
    // Both replicas Down: nothing to promote, fail fast (no retry stall).
    if (ph_.peer_down(b)) return Status::PeerUnreachable;

    // Fetch the authoritative copy — the one hosted at the survivor — and
    // either adopt a promotion someone else already won or attempt our own.
    auto cur = ph_.get_u64(b, cell(b, shard), timeout_ns);
    if (!cur.ok()) return std::nullopt;
    if (entry_epoch(cur.value()) > entry_epoch(e)) {
      adopt(shard, cur.value());
      redirects_.add(1);
      continue;
    }
    // Here epoch(cur) <= epoch(e) (the newer case adopted above), so the
    // promoted epoch builds on our local view: a survivor whose copy went
    // stale (rejoined before its directory resync) must not cause an epoch
    // regression. epoch(e)'s owner is o != b, so epoch(e)+1 keeps the
    // owner-parity invariant.
    const std::uint64_t want = pack(entry_epoch(e) + 1, b);
    auto prior = ph_.compare_swap(b, cell(b, shard), cur.value(), want,
                                  timeout_ns);
    if (!prior.ok()) return std::nullopt;
    if (prior.value() == cur.value()) {
      // We won the promotion. Hint every other live rank's copy and post
      // shard-epoch NAKs so clients between directory reads redirect too.
      adopt(shard, want);
      promotions_.add(1);
      for (fabric::Rank r = 0; r < ph_.size(); ++r) {
        if (r == b || r == ph_.rank() || ph_.peer_down(r)) continue;
        (void)ph_.put_u64(r, cell(r, shard), want, timeout_ns);
        (void)ph_.post_shard_nak(r, static_cast<std::uint32_t>(shard),
                                 entry_epoch(want), timeout_ns);
      }
    } else {
      adopt(shard, prior.value());
      redirects_.add(1);
    }
    // Loop re-evaluates: the adopted owner is returned if usable.
  }
}

Status Directory::resync(fabric::Rank r, std::uint64_t timeout_ns) {
  if (!enabled() || r == ph_.rank()) return Status::Ok;
  for (fabric::Rank h = 0; h < ph_.size(); ++h) {
    if (owner_of(h) != ph_.rank()) continue;
    const Status st = ph_.put_u64(r, cell(r, h), entry(h), timeout_ns);
    if (st != Status::Ok) return st;
  }
  return ph_.flush(r, timeout_ns);
}

}  // namespace photon::dds
