#include "dds/lock.hpp"

#include <atomic>
#include <cstring>
#include <span>
#include <stdexcept>

#include "util/idle_wait.hpp"
#include "util/timing.hpp"

namespace photon::dds {

namespace {

struct alignas(8) AcquireReq {
  std::uint64_t token, epoch;
};
struct alignas(8) Grant {
  std::uint64_t token;
};
struct alignas(8) AcquireNak {
  std::uint64_t token, entry;
};
/// Owner -> backup holder mirror (also the re-replication push).
struct alignas(8) MirrorLock {
  std::uint64_t held, holder;
};

template <typename T>
std::span<const std::byte> bytes_of(const T& t) {
  return std::as_bytes(std::span<const T, 1>(&t, 1));
}

template <typename T>
bool parse(std::span<const std::byte> args, T& out) {
  if (args.size() != sizeof(T)) return false;
  std::memcpy(&out, args.data(), sizeof(T));
  return true;
}

constexpr std::size_t kTailIdx = 0;
constexpr std::size_t kNextIdx = 1;

}  // namespace

Lock::Lock(Service& svc, const LockConfig& cfg)
    : svc_(svc),
      cfg_(cfg),
      m_acquire_(svc.metrics(), Service::scope_for(cfg.scope, "lock", cfg.backend),
                 "acquire"),
      m_release_(svc.metrics(), Service::scope_for(cfg.scope, "lock", cfg.backend),
                 "release") {
  if (cfg_.backend == Backend::kRma) {
    cells_.assign(2, 0);
    auto desc = svc_.photon().register_buffer(cells_.data(), cells_.size() * 8);
    if (!desc.ok())
      throw std::runtime_error("dds::Lock: cell registration failed");
    cells_desc_ = desc.value();
    peer_cells_ = svc_.photon().exchange_descriptors(cells_desc_);
    handoff_id_ = svc_.alloc_handoff_id();
    return;
  }
  h_acquire_ = svc_.registry().add([this](parcels::Context& ctx) {
    AcquireReq rq;
    if (!parse(ctx.args(), rq)) return;
    auto& dir = svc_.directory();
    if (cfg_.replicate && (dir.owner_of(cfg_.home) != svc_.rank() ||
                           dir.epoch_of(cfg_.home) != rq.epoch)) {
      // Stale-epoch NAK: the lock moved; carry our entry so the client
      // redirects without another directory fetch.
      if (!svc_.photon().peer_down(ctx.src()))
        ctx.reply(h_nak_, bytes_of(AcquireNak{rq.token, dir.entry(cfg_.home)}));
      return;
    }
    if (cfg_.replicate && owner_held_ && owner_holder_ == ctx.src()) {
      // Idempotent re-grant: the previous owner granted this rank and died
      // before (or after) the grant landed; the mirrored holder state says
      // the lock is already theirs.
      ctx.reply(h_grant_, bytes_of(Grant{rq.token}));
      return;
    }
    if (!owner_held_) {
      owner_held_ = true;
      owner_holder_ = ctx.src();
      ctx.reply(h_grant_, bytes_of(Grant{rq.token}));
      if (replicated()) {
        const fabric::Rank b = dir.other_replica(cfg_.home, svc_.rank());
        if (!svc_.photon().peer_down(b))
          ctx.spawn(b, h_mlock_, bytes_of(MirrorLock{1, owner_holder_}));
      }
    } else {
      owner_waiters_.emplace_back(ctx.src(), rq.token);
    }
  });
  h_grant_ = svc_.registry().add([this](parcels::Context& ctx) {
    Grant g;
    if (!parse(ctx.args(), g)) return;
    if (auto it = pending_.find(g.token); it != pending_.end())
      it->second.done = true;
  });
  h_release_ = svc_.registry().add([this](parcels::Context& ctx) {
    // Hand off to the first waiter that is still alive.
    while (!owner_waiters_.empty()) {
      auto [rank, token] = owner_waiters_.front();
      owner_waiters_.pop_front();
      if (svc_.photon().peer_down(rank)) continue;
      ctx.spawn(rank, h_grant_, bytes_of(Grant{token}));
      owner_holder_ = rank;
      if (replicated()) {
        const fabric::Rank b =
            svc_.directory().other_replica(cfg_.home, svc_.rank());
        if (!svc_.photon().peer_down(b))
          ctx.spawn(b, h_mlock_, bytes_of(MirrorLock{1, owner_holder_}));
      }
      return;
    }
    owner_held_ = false;
    owner_holder_ = 0;
    if (replicated()) {
      const fabric::Rank b =
          svc_.directory().other_replica(cfg_.home, svc_.rank());
      if (!svc_.photon().peer_down(b))
        ctx.spawn(b, h_mlock_, bytes_of(MirrorLock{0, 0}));
    }
  });
  h_nak_ = svc_.registry().add([this](parcels::Context& ctx) {
    AcquireNak nk;
    if (!parse(ctx.args(), nk)) return;
    if (auto it = pending_.find(nk.token); it != pending_.end()) {
      it->second.done = true;
      it->second.nak = true;
      it->second.entry = nk.entry;
    }
  });
  h_mlock_ = svc_.registry().add([this](parcels::Context& ctx) {
    MirrorLock m;
    if (!parse(ctx.args(), m)) return;
    owner_held_ = m.held != 0;
    owner_holder_ = static_cast<fabric::Rank>(m.holder);
  });
}

Lock::~Lock() {
  if (cells_desc_.valid()) svc_.photon().unregister_buffer(cells_desc_);
  // Handlers capture `this`: deregister so stragglers (e.g. the
  // fire-and-forget release still in flight) are dropped, not dispatched
  // into a dead object.
  for (auto h : {h_acquire_, h_grant_, h_release_, h_nak_, h_mlock_})
    svc_.registry().remove(h);
}

Status Lock::acquire() {
  if (held_) return Status::BadArgument;  // non-reentrant
  const std::uint64_t t0 =
      PHOTON_TELEM_EXPR(m_acquire_.armed() ? svc_.clock().now() : 0, 0);
  const Status st =
      cfg_.backend == Backend::kRma ? acquire_rma() : acquire_rpc();
  PHOTON_TELEM_HOOK(
      m_acquire_.record(t0, svc_.clock().now(), st == Status::Ok));
  if (st == Status::Ok) held_ = true;
  return st;
}

Status Lock::release() {
  if (!held_) return Status::BadArgument;
  const std::uint64_t t0 =
      PHOTON_TELEM_EXPR(m_release_.armed() ? svc_.clock().now() : 0, 0);
  const Status st =
      cfg_.backend == Backend::kRma ? release_rma() : release_rpc();
  PHOTON_TELEM_HOOK(
      m_release_.record(t0, svc_.clock().now(), st == Status::Ok));
  // PeerUnreachable drops the lock too: the authority that knew we held it
  // is gone, and a later acquire re-establishes state at the new owner.
  if (st == Status::Ok || st == Status::PeerUnreachable) held_ = false;
  return st;
}

void Lock::mirror_hint(fabric::Rank owner, std::uint64_t v) {
  if (!replicated()) return;
  auto& ph = svc_.photon();
  auto& dir = svc_.directory();
  const fabric::Rank b = dir.other_replica(cfg_.home, owner);
  // A backup that died mid-mirror is excused: a simultaneous double failure
  // voids the availability contract anyway.
  if (ph.peer_down(b)) return;
  if (ph.put_u64(b, core::slice(peer_cells_[b], 8 * kTailIdx, 8), v,
                 cfg_.op_timeout_ns) == Status::Ok &&
      ph.flush(b, cfg_.op_timeout_ns) == Status::Ok)
    dir.count_repl_fence();
}

Status Lock::acquire_rma() {
  auto& ph = svc_.photon();
  auto& dir = svc_.directory();
  util::Deadline dl(cfg_.op_timeout_ns);
  for (;;) {
    fabric::Rank o = cfg_.home;
    if (replicated()) {
      auto r = dir.resolve(cfg_.home, cfg_.op_timeout_ns);
      if (!r.ok()) return r.status();
      o = r.value();
    } else if (ph.peer_down(cfg_.home)) {
      // Fast-fail: no backup exists, the lock can never be served.
      return Status::PeerUnreachable;
    }
    // Reset my queue node before joining the queue. Plain release-store: any
    // successor learns my node id only through the tail swap that happens
    // after this.
    std::atomic_ref<std::uint64_t>(cells_[kNextIdx])
        .store(0, std::memory_order_release);
    auto prev = ph.swap_u64(o, core::slice(peer_cells_[o], 8 * kTailIdx, 8),
                            my_node(), cfg_.op_timeout_ns);
    if (!prev.ok()) {
      if (replicated() && prev.status() == Status::PeerUnreachable &&
          !dl.expired())
        continue;  // owner died under the swap: re-resolve and retry
      return prev.status();
    }
    if (prev.value() == 0 || prev.value() == my_node()) {
      // Uncontended (prev == 0), or our own stale holder hint survived a
      // failover after we released but before the hint-zero landed — the
      // lock is free either way and the swap re-claimed it. Advertise the
      // new holder to the other replica before reporting the lock held.
      mirror_hint(o, my_node());
      return Status::Ok;
    }

    // Enqueue behind the predecessor and wait for its handoff doorbell.
    const auto pred = static_cast<fabric::Rank>(prev.value() - 1);
    Status st = ph.put_u64(pred, core::slice(peer_cells_[pred], 8 * kNextIdx, 8),
                           my_node(), cfg_.op_timeout_ns);
    if (st != Status::Ok) return st;
    const auto waited = ph.wait_for(
        cfg_.op_timeout_ns, [&]() -> std::optional<Status> {
          svc_.progress();  // parcels keep flowing while we park
          if (ph.take_event(pred, handoff_id_)) {
            mirror_hint(o, my_node());  // we are the holder now
            return Status::Ok;
          }
          if (ph.peer_down(pred)) return Status::PeerUnreachable;
          return std::nullopt;
        });
    return waited.value_or(Status::Timeout);
  }
}

Status Lock::release_rma() {
  auto& ph = svc_.photon();
  auto& dir = svc_.directory();
  // Acquire-load pairs with the successor's 8-byte put (release-store at
  // this NIC).
  std::uint64_t next =
      std::atomic_ref<std::uint64_t>(cells_[kNextIdx])
          .load(std::memory_order_acquire);
  if (next == 0) {
    fabric::Rank o = cfg_.home;
    if (replicated()) {
      auto r = dir.resolve(cfg_.home, cfg_.op_timeout_ns);
      if (!r.ok()) return r.status();
      o = r.value();
      // Pessimistic pre-zero: drop the holder hint before freeing the lock
      // at the owner, so a promotion can never resurrect us as holder. The
      // (documented) cost is a hint-free window while a successor is
      // mid-enqueue — see the failover caveats in the header.
      mirror_hint(o, 0);
    } else if (ph.peer_down(cfg_.home)) {
      return Status::PeerUnreachable;  // fast-fail: lock authority is gone
    }
    auto prior = ph.compare_swap(
        o, core::slice(peer_cells_[o], 8 * kTailIdx, 8),
        my_node(), 0, cfg_.op_timeout_ns);
    if (!prior.ok()) return prior.status();
    if (prior.value() == my_node()) return Status::Ok;  // no successor
    // A successor swapped in before our CAS: its put into our next cell is
    // on the way (data lands at its post; wait for the store to appear).
    // Back off without jumping: this waits on a host-side store, not on a
    // pending virtual arrival.
    if (!util::wait_until(
            cfg_.op_timeout_ns,
            [&]() -> std::optional<bool> {
              next = std::atomic_ref<std::uint64_t>(cells_[kNextIdx])
                         .load(std::memory_order_acquire);
              if (next != 0) return true;
              svc_.progress();
              return std::nullopt;
            },
            [] { return false; }))
      return Status::Timeout;
  }
  return ph.signal(static_cast<fabric::Rank>(next - 1), handoff_id_,
                   cfg_.op_timeout_ns);
}

Status Lock::acquire_rpc() {
  auto& ph = svc_.photon();
  auto& dir = svc_.directory();
  util::Deadline dl(cfg_.op_timeout_ns);
  for (;;) {
    fabric::Rank target = cfg_.home;
    if (cfg_.replicate) {
      auto o = dir.resolve(cfg_.home, cfg_.op_timeout_ns);
      if (!o.ok()) return o.status();
      target = o.value();
    } else if (ph.peer_down(cfg_.home)) {
      // Fast-fail: no backup exists, the lock can never be served.
      return Status::PeerUnreachable;
    }
    const std::uint64_t token = next_token_++;
    pending_[token] = Pending{};
    svc_.engine().send(target, h_acquire_,
                       bytes_of(AcquireReq{token, dir.epoch_of(cfg_.home)}));
    (void)svc_.engine().run_until(
        [&] { return pending_[token].done || ph.peer_down(target); },
        cfg_.op_timeout_ns);
    const Pending p = pending_[token];
    pending_.erase(token);
    if (p.done) {
      if (!p.nak) return Status::Ok;
      dir.adopt(cfg_.home, p.entry);
      dir.count_redirect();
    } else if (!ph.peer_down(target)) {
      return Status::Timeout;
    } else if (!cfg_.replicate) {
      return Status::PeerUnreachable;  // home died while we waited
    }
    if (dl.expired()) return Status::Timeout;
    // NAK or dead target: re-resolve and re-request at the new owner (the
    // mirrored holder state makes a re-request after a grant idempotent).
  }
}

Status Lock::release_rpc() {
  auto& ph = svc_.photon();
  fabric::Rank target = cfg_.home;
  if (cfg_.replicate) {
    auto o = svc_.directory().resolve(cfg_.home, cfg_.op_timeout_ns);
    if (!o.ok()) return o.status();
    target = o.value();
  } else if (ph.peer_down(cfg_.home)) {
    return Status::PeerUnreachable;  // fast-fail: lock authority is gone
  }
  // Fire-and-forget: the per-peer eager ring delivers this before any later
  // acquire request from this rank, so lock order is preserved.
  svc_.engine().send(target, h_release_, {});
  return Status::Ok;
}

Status Lock::ha_resync(fabric::Rank r) {
  if (!replicated()) return Status::Ok;
  auto& ph = svc_.photon();
  auto& dir = svc_.directory();
  if (r != cfg_.home && r != dir.partner(cfg_.home)) return Status::Ok;
  if (r == svc_.rank()) {
    // We are the rejoiner: waiters parked with us before the kill are stale
    // (their clients timed out and re-requested at the promoted owner).
    if (cfg_.backend == Backend::kRpc && dir.owner_of(cfg_.home) != svc_.rank())
      owner_waiters_.clear();
    return Status::Ok;
  }
  if (dir.owner_of(cfg_.home) != svc_.rank()) return Status::Ok;
  if (cfg_.backend == Backend::kRma) {
    // Push the live tail as r's holder hint. The caller quiesces, so the
    // tail is either 0 or the current holder's node — exactly the hint a
    // later promotion needs.
    const std::uint64_t tail = std::atomic_ref<std::uint64_t>(
                                   const_cast<std::uint64_t&>(cells_[kTailIdx]))
                                   .load(std::memory_order_acquire);
    const Status st = ph.put_u64(r, core::slice(peer_cells_[r], 8 * kTailIdx, 8),
                                 tail, cfg_.op_timeout_ns);
    if (st != Status::Ok) return st;
    dir.add_state_transfer(8);
    return ph.flush(r, cfg_.op_timeout_ns);
  }
  if (ph.peer_down(r)) return Status::PeerUnreachable;
  svc_.engine().send(
      r, h_mlock_,
      bytes_of(MirrorLock{owner_held_ ? 1u : 0u, owner_holder_}));
  dir.add_state_transfer(sizeof(MirrorLock));
  return Status::Ok;
}

}  // namespace photon::dds
