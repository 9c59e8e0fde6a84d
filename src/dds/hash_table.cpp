#include "dds/hash_table.hpp"

#include <cstring>
#include <span>
#include <stdexcept>

#include "util/timing.hpp"

namespace photon::dds {

namespace {

struct alignas(8) InsertReq {
  std::uint64_t key, value, token, epoch;
};
struct alignas(8) InsertAck {
  std::uint64_t token, nak, entry;
};
struct alignas(8) FindReq {
  std::uint64_t key, token, epoch;
};
struct alignas(8) FindAck {
  std::uint64_t token, found, value, nak, entry;
};
/// Owner -> backup write mirror. `requester` is the rank owed the ack once
/// the backup has applied (kNoAck for re-replication pushes).
struct alignas(8) MirrorReq {
  std::uint64_t key, value, token, requester;
};
constexpr std::uint64_t kNoAck = ~std::uint64_t{0};

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

}  // namespace

HashTable::HashTable(Service& svc, const HashTableConfig& cfg)
    : svc_(svc),
      cfg_(cfg),
      m_insert_(svc.metrics(), Service::scope_for(cfg.scope, "hash", cfg.backend),
                "insert"),
      m_find_(svc.metrics(), Service::scope_for(cfg.scope, "hash", cfg.backend),
              "find") {
  if (cfg_.backend == Backend::kRma) {
    shard_.assign(std::size_t{cfg_.slots_per_rank} * 2, 0);
    auto desc =
        svc_.photon().register_buffer(shard_.data(), shard_.size() * 8);
    if (!desc.ok())
      throw std::runtime_error("dds::HashTable: shard registration failed");
    shard_desc_ = desc.value();
    peer_shards_ = svc_.photon().exchange_descriptors(shard_desc_);
    if (cfg_.replicate) {
      // This rank also hosts a replica region for its partner's shard
      // (same layout; mirrored positionally, so a promoted backup serves
      // the identical probe chains).
      replica_.assign(shard_.size(), 0);
      auto rdesc =
          svc_.photon().register_buffer(replica_.data(), replica_.size() * 8);
      if (!rdesc.ok())
        throw std::runtime_error("dds::HashTable: replica registration failed");
      replica_desc_ = rdesc.value();
      peer_replicas_ = svc_.photon().exchange_descriptors(replica_desc_);
    }
    return;
  }
  // RPC: same registration order on every rank => matching handler ids.
  h_insert_ = svc_.registry().add([this](parcels::Context& ctx) {
    InsertReq rq;
    if (!parse(ctx.args(), rq)) return;
    const fabric::Rank shard = home_of(rq.key);
    auto& dir = svc_.directory();
    if (cfg_.replicate && (dir.owner_of(shard) != svc_.rank() ||
                           dir.epoch_of(shard) != rq.epoch)) {
      // Stale-epoch NAK: the shard moved; carry our entry so the client
      // redirects without another directory fetch.
      if (!svc_.photon().peer_down(ctx.src()))
        ctx.reply(h_insert_ack_,
                  bytes_of(InsertAck{rq.token, 1, dir.entry(shard)}));
      return;
    }
    store_for(shard)[rq.key] = rq.value;
    if (replicated()) {
      const fabric::Rank b = dir.other_replica(shard, svc_.rank());
      if (!svc_.photon().peer_down(b)) {
        // Replicate before ack: the backup applies, then acks the
        // requester directly — an acked insert is on two ranks.
        ctx.spawn(b, h_mirror_,
                  bytes_of(MirrorReq{rq.key, rq.value, rq.token, ctx.src()}));
        return;
      }
    }
    if (!svc_.photon().peer_down(ctx.src()))
      ctx.reply(h_insert_ack_, bytes_of(InsertAck{rq.token, 0, 0}));
  });
  h_insert_ack_ = svc_.registry().add([this](parcels::Context& ctx) {
    InsertAck ack;
    if (!parse(ctx.args(), ack)) return;
    if (auto it = pending_.find(ack.token); it != pending_.end()) {
      it->second.done = true;
      it->second.nak = ack.nak != 0;
      it->second.entry = ack.entry;
    }
  });
  h_find_ = svc_.registry().add([this](parcels::Context& ctx) {
    FindReq rq;
    if (!parse(ctx.args(), rq)) return;
    const fabric::Rank shard = home_of(rq.key);
    auto& dir = svc_.directory();
    if (cfg_.replicate && (dir.owner_of(shard) != svc_.rank() ||
                           dir.epoch_of(shard) != rq.epoch)) {
      if (!svc_.photon().peer_down(ctx.src()))
        ctx.reply(h_find_ack_,
                  bytes_of(FindAck{rq.token, 0, 0, 1, dir.entry(shard)}));
      return;
    }
    auto& store = store_for(shard);
    const auto it = store.find(rq.key);
    if (!svc_.photon().peer_down(ctx.src()))
      ctx.reply(h_find_ack_,
                bytes_of(FindAck{rq.token, it != store.end() ? 1u : 0u,
                                 it != store.end() ? it->second : 0, 0, 0}));
  });
  h_find_ack_ = svc_.registry().add([this](parcels::Context& ctx) {
    FindAck ack;
    if (!parse(ctx.args(), ack)) return;
    if (auto it = pending_.find(ack.token); it != pending_.end()) {
      it->second.done = true;
      it->second.found = ack.found != 0;
      it->second.value = ack.value;
      it->second.nak = ack.nak != 0;
      it->second.entry = ack.entry;
    }
  });
  h_mirror_ = svc_.registry().add([this](parcels::Context& ctx) {
    MirrorReq mq;
    if (!parse(ctx.args(), mq)) return;
    store_for(home_of(mq.key))[mq.key] = mq.value;
    if (mq.requester != kNoAck &&
        !svc_.photon().peer_down(static_cast<fabric::Rank>(mq.requester)))
      ctx.spawn(static_cast<fabric::Rank>(mq.requester), h_insert_ack_,
                bytes_of(InsertAck{mq.token, 0, 0}));
  });
}

HashTable::~HashTable() {
  if (shard_desc_.valid()) svc_.photon().unregister_buffer(shard_desc_);
  if (replica_desc_.valid()) svc_.photon().unregister_buffer(replica_desc_);
  // Handlers capture `this`: deregister so stragglers are dropped, not
  // dispatched into a dead object.
  for (auto h : {h_insert_, h_insert_ack_, h_find_, h_find_ack_, h_mirror_})
    svc_.registry().remove(h);
}

core::RemoteSlice HashTable::slot_slice(fabric::Rank shard, fabric::Rank host,
                                        std::uint32_t slot, std::size_t off,
                                        std::size_t len) const {
  const auto& d = host == shard ? peer_shards_[host] : peer_replicas_[host];
  return core::slice(d, std::size_t{slot} * 16 + off, len);
}

Status HashTable::insert(std::uint64_t key, std::uint64_t value) {
  if (key > kMaxKey) return Status::BadArgument;
  const std::uint64_t t0 =
      PHOTON_TELEM_EXPR(m_insert_.armed() ? svc_.clock().now() : 0, 0);
  const Status st = cfg_.backend == Backend::kRma ? insert_rma(key, value)
                                                  : insert_rpc(key, value);
  PHOTON_TELEM_HOOK(
      m_insert_.record(t0, svc_.clock().now(), st == Status::Ok));
  return st;
}

util::Result<std::uint64_t> HashTable::find(std::uint64_t key) {
  if (key > kMaxKey) return Status::BadArgument;
  const std::uint64_t t0 =
      PHOTON_TELEM_EXPR(m_find_.armed() ? svc_.clock().now() : 0, 0);
  auto r = cfg_.backend == Backend::kRma ? find_rma(key) : find_rpc(key);
  PHOTON_TELEM_HOOK(m_find_.record(
      t0, svc_.clock().now(), r.ok() || r.status() == Status::NotFound));
  return r;
}

Status HashTable::probe_insert(fabric::Rank shard, fabric::Rank host,
                               std::uint64_t key, std::uint64_t value,
                               std::uint32_t* slot_out) {
  auto& ph = svc_.photon();
  const std::uint64_t reserved = (key << 2) | kReserved;
  const std::uint64_t published = (key << 2) | kPublished;
  std::uint32_t slot = start_slot(key);
  for (std::uint32_t i = 0; i < cfg_.probe_limit; ++i) {
    auto prior = ph.compare_swap(host, tag_cell(shard, host, slot), 0, reserved,
                                 cfg_.op_timeout_ns);
    if (!prior.ok()) return prior.status();
    const bool claimed = prior.value() == 0;
    if (claimed || (prior.value() >> 2) == key) {
      // Ours (fresh claim or update). Write the value, then publish. The
      // publish CAS may lose to a concurrent updater's help-publish; any
      // non-Retry outcome with our key already in the tag is success.
      Status st = ph.put_u64(host, value_cell(shard, host, slot), value,
                             cfg_.op_timeout_ns);
      if (st != Status::Ok) return st;
      auto pub = ph.compare_swap(host, tag_cell(shard, host, slot), reserved,
                                 published, cfg_.op_timeout_ns);
      if (!pub.ok()) return pub.status();
      *slot_out = slot;
      return Status::Ok;
    }
    slot = (slot + 1) % cfg_.slots_per_rank;
  }
  return Status::QueueFull;  // probe chain exhausted: shard region full
}

util::Result<std::uint64_t> HashTable::probe_find(fabric::Rank shard,
                                                  fabric::Rank host,
                                                  std::uint64_t key) {
  auto& ph = svc_.photon();
  util::Deadline dl(cfg_.op_timeout_ns);
  std::uint32_t slot = start_slot(key);
  for (std::uint32_t i = 0; i < cfg_.probe_limit; ++i) {
    // Tag and value in one round trip; the tag is read first, so a
    // published tag comes with the value written before it was published.
    auto cells =
        ph.get_u64x2(host, slot_cells(shard, host, slot), cfg_.op_timeout_ns);
    if (!cells.ok()) return cells.status();
    const auto [tag, value] = cells.value();
    if (tag == 0) return Status::NotFound;
    if ((tag >> 2) == key) {
      if ((tag & 3) == kPublished) return value;
      // Claim in flight: the publish put is already on the wire. Re-read
      // the same slot until it lands (bounded by the op timeout).
      if (dl.expired()) return Status::Timeout;
      svc_.progress();  // serve RPC requests this rank owns while polling
      --i;
      continue;
    }
    slot = (slot + 1) % cfg_.slots_per_rank;
  }
  return Status::NotFound;
}

Status HashTable::insert_rma(std::uint64_t key, std::uint64_t value) {
  auto& ph = svc_.photon();
  const fabric::Rank shard = home_of(key);
  std::uint32_t slot = 0;
  if (!replicated()) {
    // Fast-fail: a Down owner with no backup cannot serve, ever — surface
    // PeerUnreachable immediately instead of stalling out the op timeout.
    if (ph.peer_down(shard)) return Status::PeerUnreachable;
    return probe_insert(shard, shard, key, value, &slot);
  }
  auto& dir = svc_.directory();
  util::Deadline dl(cfg_.op_timeout_ns);
  for (;;) {
    auto o = dir.resolve(shard, cfg_.op_timeout_ns);
    if (!o.ok()) return o.status();
    const Status st = probe_insert(shard, o.value(), key, value, &slot);
    if (st == Status::Ok) {
      const fabric::Rank b = dir.other_replica(shard, o.value());
      if (!ph.peer_down(b)) {
        // Mirror to the backup region positionally, then fence: once we
        // ack, the op is durable on two ranks.
        const std::uint64_t published = (key << 2) | kPublished;
        if (ph.put_u64(b, value_cell(shard, b, slot), value,
                       cfg_.op_timeout_ns) == Status::Ok &&
            ph.put_u64(b, tag_cell(shard, b, slot), published,
                       cfg_.op_timeout_ns) == Status::Ok &&
            ph.flush(b, cfg_.op_timeout_ns) == Status::Ok)
          dir.count_repl_fence();
        // A backup that died mid-mirror is excused: the only live replica
        // holds the op, and a simultaneous double failure voids the
        // durability contract anyway.
      }
      return Status::Ok;
    }
    if (st != Status::PeerUnreachable) return st;
    if (dl.expired()) return Status::Timeout;
    // The owner died mid-op: re-resolve (drives promotion) and retry. The
    // insert-or-update protocol is idempotent per (key, value).
  }
}

util::Result<std::uint64_t> HashTable::find_rma(std::uint64_t key) {
  auto& ph = svc_.photon();
  const fabric::Rank shard = home_of(key);
  if (!replicated()) {
    if (ph.peer_down(shard)) return Status::PeerUnreachable;  // fast-fail
    return probe_find(shard, shard, key);
  }
  auto& dir = svc_.directory();
  util::Deadline dl(cfg_.op_timeout_ns);
  for (;;) {
    auto o = dir.resolve(shard, cfg_.op_timeout_ns);
    if (!o.ok()) return o.status();
    auto r = probe_find(shard, o.value(), key);
    if (r.ok() || r.status() != Status::PeerUnreachable) return r;
    if (dl.expired()) return Status::Timeout;
  }
}

Status HashTable::insert_rpc(std::uint64_t key, std::uint64_t value) {
  auto& ph = svc_.photon();
  auto& dir = svc_.directory();
  const fabric::Rank shard = home_of(key);
  util::Deadline dl(cfg_.op_timeout_ns);
  for (;;) {
    fabric::Rank target = shard;
    if (cfg_.replicate) {
      auto o = dir.resolve(shard, cfg_.op_timeout_ns);
      if (!o.ok()) return o.status();
      target = o.value();
    } else if (ph.peer_down(shard)) {
      // Fast-fail: no backup exists, the op can never be served.
      return Status::PeerUnreachable;
    }
    const std::uint64_t token = next_token_++;
    pending_[token] = Pending{};
    svc_.engine().send(
        target, h_insert_,
        bytes_of(InsertReq{key, value, token, dir.epoch_of(shard)}));
    (void)svc_.engine().run_until(
        [&] { return pending_[token].done || ph.peer_down(target); },
        cfg_.op_timeout_ns);
    const Pending p = pending_[token];
    pending_.erase(token);
    if (p.done) {
      if (!p.nak) return Status::Ok;
      dir.adopt(shard, p.entry);
      dir.count_redirect();
    } else if (!ph.peer_down(target)) {
      return Status::Timeout;
    } else if (!cfg_.replicate) {
      return Status::PeerUnreachable;  // owner died while we waited
    }
    if (dl.expired()) return Status::Timeout;
    // NAK or dead target: re-resolve and retry toward the new owner.
  }
}

util::Result<std::uint64_t> HashTable::find_rpc(std::uint64_t key) {
  auto& ph = svc_.photon();
  auto& dir = svc_.directory();
  const fabric::Rank shard = home_of(key);
  util::Deadline dl(cfg_.op_timeout_ns);
  for (;;) {
    fabric::Rank target = shard;
    if (cfg_.replicate) {
      auto o = dir.resolve(shard, cfg_.op_timeout_ns);
      if (!o.ok()) return o.status();
      target = o.value();
    } else if (ph.peer_down(shard)) {
      return Status::PeerUnreachable;  // fast-fail: no backup exists
    }
    const std::uint64_t token = next_token_++;
    pending_[token] = Pending{};
    svc_.engine().send(target, h_find_,
                       bytes_of(FindReq{key, token, dir.epoch_of(shard)}));
    (void)svc_.engine().run_until(
        [&] { return pending_[token].done || ph.peer_down(target); },
        cfg_.op_timeout_ns);
    const Pending p = pending_[token];
    pending_.erase(token);
    if (p.done) {
      if (!p.nak) {
        if (!p.found) return Status::NotFound;
        return p.value;
      }
      dir.adopt(shard, p.entry);
      dir.count_redirect();
    } else if (!ph.peer_down(target)) {
      return Status::Timeout;
    } else if (!cfg_.replicate) {
      return Status::PeerUnreachable;
    }
    if (dl.expired()) return Status::Timeout;
  }
}

Status HashTable::ha_resync(fabric::Rank r) {
  if (!replicated() || r == svc_.rank()) return Status::Ok;
  auto& ph = svc_.photon();
  auto& dir = svc_.directory();
  const std::uint32_t n = svc_.size();
  // Shards whose replica set contains r: the one r homes, and the one r
  // backs. Push only as the current owner, and only in a quiescent window
  // (the caller barriers; concurrent ops would race the full-region copy).
  const fabric::Rank affected[2] = {r, static_cast<fabric::Rank>((r + n - 1) % n)};
  bool pushed = false;
  for (const fabric::Rank h : affected) {
    if (dir.owner_of(h) != svc_.rank()) continue;
    if (cfg_.backend == Backend::kRma) {
      const auto& src_desc = h == svc_.rank() ? shard_desc_ : replica_desc_;
      const auto& dst_desc = h == r ? peer_shards_[r] : peer_replicas_[r];
      const std::size_t len = shard_.size() * 8;
      const Status st = ph.put_with_completion(
          r, core::local_slice(src_desc, 0, len), core::slice(dst_desc, 0, len),
          std::nullopt, std::nullopt, cfg_.op_timeout_ns);
      if (st != Status::Ok) return st;
      dir.add_state_transfer(len);
      pushed = true;
    } else {
      if (ph.peer_down(r)) return Status::PeerUnreachable;
      for (const auto& [k, v] : store_for(h))
        svc_.engine().send(r, h_mirror_, bytes_of(MirrorReq{k, v, 0, kNoAck}));
      dir.add_state_transfer(store_for(h).size() * 16);
    }
  }
  return pushed ? ph.flush(r, cfg_.op_timeout_ns) : Status::Ok;
}

}  // namespace photon::dds
