#include "coll/communicator.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/hooks.hpp"

namespace photon::coll {

using fabric::Rank;

namespace {
constexpr std::uint64_t kCollTimeoutNs = 30'000'000'000ULL;  // 30 s wall
// seq_ is pre-incremented by every collective, so block_id never emits an id
// with sequence 0: the whole seq==0 subspace is free for control messages.
constexpr std::uint64_t kRejoinSyncId = core::kKeyedEventBit | 0x1;
// block_id keeps the sequence in bits 24..61.
constexpr std::uint64_t kSeqMask = 0x3FFFFFFFFFULL;
}

Communicator::Communicator(core::Photon& ph) : ph_(ph) {
  if (ph_.size() > 256)
    throw std::invalid_argument("Communicator supports up to 256 ranks");
  group_.resize(ph_.size());
  for (std::uint32_t r = 0; r < ph_.size(); ++r) group_[r] = r;
  gidx_ = ph_.rank();
}

std::uint32_t Communicator::vindex_of(Rank r) const {
  const auto it = std::find(group_.begin(), group_.end(), r);
  if (it == group_.end())
    throw std::invalid_argument("rank " + std::to_string(r) +
                                " is not in the active group");
  return static_cast<std::uint32_t>(it - group_.begin());
}

std::size_t Communicator::shrink() {
  std::vector<Rank> keep;
  keep.reserve(group_.size());
  for (const Rank r : group_)
    if (r == rank() || !ph_.peer_down(r)) keep.push_back(r);
  const std::size_t removed = group_.size() - keep.size();
  group_ = std::move(keep);
  gidx_ = vindex_of(rank());
  discard_stale_ = true;
  discard_stale_blocks();
  return removed;
}

void Communicator::discard_stale_blocks() {
  const std::uint64_t cur = seq_ & kSeqMask;
  const auto live = [cur](const core::ProbeEvent& e) {
    const std::uint64_t seq = (e.id >> 24) & kSeqMask;
    const bool block = (e.id & core::kKeyedEventBit) != 0 &&
                       (e.id & core::kKeyedServiceBit) == 0 && seq != 0;
    return !block || seq >= cur;
  };
  for (Rank r = 0; r < ph_.size(); ++r)
    if (r != rank()) ph_.discard_events_from(r, live);
}

Status Communicator::rejoin(Rank r) {
  if (r >= ph_.size()) return Status::BadArgument;
  if (r == rank()) {
    // Recovering side. Our group never shrank (the outage cut the others'
    // view of us, not ours of them), but our event queue may hold residue
    // addressed to the dead incarnation, and the survivors' sequence
    // counter has moved on. Every survivor fences a fresh epoch toward us
    // inside its own rejoin() and then sends a resync carrying its
    // sequence counter over that epoch. Consuming one resync per survivor
    // therefore proves every receive stream has fenced — only then can
    // pre-fence residue be told from fresh traffic by its epoch stamp, no
    // matter how the threads interleave: a fast survivor may already be
    // sending blocks of its next collective while a slow one has not even
    // fenced yet, and a blanket purge at any single instant would either
    // eat the fast one's live blocks or miss the slow one's stale ones.
    std::vector<char> synced(ph_.size(), 0);
    std::size_t pending = 0;
    for (const Rank m : group_)
      if (m != r) ++pending;
    if (pending == 0) return Status::Ok;  // singleton group
    std::uint64_t s = seq_;
    // One poll rescans at once while a scan still finds resyncs.
    const auto synced_all = ph_.wait_for(kCollTimeoutNs, [&]() -> std::optional<bool> {
      for (bool progressed = true; progressed && pending > 0;) {
        progressed = false;
        for (const Rank m : group_) {
          if (m == r || synced[m] != 0) continue;
          if (auto ev = ph_.take_event(m, kRejoinSyncId)) {
            std::uint64_t v = 0;
            std::memcpy(&v, ev->payload.data(),
                        std::min(ev->payload.size(), sizeof(v)));
            s = std::max(s, v);
            synced[m] = 1;
            --pending;
            progressed = true;
          }
        }
      }
      if (pending == 0) return true;
      return std::nullopt;
    });
    if (!synced_all) return Status::Timeout;
    seq_ = s;
    // All streams fenced: anything still queued under an older epoch is
    // addressed to the dead incarnation (in-flight collective doorbells,
    // stranded eager payloads). The initiators' shadow expectations for
    // those ids were dropped when they declared us Down, so they leave as
    // id loss, never as a pop. Current-epoch traffic stays queued for the
    // collectives that follow; a duplicate resync left by a survivor's
    // retry is dropped along with the stale residue.
    for (const Rank m : group_) {
      if (m == r) continue;
      const std::uint32_t cur = ph_.nic().rx_epoch(m);
      ph_.discard_events_from(m, [cur](const core::ProbeEvent& e) {
        return e.epoch == cur && e.id != kRejoinSyncId;
      });
    }
    return Status::Ok;
  }
  // Survivor side: fence a fresh epoch toward the returning rank, re-admit
  // it at its sorted position, then send the sequence resync over the new
  // epoch. Every survivor sends one — the resync doubles as the fence
  // marker the recovering side counts before purging stale events.
  if (!ph_.nic().try_recover(r)) return Status::PeerUnreachable;
  if (std::find(group_.begin(), group_.end(), r) == group_.end()) {
    group_.insert(std::upper_bound(group_.begin(), group_.end(), r), r);
    gidx_ = vindex_of(rank());
  }
  const std::uint64_t s = seq_;
  return ph_.send_with_completion(
      r, std::as_bytes(std::span<const std::uint64_t>(&s, 1)), std::nullopt,
      kRejoinSyncId, kCollTimeoutNs);
}

Communicator::~Communicator() {
  PHOTON_TELEM_HOOK(telemetry::MetricsRegistry::process().fold(
      "coll.", {{"barriers", stats_.barriers},
                {"broadcasts", stats_.broadcasts},
                {"reductions", stats_.reductions},
                {"allgathers", stats_.allgathers},
                {"alltoalls", stats_.alltoalls},
                {"gathers", stats_.gathers},
                {"scatters", stats_.scatters},
                {"blocks_sent", stats_.blocks_sent},
                {"block_bytes_sent", stats_.block_bytes_sent},
                {"flags_sent", stats_.flags_sent}}));
}

std::uint64_t Communicator::block_id(std::uint32_t round, std::uint32_t chunk,
                                     std::uint32_t) const {
  // Sequence in bits 24..61: core::kKeyedServiceBit stays clear, so block
  // ids never meet the DDS service's keyed ids.
  return core::kKeyedEventBit | ((seq_ & kSeqMask) << 24) |
         (std::uint64_t{round & 0xFF} << 16) | (chunk & 0xFFFF);
}

std::vector<std::byte> Communicator::await(Rank peer, std::uint64_t id) {
  using Payload = std::vector<std::byte>;
  auto payload = ph_.wait_for(kCollTimeoutNs, [&]() -> std::optional<Payload> {
    if (auto ev = ph_.take_event(peer, id)) {
      if (discard_stale_) discard_stale_blocks();
      return std::move(ev->payload);
    }
    // A collective cannot complete once ANY group member is unreachable,
    // not just the peer this rank happens to await: recursive doubling
    // pairs only one survivor with the dead member per round, and without
    // the full-group scan every other survivor waits out the entire
    // deadline on a peer that has already aborted.
    for (const Rank member : group_)
      if (member != ph_.rank() && ph_.peer_down(member))
        throw std::runtime_error("collective aborted: rank " +
                                 std::to_string(member) + " unreachable");
    return std::nullopt;
  });
  if (!payload)
    throw std::runtime_error("collective timed out (mismatched calls?)");
  return std::move(*payload);
}

void Communicator::send_block(Rank peer, std::uint32_t round,
                              std::span<const std::byte> data) {
  const std::size_t cs = ph_.config().eager_threshold;
  const std::uint32_t chunks =
      data.empty() ? 1
                   : static_cast<std::uint32_t>((data.size() + cs - 1) / cs);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * cs;
    const std::size_t len = std::min(cs, data.size() - off);
    const Status st = ph_.send_with_completion(
        peer, data.subspan(off, len), std::nullopt, block_id(round, c, chunks),
        kCollTimeoutNs);
    if (st != Status::Ok)
      throw std::runtime_error("collective send failed: " +
                               std::string(status_name(st)));
  }
  stats_.blocks_sent += chunks;
  stats_.block_bytes_sent += data.size();
}

std::size_t Communicator::recv_block(Rank peer, std::uint32_t round,
                                     std::span<std::byte> out) {
  const std::size_t cs = ph_.config().eager_threshold;
  const std::uint32_t chunks =
      out.empty() ? 1 : static_cast<std::uint32_t>((out.size() + cs - 1) / cs);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < chunks; ++c) {
    std::vector<std::byte> chunk = await(peer, block_id(round, c, chunks));
    const std::size_t off = static_cast<std::size_t>(c) * cs;
    if (chunk.size() > out.size() - off)
      throw std::runtime_error("collective chunk overflow");
    if (!chunk.empty()) std::memcpy(out.data() + off, chunk.data(), chunk.size());
    total += chunk.size();
  }
  return total;
}

void Communicator::send_flag(Rank peer, std::uint32_t round) {
  const Status st = ph_.signal(peer, block_id(round, 0, 1), kCollTimeoutNs);
  if (st != Status::Ok)
    throw std::runtime_error("collective flag failed: " +
                             std::string(status_name(st)));
  ++stats_.flags_sent;
}

void Communicator::recv_flag(Rank peer, std::uint32_t round) {
  (void)await(peer, block_id(round, 0, 1));
}

// ---- barrier: dissemination ---------------------------------------------------

void Communicator::barrier() {
  ++seq_;
  ++stats_.barriers;
  const std::uint32_t n = vsize();
  std::uint32_t round = 0;
  for (std::uint32_t dist = 1; dist < n; dist <<= 1, ++round) {
    const Rank to = world((vrank() + dist) % n);
    const Rank from = world((vrank() + n - dist) % n);
    send_flag(to, round);
    recv_flag(from, round);
  }
}

// ---- broadcast: binomial tree ----------------------------------------------------

void Communicator::broadcast(std::span<std::byte> data, Rank root) {
  ++seq_;
  ++stats_.broadcasts;
  const std::uint32_t n = vsize();
  if (n == 1) return;
  const std::uint32_t vroot = vindex_of(root);
  const std::uint32_t vr = (vrank() + n - vroot) % n;

  std::uint32_t mask = 1;
  std::uint32_t round = 0;
  while (mask < n) {
    if (vr & mask) {
      const Rank parent = world(((vr ^ mask) + vroot) % n);
      recv_block(parent, round, data);
      break;
    }
    mask <<= 1;
    ++round;
  }
  // Fan out to children below our bit.
  while (mask > 1) {
    mask >>= 1;
    --round;
    if (vr + mask < n) {
      const Rank child = world((vr + mask + vroot) % n);
      send_block(child, round, data);
    }
  }
}

void Communicator::broadcast_pipelined(std::span<std::byte> data, Rank root) {
  ++seq_;
  ++stats_.broadcasts;
  const std::uint32_t n = vsize();
  if (n == 1 || data.empty()) return;
  (void)vindex_of(root);  // validate membership
  const std::size_t cs = ph_.config().eager_threshold;
  const std::uint32_t chunks =
      static_cast<std::uint32_t>((data.size() + cs - 1) / cs);
  const Rank next = world((vrank() + 1) % n);
  const Rank prev = world((vrank() + n - 1) % n);
  const bool is_root = rank() == root;
  const bool is_tail = next == root;

  for (std::uint32_t c = 0; c < chunks; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * cs;
    const std::size_t len = std::min(cs, data.size() - off);
    const std::uint64_t id = block_id(0, c & 0xFFFF, 1);
    if (!is_root) {
      std::vector<std::byte> chunk = await(prev, id);
      if (chunk.size() != len)
        throw std::runtime_error("pipelined bcast chunk size mismatch");
      std::memcpy(data.data() + off, chunk.data(), len);
    }
    if (!is_tail) {
      const Status st = ph_.send_with_completion(
          next, data.subspan(off, len), std::nullopt, id, kCollTimeoutNs);
      if (st != Status::Ok)
        throw std::runtime_error("pipelined bcast send failed: " +
                                 std::string(status_name(st)));
    }
  }
}

// ---- reduce / allreduce -----------------------------------------------------------

void Communicator::reduce_impl(std::span<std::byte> data, ReduceOp,
                               std::size_t elem, const Combine& combine,
                               Rank root, bool all) {
  ++stats_.reductions;
  const std::uint32_t n = vsize();
  if (n == 1) return;
  const std::size_t count = data.size() / elem;
  std::vector<std::byte> scratch(data.size());

  const bool pow2 = (n & (n - 1)) == 0;
  if (all && pow2) {
    // Recursive doubling: log2(P) rounds, everyone ends with the result.
    ++seq_;
    std::uint32_t round = 0;
    for (std::uint32_t mask = 1; mask < n; mask <<= 1, ++round) {
      const Rank partner = world(vrank() ^ mask);
      send_block(partner, round, data);
      recv_block(partner, round, scratch);
      combine(data.data(), scratch.data(), count);
    }
    return;
  }

  // Binomial fold toward root.
  ++seq_;
  const std::uint32_t vroot = vindex_of(root);
  const std::uint32_t vr = (vrank() + n - vroot) % n;
  std::uint32_t round = 0;
  for (std::uint32_t mask = 1; mask < n; mask <<= 1, ++round) {
    if (vr & mask) {
      const Rank parent = world(((vr ^ mask) + vroot) % n);
      send_block(parent, round, data);
      break;
    }
    const std::uint32_t partner_v = vr | mask;
    if (partner_v < n) {
      const Rank partner = world((partner_v + vroot) % n);
      recv_block(partner, round, scratch);
      combine(data.data(), scratch.data(), count);
    }
  }
  if (all) broadcast(data, root);
}

// ---- allgather: ring ------------------------------------------------------------------

void Communicator::allgather(std::span<const std::byte> mine,
                             std::span<std::byte> all) {
  ++seq_;
  ++stats_.allgathers;
  const std::uint32_t n = vsize();
  const std::size_t block = mine.size();
  if (all.size() < block * n)
    throw std::invalid_argument("allgather output too small");
  if (block > 0) std::memcpy(all.data() + block * vrank(), mine.data(), block);
  if (n == 1 || block == 0) return;

  const Rank next = world((vrank() + 1) % n);
  const Rank prev = world((vrank() + n - 1) % n);
  for (std::uint32_t step = 0; step < n - 1; ++step) {
    const std::uint32_t out_idx = (vrank() + n - step) % n;
    const std::uint32_t in_idx = (vrank() + n - step - 1) % n;
    send_block(next, step,
               std::span<const std::byte>(all.data() + block * out_idx, block));
    recv_block(prev, step,
               std::span<std::byte>(all.data() + block * in_idx, block));
  }
}

// ---- alltoall: pairwise rounds ------------------------------------------------------------

void Communicator::alltoall(std::span<const std::byte> send,
                            std::span<std::byte> recv, std::size_t block) {
  ++seq_;
  ++stats_.alltoalls;
  const std::uint32_t n = vsize();
  if (send.size() < block * n || recv.size() < block * n)
    throw std::invalid_argument("alltoall buffers too small");
  if (block > 0)
    std::memcpy(recv.data() + block * vrank(), send.data() + block * vrank(),
                block);
  for (std::uint32_t step = 1; step < n; ++step) {
    const std::uint32_t vto = (vrank() + step) % n;
    const std::uint32_t vfrom = (vrank() + n - step) % n;
    send_block(world(vto), step,
               std::span<const std::byte>(send.data() + block * vto, block));
    recv_block(world(vfrom), step,
               std::span<std::byte>(recv.data() + block * vfrom, block));
  }
}

// ---- gather: linear to root ----------------------------------------------------------------

void Communicator::gather(std::span<const std::byte> mine,
                          std::span<std::byte> all, Rank root) {
  ++seq_;
  ++stats_.gathers;
  const std::uint32_t n = vsize();
  const std::size_t block = mine.size();
  const std::uint32_t vroot = vindex_of(root);
  if (rank() == root) {
    if (all.size() < block * n)
      throw std::invalid_argument("gather output too small");
    if (block > 0) std::memcpy(all.data() + block * vroot, mine.data(), block);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (v == vroot) continue;
      recv_block(world(v), 0,
                 std::span<std::byte>(all.data() + block * v, block));
    }
  } else {
    send_block(root, 0, mine);
  }
}

// ---- scatter: root pushes each block ---------------------------------------------------

void Communicator::scatter(std::span<const std::byte> all,
                           std::span<std::byte> mine, Rank root) {
  ++seq_;
  ++stats_.scatters;
  const std::uint32_t n = vsize();
  const std::size_t block = mine.size();
  const std::uint32_t vroot = vindex_of(root);
  if (rank() == root) {
    if (all.size() < block * n)
      throw std::invalid_argument("scatter input too small");
    if (block > 0)
      std::memcpy(mine.data(), all.data() + block * vroot, block);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (v == vroot) continue;
      send_block(world(v), 0, all.subspan(block * v, block));
    }
  } else {
    recv_block(root, 0, mine);
  }
}

}  // namespace photon::coll
