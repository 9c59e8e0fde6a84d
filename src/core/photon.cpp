#include "core/photon.hpp"

#include <atomic>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "check/hooks.hpp"
#include "resilience/crc32c.hpp"
#include "util/log.hpp"

namespace photon::core {

using fabric::Rank;

namespace {
constexpr std::size_t kCreditCellStride = 32;  // two u64 counters + padding

std::uint64_t load_u64(const std::byte* p) {
  return std::atomic_ref<const std::uint64_t>(
             *reinterpret_cast<const std::uint64_t*>(p))
      .load(std::memory_order_acquire);
}
}  // namespace

// ---- layout -------------------------------------------------------------------

std::size_t Photon::ring_off(Rank src) const {
  return static_cast<std::size_t>(src) * cfg_.eager_ring_bytes;
}
std::size_t Photon::ledger_off(Rank src) const {
  return static_cast<std::size_t>(nranks_) * cfg_.eager_ring_bytes +
         static_cast<std::size_t>(src) * cfg_.ledger_entries * sizeof(LedgerEntry);
}
std::size_t Photon::credit_off(Rank dst) const {
  return static_cast<std::size_t>(nranks_) * cfg_.eager_ring_bytes +
         static_cast<std::size_t>(nranks_) * cfg_.ledger_entries * sizeof(LedgerEntry) +
         static_cast<std::size_t>(dst) * kCreditCellStride;
}
std::size_t Photon::staging_off() const {
  return credit_off(static_cast<Rank>(nranks_));
}
std::size_t Photon::atomic_pool_off() const {
  // 8-aligned: staging_off is credit-stride aligned and ring_footprint pads
  // to 8, so every pool cell satisfies the fabric's atomicity contract.
  return staging_off() + ring_footprint(cfg_.eager_threshold);
}
std::size_t Photon::slab_size() const {
  return atomic_pool_off() + std::size_t{kAtomicPoolCells} * kPoolCellBytes;
}

// ---- construction ---------------------------------------------------------------

Photon::Photon(fabric::Nic& nic, runtime::Exchanger& oob, const Config& cfg)
    : nic_(nic), oob_(oob), nranks_(oob.size()), cfg_(cfg) {
  if (cfg_.eager_ring_bytes % 8 != 0 ||
      cfg_.eager_ring_bytes < 2 * ring_footprint(cfg_.eager_threshold)) {
    throw std::invalid_argument(
        "eager_ring_bytes must be 8-byte aligned and hold >= 2 max messages");
  }
  if (cfg_.ledger_entries < 2)
    throw std::invalid_argument("ledger_entries must be >= 2");
  if (cfg_.credit_return_denominator < 2)
    throw std::invalid_argument("credit_return_denominator must be >= 2");
  if (ring_footprint(cfg_.eager_threshold) < sizeof(AdvertBody) + sizeof(EagerHeader))
    throw std::invalid_argument("eager_threshold too small for control messages");

  slab_.assign(slab_size(), std::byte{0});
  auto mr = nic_.registry().register_memory(slab_.data(), slab_.size(),
                                            fabric::kAccessAll);
  if (!mr.ok()) throw std::runtime_error("slab registration failed");
  slab_desc_ = {mr.value().begin(), slab_.size(), mr.value().rkey,
                mr.value().lkey};

  senders_.resize(nranks_);
  receivers_.resize(nranks_);
  peer_failed_.assign(nranks_, false);
  peer_down_done_.assign(nranks_, false);
  deferred_pending_.assign(nranks_, 0);
  tx_epoch_seen_.assign(nranks_, 0);
  rx_epoch_seen_.assign(nranks_, 0);
  cq_batch_.resize(std::max<std::size_t>(1, cfg_.max_probe_batch));
  free_pool_.resize(kAtomicPoolCells);
  for (std::uint32_t i = 0; i < kAtomicPoolCells; ++i) free_pool_[i] = i;

  const SlabInfo mine{slab_desc_.addr, slab_desc_.rkey};
  auto infos = oob.all_gather(rank(), mine);
  peer_slabs_.assign(infos.begin(), infos.end());

  PHOTON_TELEM_HOOK(oplat_.bind(cfg_.metrics != nullptr
                                    ? *cfg_.metrics
                                    : telemetry::MetricsRegistry::process(),
                                nranks_));
}

Photon::~Photon() {
  PHOTON_CHECK_HOOK(nic_.checker().on_finalize(rank()));
  PHOTON_TELEM_HOOK(fold_stats());
  nic_.registry().deregister(slab_desc_.lkey);
}

void Photon::fold_stats() const {
  telemetry::MetricsRegistry& reg = cfg_.metrics != nullptr
                                        ? *cfg_.metrics
                                        : telemetry::MetricsRegistry::process();
  reg.fold("core.", {{"eager_sent", stats_.eager_sent},
                    {"eager_bytes", stats_.eager_bytes},
                    {"direct_puts", stats_.direct_puts},
                    {"gets", stats_.gets},
                    {"signals", stats_.signals},
                    {"atomics", stats_.atomics},
                    {"pads", stats_.pads},
                    {"credit_returns", stats_.credit_returns},
                    {"credit_stalls", stats_.credit_stalls},
                    {"ledger_stalls", stats_.ledger_stalls},
                    {"events_delivered", stats_.events_delivered},
                    {"local_completions", stats_.local_completions},
                    {"adverts_sent", stats_.adverts_sent},
                    {"fins_sent", stats_.fins_sent},
                    {"op_errors", stats_.op_errors},
                    {"shard_naks", stats_.shard_naks}});
}

// ---- registration ----------------------------------------------------------------

util::Result<BufferDescriptor> Photon::register_buffer(void* addr, std::size_t len) {
  auto mr = nic_.registry().register_memory(addr, len, fabric::kAccessAll);
  if (!mr.ok()) return mr.status();
  return BufferDescriptor{mr.value().begin(), len, mr.value().rkey,
                          mr.value().lkey};
}

Status Photon::unregister_buffer(const BufferDescriptor& d) {
  return nic_.registry().deregister(d.lkey);
}

std::vector<BufferDescriptor> Photon::exchange_descriptors(
    const BufferDescriptor& mine) {
  // Peers only need {addr, size, rkey}; the lkey stays private (each rank
  // restores its own full descriptor below). Exchange rides the bootstrap
  // (PMI-equivalent) channel, exactly like the real library's rkey exchange.
  struct Wire {
    std::uint64_t addr;
    std::uint64_t size;
    std::uint64_t rkey;
  } w{mine.addr, mine.size, mine.rkey};
  auto all = oob_.all_gather(rank(), w);
  std::vector<BufferDescriptor> out(nranks_);
  for (Rank r = 0; r < nranks_; ++r)
    out[r] = BufferDescriptor{all[r].addr, static_cast<std::size_t>(all[r].size),
                              all[r].rkey, fabric::kInvalidKey};
  out[rank()] = mine;
  return out;
}

// ---- credits ----------------------------------------------------------------------

std::uint64_t Photon::ring_consumed_by(Rank dst) const {
  return load_u64(slab_ptr(credit_off(dst)));
}
std::uint64_t Photon::ledger_consumed_by(Rank dst) const {
  return load_u64(slab_ptr(credit_off(dst) + 8));
}

std::uint64_t Photon::ring_outstanding(Rank dst) const {
  const std::uint64_t head = senders_[dst].ring_head;
  const std::uint64_t consumed = ring_consumed_by(dst);
  // consumed > head only when a pre-fence credit return landed after the
  // cell reset in on_peer_up. Treating it as zero progress (outstanding ==
  // head) can only under-report credits — never lets a send overwrite
  // unconsumed ring bytes — and heals when a fresh return arrives.
  return consumed > head ? head : head - consumed;
}
std::uint64_t Photon::ledger_outstanding(Rank dst) const {
  const std::uint64_t head = senders_[dst].ledger_head;
  const std::uint64_t consumed = ledger_consumed_by(dst);
  return consumed > head ? head : head - consumed;
}

std::size_t Photon::ring_credits_available(Rank dst) const {
  return cfg_.eager_ring_bytes - static_cast<std::size_t>(ring_outstanding(dst));
}
std::size_t Photon::ledger_slots_available(Rank dst) const {
  return cfg_.ledger_entries - static_cast<std::size_t>(ledger_outstanding(dst));
}

bool Photon::fabric_headroom(Rank dst, std::size_t k) const {
  return nic_.in_flight(dst) + k <= nic_.config().sq_depth;
}

void Photon::maybe_return_credits(Rank src) {
  ReceiverState& rs = receivers_[src];
  const std::size_t ring_thresh =
      cfg_.eager_ring_bytes / cfg_.credit_return_denominator;
  const std::size_t ledger_thresh =
      std::max<std::size_t>(1, cfg_.ledger_entries / cfg_.credit_return_denominator);
  const bool ring_due = rs.ring_tail - rs.ring_returned >= ring_thresh;
  const bool ledger_due = rs.ledger_tail - rs.ledger_returned >= ledger_thresh;
  if (!ring_due && !ledger_due) return;
  if (!fabric_headroom(src, 2)) return;  // retried on the next consume

  const fabric::RemoteRef ring_cell{
      peer_slabs_[src].addr + credit_off(rank()), peer_slabs_[src].rkey};
  const fabric::RemoteRef ledger_cell{
      peer_slabs_[src].addr + credit_off(rank()) + 8, peer_slabs_[src].rkey};
  const std::uint64_t ring_val = rs.ring_tail;
  const std::uint64_t ledger_val = rs.ledger_tail;
  // Two 8-byte (atomic) puts; the second carries the credit doorbell so a
  // sender blocked on credits wakes with a virtual timestamp.
  if (nic_.post_put_inline(src, &ring_val, 8, ring_cell, 0, 0, false, false) !=
      Status::Ok)
    return;
  if (nic_.post_put_inline(src, &ledger_val, 8, ledger_cell,
                           encode_imm(ImmKind::kCredit, 0), 0, false, true,
                           /*chained=*/true) != Status::Ok)
    return;
  rs.ring_returned = ring_val;
  rs.ledger_returned = ledger_val;
  ++stats_.credit_returns;
}

// ---- posts / requests -------------------------------------------------------------

template <typename Post>
Status Photon::post_op(check::PostGuard* guard, OpRecord* rec, Post&& post) {
  std::uint64_t wr_id = 0;
  if (rec != nullptr) {
    if (guard != nullptr) rec->check_serial = guard->serial();
    wr_id = ops_.alloc(*rec);
  }
  const Status st = post(wr_id);
  if (st != Status::Ok) {
    if (wr_id != 0) ops_.release(wr_id);
    return st;
  }
  if (guard != nullptr) guard->commit();
  return Status::Ok;
}

Status Photon::ring_doorbell(Rank dst, std::uint64_t remote_id,
                             std::uint64_t post_vt, const char* what) {
  const Status sig =
      ledger_signal(dst, remote_id, false, /*chained=*/true, post_vt);
  if (sig == Status::Ok) return Status::Ok;
  // Payload already landed but the doorbell could not be rung; surface
  // loudly — this indicates a headroom accounting bug.
  log::error("photon: ", what, " doorbell failed after payload: ",
             status_name(sig));
  PHOTON_CHECK_HOOK(nic_.checker().on_remote_id_lost(dst, rank(), remote_id));
  return Status::ProtocolError;
}

RequestId Photon::alloc_request(Rank peer, bool remote) {
  const RequestId rq = next_request_++;
  ReqInfo info;
  info.peer = peer;
  info.remote = remote;
  requests_.emplace(rq, info);
  return rq;
}

void Photon::complete_request(RequestId rq, Status st) {
  auto it = requests_.find(rq);
  if (it == requests_.end()) {
    log::warn("photon: FIN/completion for unknown request ", rq);
    return;
  }
  // First resolution wins: a request failed with PeerUnreachable at peer
  // death must stay failed even if the peer recovers and a late FIN for the
  // same id arrives (at-most-once; the remote side already dropped the op).
  if (it->second.done) return;
  it->second.done = true;
  it->second.status = st;
  PHOTON_CHECK_HOOK(
      nic_.checker().on_request_done(rank(), check::RequestNs::kCore, rq));
}

// ---- eager path -------------------------------------------------------------------

Status Photon::eager_send(Rank dst, MsgKind kind, std::uint64_t id,
                          std::span<const std::byte> payload,
                          std::optional<std::uint64_t> local_id,
                          check::PostGuard* guard) {
  if (peer_failed_[dst]) return Status::Disconnected;
  const std::size_t R = cfg_.eager_ring_bytes;
  const std::size_t footprint = ring_footprint(payload.size());
  SenderState& ss = senders_[dst];

  std::size_t pos = static_cast<std::size_t>(ss.ring_head % R);
  const std::size_t pad = (pos + footprint > R) ? (R - pos) : 0;
  if (ring_outstanding(dst) + pad + footprint > R) {
    ++stats_.credit_stalls;
    return Status::Retry;
  }
  if (!fabric_headroom(dst, 2)) return Status::QueueFull;

  const std::uint64_t ring_base = peer_slabs_[dst].addr + ring_off(rank());
  const fabric::MrKey rkey = peer_slabs_[dst].rkey;

  if (pad != 0) {
    EagerHeader padh;
    padh.kind = static_cast<std::uint16_t>(MsgKind::kPad);
    padh.size = static_cast<std::uint32_t>(pad - sizeof(EagerHeader));
    const Status st = nic_.post_put_inline(
        dst, &padh, sizeof(padh), fabric::RemoteRef{ring_base + pos, rkey}, 0, 0,
        false, false);
    if (st != Status::Ok) return st;
    ss.ring_head += pad;
    pos = 0;
    ++stats_.pads;
  }

  // Stage header + payload contiguously in the registered staging area and
  // RDMA-write it as one message. The staging copy is the eager path's CPU
  // cost and is charged to the virtual clock.
  std::byte* staging = slab_ptr(staging_off());
  EagerHeader h;
  h.id = id;
  h.size = static_cast<std::uint32_t>(payload.size());
  h.kind = static_cast<std::uint16_t>(kind);
  if (!payload.empty() && nic_.faults().wire_armed()) {
    h.crc = resilience::crc32c(payload.data(), payload.size());
    h.flags |= kEagerFlagCrc;
  }
  std::memcpy(staging, &h, sizeof(h));
  if (!payload.empty())
    std::memcpy(staging + sizeof(h), payload.data(), payload.size());
  clock().add(static_cast<std::uint64_t>(static_cast<double>(payload.size()) *
                                         cfg_.eager_copy_per_byte_ns));

  // Eager imm aux bits are otherwise unused: carry the post vtime so the
  // target can measure post→delivery without growing any wire structure.
  const std::uint64_t post_vt = post_stamp();
  OpRecord rec{.kind = OpKind::kPwcEager, .peer = dst, .local_id = local_id,
               .post_vtime = post_vt};
  const Status st =
      post_op(guard, local_id ? &rec : nullptr, [&](std::uint64_t wr_id) {
        return nic_.post_put_imm(
            dst, fabric::LocalRef{staging, footprint, slab_desc_.lkey},
            fabric::RemoteRef{ring_base + pos, rkey},
            encode_imm(ImmKind::kEager, post_vt), wr_id, wr_id != 0);
      });
  if (st != Status::Ok) return st;
  ss.ring_head += footprint;
  if (kind == MsgKind::kUser) {
    ++stats_.eager_sent;
    stats_.eager_bytes += payload.size();
  }
  return Status::Ok;
}

Status Photon::ledger_signal(Rank dst, std::uint64_t id, bool from_get,
                             bool chained, std::uint64_t origin_vtime,
                             std::optional<std::uint64_t> meta_override) {
  if (peer_failed_[dst]) return Status::Disconnected;
  SenderState& ss = senders_[dst];
  if (ledger_outstanding(dst) >= cfg_.ledger_entries) {
    ++stats_.ledger_stalls;
    return Status::Retry;
  }
  if (!fabric_headroom(dst, 1)) return Status::QueueFull;

  const std::uint64_t slot = ss.ledger_head % cfg_.ledger_entries;
  // Spare meta bits carry the originating op's post vtime to the target
  // (pure-signal ops originate here, so stamp the current clock for them).
  const std::uint64_t post_vt = origin_vtime != 0 ? origin_vtime : post_stamp();
  LedgerEntry e{id, meta_override
                        ? *meta_override
                        : ledger_meta_pack(from_get, chained && !from_get,
                                           post_vt)};
  const fabric::RemoteRef ref{
      peer_slabs_[dst].addr + ledger_off(rank()) + slot * sizeof(LedgerEntry),
      peer_slabs_[dst].rkey};
  const Status st = nic_.post_put_inline(dst, &e, sizeof(e), ref,
                                         encode_imm(ImmKind::kSignal, slot), 0,
                                         false, true, chained);
  if (st != Status::Ok) return st;
  ++ss.ledger_head;
  ++stats_.signals;
  return Status::Ok;
}

// ---- PWC / GWC ---------------------------------------------------------------------

Status Photon::try_put_with_completion(Rank dst, LocalSlice src,
                                       RemoteSlice dst_slice,
                                       std::optional<std::uint64_t> local_id,
                                       std::optional<std::uint64_t> remote_id) {
  if (dst >= nranks_) return Status::BadArgument;
  if (src.len > dst_slice.len) return Status::BadArgument;
  if (!ensure_peer(dst)) return Status::PeerUnreachable;
  if (remote_id && ledger_outstanding(dst) >= cfg_.ledger_entries) {
    ++stats_.ledger_stalls;
    return Status::Retry;
  }
  if (!fabric_headroom(dst, 2)) return Status::QueueFull;

  check::PostGuard guard(nic_, check::CheckOpKind::kPut, dst,
                         [&](check::PostInfo& pi) {
                           pi.local_addr = src.addr;
                           pi.local_len = src.len;
                           pi.local_lkey = src.lkey;
                           pi.remote_addr = dst_slice.addr;
                           pi.remote_len = src.len;
                           pi.remote_rkey = dst_slice.rkey;
                           pi.local_id = local_id;
                           pi.remote_id = remote_id;
                         });
  const std::uint64_t post_vt = post_stamp();
  OpRecord rec{.kind = OpKind::kPwcDirect, .peer = dst, .local_id = local_id,
               .remote_id = remote_id, .post_vtime = post_vt};
  const Status st =
      post_op(&guard, local_id ? &rec : nullptr, [&](std::uint64_t wr_id) {
        return nic_.post_put(dst, fabric::LocalRef{src.addr, src.len, src.lkey},
                             fabric::RemoteRef{dst_slice.addr, dst_slice.rkey},
                             wr_id, wr_id != 0);
      });
  if (st != Status::Ok) return st;
  ++stats_.direct_puts;
  // Slot availability was checked above; headroom was reserved.
  if (remote_id) return ring_doorbell(dst, *remote_id, post_vt, "pwc");
  return Status::Ok;
}

Status Photon::try_send_with_completion(Rank dst,
                                        std::span<const std::byte> payload,
                                        std::optional<std::uint64_t> local_id,
                                        std::uint64_t remote_id) {
  if (dst >= nranks_) return Status::BadArgument;
  if (payload.size() > cfg_.eager_threshold) return Status::BadArgument;
  if (!ensure_peer(dst)) return Status::PeerUnreachable;
  // The payload is copied into the staging slab at post time, so the
  // caller's buffer is immediately reusable: the shadow op claims no spans
  // and only tracks the completion ids.
  check::PostGuard guard(nic_, check::CheckOpKind::kEagerSend, dst,
                         [&](check::PostInfo& pi) {
                           pi.local_id = local_id;
                           pi.remote_id = remote_id;
                         });
  return eager_send(dst, MsgKind::kUser, remote_id, payload, local_id, &guard);
}

Status Photon::try_get_with_completion(Rank src_rank, LocalMutSlice dst,
                                       RemoteSlice src_slice,
                                       std::optional<std::uint64_t> local_id,
                                       std::optional<std::uint64_t> remote_id) {
  if (src_rank >= nranks_) return Status::BadArgument;
  if (dst.len > src_slice.len) return Status::BadArgument;
  if (!ensure_peer(src_rank)) return Status::PeerUnreachable;
  if (!fabric_headroom(src_rank, 1)) return Status::QueueFull;

  check::PostGuard guard(nic_, check::CheckOpKind::kGet, src_rank,
                         [&](check::PostInfo& pi) {
                           pi.local_addr = dst.addr;
                           pi.local_len = dst.len;
                           pi.local_lkey = dst.lkey;
                           pi.remote_addr = src_slice.addr;
                           pi.remote_len = dst.len;
                           pi.remote_rkey = src_slice.rkey;
                           pi.local_id = local_id;
                           pi.remote_id = remote_id;
                         });
  OpRecord rec{.kind = OpKind::kGwc, .peer = src_rank, .local_id = local_id,
               .remote_id = remote_id, .post_vtime = post_stamp()};
  const Status st = post_op(&guard, &rec, [&](std::uint64_t wr_id) {
    return nic_.post_get(src_rank,
                         fabric::LocalMutRef{dst.addr, dst.len, dst.lkey},
                         fabric::RemoteRef{src_slice.addr, src_slice.rkey},
                         wr_id);
  });
  if (st != Status::Ok) return st;
  ++stats_.gets;
  return Status::Ok;
}

Status Photon::try_signal(Rank dst, std::uint64_t remote_id) {
  if (dst >= nranks_) return Status::BadArgument;
  if (!ensure_peer(dst)) return Status::PeerUnreachable;
  check::PostGuard guard(nic_, check::CheckOpKind::kSignal, dst,
                         [&](check::PostInfo& pi) { pi.remote_id = remote_id; });
  const Status st = ledger_signal(dst, remote_id, false);
  if (st == Status::Ok) guard.commit();
  return st;
}

Status Photon::try_shard_nak(Rank dst, std::uint32_t shard,
                             std::uint64_t epoch) {
  if (dst >= nranks_) return Status::BadArgument;
  if (!ensure_peer(dst)) return Status::PeerUnreachable;
  // A pure control doorbell like a credit return: no completion id on either
  // side, so the checker is not involved (nothing to pop, nothing to leak).
  return ledger_signal(dst, /*id=*/0, /*from_get=*/false, /*chained=*/false,
                       /*origin_vtime=*/0,
                       ledger_meta_pack_shard_nak(shard, epoch));
}

// ---- atomic cells ----------------------------------------------------------------------

template <typename PostFn>
Status Photon::post_cell_op(OpKind kind, Rank dst, RemoteSlice cell,
                            std::optional<std::uint64_t> local_id,
                            std::uint32_t pool_slot, PostFn&& post) {
  if (dst >= nranks_) return Status::BadArgument;
  if (kind == OpKind::kGet64x2) {
    // Only an 8-aligned 16-byte get is read word by word, in order; the NIC
    // would memcpy anything else.
    if (cell.len != 16 || cell.addr % 8 != 0) return Status::BadArgument;
  } else if (cell.len != 8) {
    return Status::BadArgument;
  }
  if (!ensure_peer(dst)) return Status::PeerUnreachable;
  if (!fabric_headroom(dst, 1)) return Status::QueueFull;

  check::PostGuard guard(nic_, check::CheckOpKind::kAtomic, dst,
                         [&](check::PostInfo& pi) {
                           pi.remote_addr = cell.addr;
                           pi.remote_len = cell.len;
                           pi.remote_rkey = cell.rkey;
                           pi.local_id = local_id;
                         });
  OpRecord rec{.kind = kind, .peer = dst, .local_id = local_id,
               .post_vtime = post_stamp(), .pool_slot = pool_slot};
  const Status st = post_op(&guard, &rec, std::forward<PostFn>(post));
  if (st != Status::Ok) return st;
  ++stats_.atomics;
  return Status::Ok;
}

Status Photon::try_fetch_add(Rank dst, RemoteSlice cell, std::uint64_t add,
                             std::optional<std::uint64_t> local_id) {
  return post_cell_op(OpKind::kFadd, dst, cell, local_id, kNoPoolSlot,
                      [&](std::uint64_t w) {
                        return nic_.post_fetch_add(
                            dst, fabric::RemoteRef{cell.addr, cell.rkey}, add,
                            w);
                      });
}

Status Photon::try_compare_swap(Rank dst, RemoteSlice cell,
                                std::uint64_t expected, std::uint64_t desired,
                                std::optional<std::uint64_t> local_id) {
  return post_cell_op(OpKind::kCas, dst, cell, local_id, kNoPoolSlot,
                      [&](std::uint64_t w) {
                        return nic_.post_compare_swap(
                            dst, fabric::RemoteRef{cell.addr, cell.rkey},
                            expected, desired, w);
                      });
}

Status Photon::try_swap(Rank dst, RemoteSlice cell, std::uint64_t value,
                        std::optional<std::uint64_t> local_id) {
  return post_cell_op(OpKind::kSwap, dst, cell, local_id, kNoPoolSlot,
                      [&](std::uint64_t w) {
                        return nic_.post_swap(
                            dst, fabric::RemoteRef{cell.addr, cell.rkey},
                            value, w);
                      });
}

Status Photon::try_put_u64(Rank dst, RemoteSlice cell, std::uint64_t value,
                           std::optional<std::uint64_t> local_id,
                           std::optional<std::uint64_t> remote_id) {
  if (dst >= nranks_) return Status::BadArgument;
  if (cell.len != 8) return Status::BadArgument;
  if (!ensure_peer(dst)) return Status::PeerUnreachable;
  if (remote_id && ledger_outstanding(dst) >= cfg_.ledger_entries) {
    ++stats_.ledger_stalls;
    return Status::Retry;
  }
  if (!fabric_headroom(dst, 2)) return Status::QueueFull;

  // kAtomic, not kPut: an 8-byte aligned inline put is target-atomic, so
  // concurrent cell traffic (the DDS fast path) must not claim a landing
  // span — that would flag legitimate racing CAS/get ops. remote_id
  // expectations register independently of the kind.
  check::PostGuard guard(nic_, check::CheckOpKind::kAtomic, dst,
                         [&](check::PostInfo& pi) {
                           pi.remote_addr = cell.addr;
                           pi.remote_len = 8;
                           pi.remote_rkey = cell.rkey;
                           pi.local_id = local_id;
                           pi.remote_id = remote_id;
                         });
  const std::uint64_t post_vt = post_stamp();
  OpRecord rec{.kind = OpKind::kPwcDirect, .peer = dst, .local_id = local_id,
               .post_vtime = post_vt};
  const Status st =
      post_op(&guard, local_id ? &rec : nullptr, [&](std::uint64_t wr_id) {
        return nic_.post_put_inline(dst, &value, 8,
                                    fabric::RemoteRef{cell.addr, cell.rkey}, 0,
                                    wr_id, wr_id != 0, /*with_imm=*/false);
      });
  if (st != Status::Ok) return st;
  ++stats_.atomics;
  // Reserved above; chained onto the payload WR like try_put_with_completion.
  if (remote_id) return ring_doorbell(dst, *remote_id, post_vt, "put_u64");
  return Status::Ok;
}

Status Photon::try_get_u64(Rank src_rank, RemoteSlice cell,
                           std::optional<std::uint64_t> local_id) {
  return try_pool_get(OpKind::kGet64, src_rank, cell, local_id);
}

Status Photon::try_get_u64x2(Rank src_rank, RemoteSlice cells,
                             std::optional<std::uint64_t> local_id) {
  return try_pool_get(OpKind::kGet64x2, src_rank, cells, local_id);
}

Status Photon::try_pool_get(OpKind kind, Rank src_rank, RemoteSlice cells,
                            std::optional<std::uint64_t> local_id) {
  if (free_pool_.empty()) return Status::Retry;  // bounded outstanding reads
  const std::uint32_t slot = free_pool_.back();
  const Status st =
      post_cell_op(kind, src_rank, cells, local_id, slot,
                   [&](std::uint64_t w) {
                     return nic_.post_get(
                         src_rank,
                         fabric::LocalMutRef{
                             slab_ptr(atomic_pool_off() + slot * kPoolCellBytes),
                             cells.len, slab_desc_.lkey},
                         fabric::RemoteRef{cells.addr, cells.rkey}, w);
                   });
  if (st != Status::Ok) return st;
  free_pool_.pop_back();  // slot is returned by the completion handler
  return Status::Ok;
}

// ---- blocking wrappers ----------------------------------------------------------------

namespace {
template <typename Fn>
Status run_blocking(Photon& p, Fn&& try_once, std::uint64_t timeout_ns) {
  const auto waited = p.wait_for(timeout_ns, [&]() -> std::optional<Status> {
    const Status st = try_once();
    if (!transient(st) || st == Status::NotFound) return st;
    p.progress();
    return std::nullopt;
  });
  return waited.value_or(Status::Retry);
}
}  // namespace

Status Photon::put_with_completion(Rank dst, LocalSlice src, RemoteSlice dst_slice,
                                   std::optional<std::uint64_t> local_id,
                                   std::optional<std::uint64_t> remote_id,
                                   std::uint64_t timeout_ns) {
  return run_blocking(
      *this,
      [&] { return try_put_with_completion(dst, src, dst_slice, local_id, remote_id); },
      timeout_ns);
}

Status Photon::send_with_completion(Rank dst, std::span<const std::byte> payload,
                                    std::optional<std::uint64_t> local_id,
                                    std::uint64_t remote_id,
                                    std::uint64_t timeout_ns) {
  return run_blocking(
      *this,
      [&] { return try_send_with_completion(dst, payload, local_id, remote_id); },
      timeout_ns);
}

Status Photon::get_with_completion(Rank src_rank, LocalMutSlice dst,
                                   RemoteSlice src_slice,
                                   std::optional<std::uint64_t> local_id,
                                   std::optional<std::uint64_t> remote_id,
                                   std::uint64_t timeout_ns) {
  return run_blocking(
      *this,
      [&] {
        return try_get_with_completion(src_rank, dst, src_slice, local_id,
                                       remote_id);
      },
      timeout_ns);
}

Status Photon::signal(Rank dst, std::uint64_t remote_id, std::uint64_t timeout_ns) {
  return run_blocking(*this, [&] { return try_signal(dst, remote_id); },
                      timeout_ns);
}

Status Photon::post_shard_nak(Rank dst, std::uint32_t shard,
                              std::uint64_t epoch, std::uint64_t timeout_ns) {
  return run_blocking(
      *this, [&] { return try_shard_nak(dst, shard, epoch); }, timeout_ns);
}

std::optional<ShardNak> Photon::take_shard_nak() {
  progress();
  if (shard_nak_q_.empty()) return std::nullopt;
  ShardNak nk = shard_nak_q_.front();
  shard_nak_q_.pop_front();
  return nk;
}

template <typename TryFn>
util::Result<LocalComplete> Photon::run_cell_op(TryFn&& try_once,
                                                std::uint64_t timeout_ns) {
  const std::uint64_t id = kInternalIdBit | ++internal_id_seq_;
  const Status posted =
      run_blocking(*this, [&] { return try_once(id); }, timeout_ns);
  if (posted != Status::Ok) return posted;
  const auto waited = wait_for(
      timeout_ns, [&]() -> std::optional<util::Result<LocalComplete>> {
        auto c = take_local(id);
        if (!c) return std::nullopt;
        if (c->status != Status::Ok) return c->status;
        return *c;
      });
  return waited.value_or(Status::Retry);
}

namespace {
util::Result<std::uint64_t> first_word(const util::Result<LocalComplete>& r) {
  if (!r.ok()) return r.status();
  return r.value().result;
}
}  // namespace

util::Result<std::uint64_t> Photon::fetch_add(Rank dst, RemoteSlice cell,
                                              std::uint64_t add,
                                              std::uint64_t timeout_ns) {
  return first_word(run_cell_op(
      [&](std::uint64_t id) { return try_fetch_add(dst, cell, add, id); },
      timeout_ns));
}

util::Result<std::uint64_t> Photon::compare_swap(Rank dst, RemoteSlice cell,
                                                 std::uint64_t expected,
                                                 std::uint64_t desired,
                                                 std::uint64_t timeout_ns) {
  return first_word(run_cell_op(
      [&](std::uint64_t id) {
        return try_compare_swap(dst, cell, expected, desired, id);
      },
      timeout_ns));
}

util::Result<std::uint64_t> Photon::swap_u64(Rank dst, RemoteSlice cell,
                                             std::uint64_t value,
                                             std::uint64_t timeout_ns) {
  return first_word(run_cell_op(
      [&](std::uint64_t id) { return try_swap(dst, cell, value, id); },
      timeout_ns));
}

util::Result<std::uint64_t> Photon::get_u64(Rank src_rank, RemoteSlice cell,
                                            std::uint64_t timeout_ns) {
  return first_word(run_cell_op(
      [&](std::uint64_t id) { return try_get_u64(src_rank, cell, id); },
      timeout_ns));
}

util::Result<std::array<std::uint64_t, 2>> Photon::get_u64x2(
    Rank src_rank, RemoteSlice cells, std::uint64_t timeout_ns) {
  const auto r = run_cell_op(
      [&](std::uint64_t id) { return try_get_u64x2(src_rank, cells, id); },
      timeout_ns);
  if (!r.ok()) return r.status();
  return std::array<std::uint64_t, 2>{r.value().result, r.value().result2};
}

Status Photon::put_u64(Rank dst, RemoteSlice cell, std::uint64_t value,
                       std::uint64_t timeout_ns) {
  return run_cell_op(
             [&](std::uint64_t id) {
               return try_put_u64(dst, cell, value, id, std::nullopt);
             },
             timeout_ns)
      .status();
}

Status Photon::flush(Rank dst, std::uint64_t timeout_ns) {
  if (dst >= nranks_) return Status::BadArgument;
  const auto waited = wait_for(timeout_ns, [&]() -> std::optional<Status> {
    progress();
    if (nic_.in_flight(dst) != 0 || deferred_pending_[dst] != 0)
      return std::nullopt;
    PHOTON_CHECK_HOOK(nic_.checker().on_flush(rank(), dst));
    return Status::Ok;
  });
  return waited.value_or(Status::Retry);
}

// ---- progress & probing -----------------------------------------------------------------

void Photon::sweep_peer_health() {
  const std::uint64_t gen = nic_.health().down_generation();
  if (gen == health_gen_seen_) return;
  health_gen_seen_ = gen;
  for (Rank r = 0; r < nranks_; ++r)
    if (r != rank() && !peer_down_done_[r] && nic_.peer_down(r))
      on_peer_down(r);
}

void Photon::on_peer_down(Rank r) {
  peer_down_done_[r] = true;
  peer_failed_[r] = true;
  PHOTON_CHECK_HOOK(nic_.checker().on_peer_dead(rank(), r));
  // Deferred GWC notifies toward the dead peer can never be delivered.
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    if (it->dst != r) {
      ++it;
      continue;
    }
    --deferred_pending_[r];
    ++stats_.op_errors;
    error_q_.push_back(Status::PeerUnreachable);
    PHOTON_CHECK_HOOK(nic_.checker().on_remote_id_lost(r, rank(), it->id));
    it = deferred_.erase(it);
  }
  // Adverts received *from* the dead peer describe windows nobody will FIN;
  // handing them out would wedge the rendezvous protocol.
  for (auto it = adverts_.begin(); it != adverts_.end();) {
    if (it->first.peer == r)
      it = adverts_.erase(it);
    else
      ++it;
  }
  // Requests whose completion depends on the peer (advertised windows
  // waiting for its FIN) resolve now. Locally-completing requests (os
  // put/get) keep their fabric completion, which carries Timeout if the op
  // was cut off on the wire.
  for (auto& [rq, info] : requests_) {
    if (info.done || !info.remote || info.peer != r) continue;
    complete_request(rq, Status::PeerUnreachable);
  }
}

bool Photon::ensure_peer(Rank dst) {
  const std::uint32_t ep = nic_.tx_epoch(dst);
  if (ep != tx_epoch_seen_[dst]) on_peer_up(dst, ep);
  if (!nic_.peer_down(dst)) return true;
  if (!nic_.config().auto_recover || !nic_.try_recover(dst)) return false;
  on_peer_up(dst, nic_.tx_epoch(dst));
  return true;
}

void Photon::on_peer_up(Rank dst, std::uint32_t epoch) {
  tx_epoch_seen_[dst] = epoch;
  // The new connection's go-back-N stream restarts at sequence zero, so the
  // eager ring / ledger cursors toward dst restart with it.
  senders_[dst] = SenderState{};
  // The credit cells dst writes into count the dead epoch's consumption and
  // the recovered peer restarts both cursors at zero. Mirror load_u64's
  // atomics: a stale in-flight credit return may still race these stores
  // (ring_outstanding's clamp absorbs that).
  auto zero_cell = [this](std::size_t off) {
    std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(slab_ptr(off)))
        .store(0, std::memory_order_release);
  };
  zero_cell(credit_off(dst));
  zero_cell(credit_off(dst) + 8);
  // Un-latch the verbs-style QP-error state. Ops that already failed with
  // PeerUnreachable stay failed (at-most-once); only new posts flow again.
  peer_failed_[dst] = false;
  peer_down_done_[dst] = false;
  // Outstanding shadow ops toward dst belong to the dead epoch — their
  // completions can never arrive, which is expected rather than a leak.
  PHOTON_CHECK_HOOK(nic_.checker().on_peer_recovered(rank(), dst));
}

Status Photon::quiesce(std::uint64_t timeout_ns) {
  const auto waited = wait_for(timeout_ns, [&]() -> std::optional<Status> {
    progress();
    if (!deferred_.empty()) return std::nullopt;
    for (Rank r = 0; r < nranks_; ++r)
      if (nic_.in_flight(r) != 0) return std::nullopt;
    return Status::Ok;
  });
  return waited.value_or(Status::Retry);
}

void Photon::flush_deferred() {
  std::size_t n = deferred_.size();
  while (n-- > 0 && !deferred_.empty()) {
    DeferredSignal d = deferred_.front();
    deferred_.pop_front();
    const Status st = ledger_signal(d.dst, d.id, d.from_get,
                                    /*chained=*/false, d.post_vtime);
    if (transient(st)) {
      deferred_.push_back(d);  // try again on a later progress call
    } else {
      --deferred_pending_[d.dst];
      if (st != Status::Ok) {
        ++stats_.op_errors;
        error_q_.push_back(st);
        PHOTON_CHECK_HOOK(nic_.checker().on_remote_id_lost(d.dst, rank(), d.id));
      }
    }
  }
}

bool Photon::drain_send_cq() {
  const std::size_t n = nic_.poll_send_batch(
      std::span(cq_batch_.data(), cfg_.max_probe_batch));
  for (std::size_t i = 0; i < n; ++i) {
    nic_.charge_consume();
    handle_local_completion(cq_batch_[i]);
  }
  return n != 0;
}

bool Photon::drain_recv_cq() {
  const std::size_t n = nic_.poll_recv_batch(
      std::span(cq_batch_.data(), cfg_.max_probe_batch));
  for (std::size_t i = 0; i < n; ++i) {
    nic_.charge_consume();
    handle_recv_event(cq_batch_[i]);
  }
  return n != 0;
}

void Photon::progress() {
  sweep_peer_health();
  flush_deferred();
  drain_send_cq();
  drain_recv_cq();
}

bool Photon::progress_jump() {
  flush_deferred();
  const auto smin = nic_.send_cq().min_vtime();
  const auto rmin = nic_.recv_cq().min_vtime();
  if (!smin && !rmin) return false;
  fabric::Completion c;
  if (rmin && (!smin || *rmin <= *smin)) {
    if (nic_.jump_recv(c) == Status::Ok) {
      handle_recv_event(c);
      return true;
    }
  }
  if (nic_.jump_send(c) == Status::Ok) {
    handle_local_completion(c);
    return true;
  }
  if (nic_.jump_recv(c) == Status::Ok) {
    handle_recv_event(c);
    return true;
  }
  return false;
}

void Photon::handle_local_completion(const fabric::Completion& c) {
  const OpRecord* live = ops_.live(c.wr_id);
  if (live == nullptr) {
    // Unsignaled op that failed remotely — no record to consult. Every
    // unsignaled op the middleware posts (pads, control messages, credit
    // returns, doorbells) is part of sequenced per-peer state, so latch the
    // peer dead.
    if (c.status != Status::Ok) {
      ++stats_.op_errors;
      error_q_.push_back(c.status);
      // Completions stamped with a pre-fence epoch report ops that died
      // with the old connection; they must not re-latch a recovered link.
      if (c.peer < peer_failed_.size() && c.epoch == nic_.tx_epoch(c.peer)) {
        peer_failed_[c.peer] = true;
        PHOTON_CHECK_HOOK(nic_.checker().on_peer_dead(rank(), c.peer));
      }
    }
    return;
  }
  const OpRecord rec = *live;
  ops_.release(c.wr_id);

  if (c.status != Status::Ok) {
    if (rec.pool_slot != kNoPoolSlot) free_pool_.push_back(rec.pool_slot);
    // A failed direct put's doorbell is a separately chained WR, so its
    // remote id may still be delivered; every other kind takes the id down
    // with the payload.
    PHOTON_CHECK_HOOK(nic_.checker().on_op_error(
        rec.check_serial, rec.kind == OpKind::kPwcDirect));
    if (rec.local_id && (*rec.local_id & kInternalIdBit) != 0) {
      // Internal-id op (blocking atomic-cell wrapper): the poster is spinning
      // in run_cell_op on exactly this id — deliver the verdict there
      // instead of probe_error so failures are consumed in-line.
      local_q_.push_back({*rec.local_id, rec.peer, 0, c.status});
      return;
    }
    ++stats_.op_errors;
    error_q_.push_back(c.status);
    if (rec.request != kInvalidRequest) complete_request(rec.request, c.status);
    // A failed eager/ledger op leaves a hole in sequenced shared state; the
    // peer connection is latched dead (verbs QP error semantics) — unless
    // the failure belongs to an epoch a later fence already superseded.
    if (rec.kind == OpKind::kPwcEager && c.epoch == nic_.tx_epoch(rec.peer)) {
      peer_failed_[rec.peer] = true;
      PHOTON_CHECK_HOOK(nic_.checker().on_peer_dead(rank(), rec.peer));
    }
    return;
  }

  PHOTON_TELEM_HOOK(oplat_.record_local(op_class_of(rec.kind), rec.peer,
                                        sat_sub(c.vtime, rec.post_vtime)));

  switch (rec.kind) {
    case OpKind::kPwcDirect:
    case OpKind::kPwcEager:
      if (rec.local_id) {
        local_q_.push_back({*rec.local_id, rec.peer});
        ++stats_.local_completions;
      }
      break;
    case OpKind::kGwc:
      if (rec.local_id) {
        local_q_.push_back({*rec.local_id, rec.peer});
        ++stats_.local_completions;
      }
      if (rec.remote_id) {
        const Status st = ledger_signal(rec.peer, *rec.remote_id, true,
                                        /*chained=*/false, rec.post_vtime);
        if (transient(st)) {
          deferred_.push_back({rec.peer, *rec.remote_id, true, rec.post_vtime});
          ++deferred_pending_[rec.peer];
        } else if (st != Status::Ok) {
          error_q_.push_back(st);
          PHOTON_CHECK_HOOK(nic_.checker().on_remote_id_lost(
              rec.peer, rank(), *rec.remote_id));
        }
      }
      break;
    case OpKind::kOsPut:
    case OpKind::kOsGet:
      complete_request(rec.request, Status::Ok);
      break;
    case OpKind::kFadd:
    case OpKind::kCas:
    case OpKind::kSwap:
      if (rec.local_id) {
        local_q_.push_back({*rec.local_id, rec.peer, c.result, Status::Ok});
        ++stats_.local_completions;
      }
      break;
    case OpKind::kGet64:
    case OpKind::kGet64x2: {
      std::uint64_t v[2] = {0, 0};
      const std::size_t len = rec.kind == OpKind::kGet64x2 ? 16 : 8;
      std::memcpy(v, slab_ptr(atomic_pool_off() + rec.pool_slot * kPoolCellBytes),
                  len);
      free_pool_.push_back(rec.pool_slot);
      if (rec.local_id) {
        local_q_.push_back({*rec.local_id, rec.peer, v[0], Status::Ok, v[1]});
        ++stats_.local_completions;
      }
      break;
    }
  }
}

void Photon::handle_recv_event(const fabric::Completion& c) {
  if (c.peer < nranks_ && c.epoch != rx_epoch_seen_[c.peer]) {
    // First delivery of a new receive epoch: the peer fenced a fresh
    // connection and restarted its ring/ledger cursors at zero. Mirror it,
    // and drop adverts it sent over the dead incarnation — its side already
    // failed those requests, so their FINs can never be matched.
    rx_epoch_seen_[c.peer] = c.epoch;
    receivers_[c.peer] = ReceiverState{};
    for (auto it = adverts_.begin(); it != adverts_.end();) {
      if (it->first.peer == c.peer)
        it = adverts_.erase(it);
      else
        ++it;
    }
  }
  if (c.status != Status::Ok) {
    ++stats_.op_errors;
    error_q_.push_back(c.status);
    return;
  }
  switch (imm_kind(c.imm)) {
    case ImmKind::kEager:
      consume_eager(c.peer, imm_aux(c.imm), c.vtime);
      break;
    case ImmKind::kSignal:
      consume_ledger(c.peer, imm_aux(c.imm), c.vtime);
      break;
    case ImmKind::kCredit:
      break;  // the credit cells are already readable; clock advanced on pop
    default:
      log::warn("photon: unknown imm kind ", c.imm);
      break;
  }
}

void Photon::consume_eager(Rank src, [[maybe_unused]] std::uint64_t post_vt,
                           [[maybe_unused]] std::uint64_t deliver_vt) {
  const std::size_t R = cfg_.eager_ring_bytes;
  ReceiverState& rs = receivers_[src];
  const std::byte* ring = slab_ptr(ring_off(src));

  for (;;) {
    const std::size_t pos = static_cast<std::size_t>(rs.ring_tail % R);
    EagerHeader h;
    std::memcpy(&h, ring + pos, sizeof(h));
    if (h.kind == static_cast<std::uint16_t>(MsgKind::kPad)) {
      if (pos == 0) {
        // A pad can never legitimately start at offset 0 (messages are at
        // most half a ring): the cursor has desynchronized (e.g. a dropped
        // message left a hole). Surface instead of spinning.
        log::error("photon: eager ring desync from rank ", src);
        error_q_.push_back(Status::ProtocolError);
        return;
      }
      rs.ring_tail += R - pos;
      continue;
    }
    if (h.kind > static_cast<std::uint16_t>(MsgKind::kFin)) {
      log::error("photon: corrupt eager header kind ", h.kind, " from rank ",
                 src);
      error_q_.push_back(Status::ProtocolError);
      return;
    }
    const std::byte* body = ring + pos + sizeof(EagerHeader);
    if ((h.flags & kEagerFlagCrc) != 0 &&
        resilience::crc32c(body, h.size) != h.crc) {
      log::error("photon: eager payload CRC mismatch from rank ", src);
      error_q_.push_back(Status::ProtocolError);
      return;
    }
    const MsgKind kind = static_cast<MsgKind>(h.kind);
    if (kind == MsgKind::kUser) {
      ProbeEvent ev;
      ev.id = h.id;
      ev.peer = src;
      ev.epoch = rx_epoch_seen_[src];
      ev.payload.assign(body, body + h.size);
      clock().add(static_cast<std::uint64_t>(static_cast<double>(h.size) *
                                             cfg_.eager_copy_per_byte_ns));
      // Each kEager completion delivers exactly one non-pad message, in
      // order, so this completion's imm-carried post vtime is this
      // message's post vtime.
      PHOTON_TELEM_HOOK(oplat_.record_remote(telemetry::OpClass::kEager, src,
                                             sat_sub(deliver_vt, post_vt)));
      deliver_event(std::move(ev));
    } else {
      handle_control(src, h, body);
    }
    rs.ring_tail += ring_footprint(h.size);
    break;
  }
  maybe_return_credits(src);
}

void Photon::consume_ledger(Rank src, std::uint64_t slot,
                            [[maybe_unused]] std::uint64_t deliver_vt) {
  ReceiverState& rs = receivers_[src];
  const std::uint64_t expected = rs.ledger_tail % cfg_.ledger_entries;
  if (slot != expected) {
    log::warn("photon: ledger slot out of order (got ", slot, " expected ",
              expected, ")");
    error_q_.push_back(Status::ProtocolError);
    return;
  }
  LedgerEntry e;
  std::memcpy(&e, slab_ptr(ledger_off(src) + slot * sizeof(LedgerEntry)),
              sizeof(e));
  if (ledger_meta_is_shard_nak(e.meta)) {
    // Control entry from the DDS HA layer: route to the NAK queue, never the
    // probe-event stream. Still a ledger slot: advance the tail and return
    // credits as usual.
    shard_nak_q_.push_back(ShardNak{src, ledger_meta_nak_shard(e.meta),
                                    ledger_meta_nak_epoch(e.meta)});
    ++stats_.shard_naks;
    ++rs.ledger_tail;
    maybe_return_credits(src);
    return;
  }
  ProbeEvent ev;
  ev.id = e.id;
  ev.peer = src;
  ev.epoch = rx_epoch_seen_[src];
  ev.from_get = ledger_meta_from_get(e.meta);
  PHOTON_TELEM_HOOK({
    const telemetry::OpClass oc =
        ledger_meta_from_get(e.meta)      ? telemetry::OpClass::kGet
        : ledger_meta_put_chained(e.meta) ? telemetry::OpClass::kPut
                                          : telemetry::OpClass::kSignal;
    oplat_.record_remote(oc, src,
                         sat_sub(deliver_vt, ledger_meta_vtime(e.meta)));
  });
  deliver_event(std::move(ev));
  ++rs.ledger_tail;
  maybe_return_credits(src);
}

void Photon::deliver_event(ProbeEvent&& ev) {
  if ((ev.id & kKeyedEventBit) != 0)
    keyed_[{ev.peer, ev.id}].push_back(std::move(ev));
  else
    event_q_.push_back(std::move(ev));
  ++stats_.events_delivered;
}

void Photon::handle_control(Rank src, const EagerHeader& h, const std::byte* body) {
  switch (static_cast<MsgKind>(h.kind)) {
    case MsgKind::kAdvert: {
      AdvertBody b;
      std::memcpy(&b, body, sizeof(b));
      RendezvousBuffer rb;
      rb.peer = src;
      rb.addr = b.addr;
      rb.size = b.size;
      rb.rkey = b.rkey;
      rb.tag = b.tag;
      rb.remote_request = b.request;
      rb.get_side = b.get_side != 0;
      adverts_[{src, b.tag}].push_back(rb);
      break;
    }
    case MsgKind::kFin: {
      FinBody b;
      std::memcpy(&b, body, sizeof(b));
      complete_request(b.request, Status::Ok);
      break;
    }
    default:
      log::warn("photon: unknown control kind ", h.kind);
      error_q_.push_back(Status::ProtocolError);
      break;
  }
}

std::optional<LocalComplete> Photon::probe_local() {
  if (local_q_.empty()) progress();
  if (local_q_.empty()) return std::nullopt;
  LocalComplete out = local_q_.front();
  local_q_.pop_front();
  PHOTON_CHECK_HOOK(nic_.checker().on_local_id_popped(rank(), out.id));
  return out;
}

std::optional<LocalComplete> Photon::take_local(std::uint64_t id) {
  progress();
  for (auto it = local_q_.begin(); it != local_q_.end(); ++it) {
    if (it->id == id) {
      const LocalComplete out = *it;
      local_q_.erase(it);
      PHOTON_CHECK_HOOK(nic_.checker().on_local_id_popped(rank(), out.id));
      return out;
    }
  }
  return std::nullopt;
}

std::optional<ProbeEvent> Photon::probe_event() {
  if (event_q_.empty()) progress();
  if (event_q_.empty()) return std::nullopt;
  ProbeEvent out = std::move(event_q_.front());
  event_q_.pop_front();
  PHOTON_CHECK_HOOK(nic_.checker().on_remote_id_popped(rank(), out.peer, out.id));
  return out;
}

std::size_t Photon::discard_events_from(
    Rank peer, const std::function<bool(const ProbeEvent&)>& keep) {
  progress();
  std::size_t discarded = 0;
  const auto lost = [&](const ProbeEvent& ev) {
    if (ev.peer != peer || (keep != nullptr && keep(ev))) return false;
    PHOTON_CHECK_HOOK(nic_.checker().on_remote_id_lost(rank(), ev.peer, ev.id));
    ++discarded;
    return true;
  };
  std::erase_if(event_q_, lost);
  for (auto it = keyed_.begin(); it != keyed_.end();) {
    std::erase_if(it->second, lost);
    it = it->second.empty() ? keyed_.erase(it) : std::next(it);
  }
  return discarded;
}

std::optional<ProbeEvent> Photon::take_event(Rank peer, std::uint64_t id) {
  progress();
  const auto it = keyed_.find({peer, id});
  if (it == keyed_.end()) return std::nullopt;
  ProbeEvent out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) keyed_.erase(it);
  PHOTON_CHECK_HOOK(nic_.checker().on_remote_id_popped(rank(), out.peer, out.id));
  return out;
}

std::optional<Status> Photon::probe_error() {
  if (error_q_.empty()) progress();
  if (error_q_.empty()) (void)progress_jump();
  if (error_q_.empty()) return std::nullopt;
  const Status out = error_q_.front();
  error_q_.pop_front();
  return out;
}

Status Photon::wait_local(LocalComplete& out, std::uint64_t timeout_ns) {
  auto l = wait_for(timeout_ns, [this] { return probe_local(); });
  if (!l) return Status::NotFound;
  out = *l;
  return Status::Ok;
}

Status Photon::wait_event(ProbeEvent& out, std::uint64_t timeout_ns) {
  auto e = wait_for(timeout_ns, [this] { return probe_event(); });
  if (!e) return Status::NotFound;
  out = std::move(*e);
  return Status::Ok;
}

// ---- rendezvous ------------------------------------------------------------------------

util::Result<RequestId> Photon::post_buffer_rq(Rank peer,
                                               const BufferDescriptor& buf,
                                               std::uint64_t tag,
                                               bool get_side) {
  if (peer >= nranks_ || !buf.valid()) return Status::BadArgument;
  if (tag == kAnyTag) return Status::BadArgument;
  if (!ensure_peer(peer)) return Status::PeerUnreachable;
  const RequestId rq = alloc_request(peer, /*remote=*/true);
  check::PostGuard guard(nic_, check::CheckOpKind::kAdvert, peer,
                         [&](check::PostInfo& pi) {
                           pi.local_addr = reinterpret_cast<const void*>(buf.addr);
                           pi.local_len = buf.size;
                           pi.local_lkey = buf.lkey;
                           pi.request = rq;
                           pi.advert_is_send = get_side;
                         });
  AdvertBody b;
  b.addr = buf.addr;
  b.size = buf.size;
  b.rkey = buf.rkey;
  b.tag = tag;
  b.request = rq;
  b.get_side = get_side ? 1 : 0;
  const auto bytes = std::as_bytes(std::span<const AdvertBody, 1>(&b, 1));
  // Control messages must eventually go through; retry briefly here so
  // callers see only hard failures.
  const Status st = run_blocking(
      *this, [&] { return eager_send(peer, MsgKind::kAdvert, 0, bytes); },
      kDefaultTimeoutNs);
  if (st != Status::Ok) {
    requests_.erase(rq);
    return st;
  }
  ++stats_.adverts_sent;
  guard.commit();
  return rq;
}

util::Result<RequestId> Photon::post_recv_buffer_rq(Rank peer,
                                                    const BufferDescriptor& buf,
                                                    std::uint64_t tag) {
  return post_buffer_rq(peer, buf, tag, /*get_side=*/false);
}

util::Result<RequestId> Photon::post_send_buffer_rq(Rank peer,
                                                    const BufferDescriptor& buf,
                                                    std::uint64_t tag) {
  return post_buffer_rq(peer, buf, tag, /*get_side=*/true);
}

std::optional<RendezvousBuffer> Photon::take_advert(Rank peer, std::uint64_t tag,
                                                    bool get_side) {
  // Take the first advert of the wanted side from one (peer, tag) queue,
  // dropping the queue once it is empty so unique tags leave nothing behind.
  auto take = [&](auto it) -> std::optional<RendezvousBuffer> {
    auto& q = it->second;
    for (auto a = q.begin(); a != q.end(); ++a) {
      if (a->get_side != get_side) continue;
      const RendezvousBuffer rb = *a;
      q.erase(a);
      if (q.empty()) adverts_.erase(it);
      return rb;
    }
    return std::nullopt;
  };
  if (tag != kAnyTag) {
    auto it = adverts_.find({peer, tag});
    return it != adverts_.end() ? take(it) : std::nullopt;
  }
  for (auto it = adverts_.begin(); it != adverts_.end(); ++it) {
    if (it->first.peer != peer) continue;
    if (auto rb = take(it)) return rb;
  }
  return std::nullopt;
}

util::Result<RendezvousBuffer> Photon::wait_advert(Rank peer, std::uint64_t tag,
                                                   bool get_side,
                                                   std::uint64_t timeout_ns) {
  const auto waited = wait_for(
      timeout_ns, [&]() -> std::optional<util::Result<RendezvousBuffer>> {
        progress();
        if (auto rb = take_advert(peer, tag, get_side)) return *rb;
        if (peer < nranks_ && nic_.peer_down(peer))
          return Status::PeerUnreachable;
        return std::nullopt;
      });
  return waited.value_or(Status::NotFound);
}

util::Result<RendezvousBuffer> Photon::wait_send_rq(Rank peer, std::uint64_t tag,
                                                    std::uint64_t timeout_ns) {
  return wait_advert(peer, tag, /*get_side=*/false, timeout_ns);
}

util::Result<RendezvousBuffer> Photon::wait_recv_rq(Rank peer, std::uint64_t tag,
                                                    std::uint64_t timeout_ns) {
  return wait_advert(peer, tag, /*get_side=*/true, timeout_ns);
}

template <typename Slice>
util::Result<RequestId> Photon::post_os(Rank peer, Slice local,
                                        const RendezvousBuffer& rb) {
  constexpr bool kPut = std::is_same_v<Slice, LocalSlice>;
  if (peer != rb.peer || local.len > rb.size) return Status::BadArgument;
  if (!ensure_peer(peer)) return Status::PeerUnreachable;
  if (!fabric_headroom(peer, 1)) return Status::QueueFull;
  const RequestId rq = alloc_request(peer, /*remote=*/false);
  // The remote window stays claimed by the peer's advert op; this op only
  // pins its local slice and conflict-checks the remote range.
  check::PostGuard guard(
      nic_, kPut ? check::CheckOpKind::kOsPut : check::CheckOpKind::kOsGet, peer,
      [&](check::PostInfo& pi) {
        pi.local_addr = local.addr;
        pi.local_len = local.len;
        pi.local_lkey = local.lkey;
        pi.remote_addr = rb.addr;
        pi.remote_len = local.len;
        pi.remote_rkey = rb.rkey;
        pi.request = rq;
      });
  OpRecord rec{.kind = kPut ? OpKind::kOsPut : OpKind::kOsGet, .peer = peer,
               .request = rq, .post_vtime = post_stamp()};
  const Status st = post_op(&guard, &rec, [&](std::uint64_t wr_id) {
    const fabric::RemoteRef remote{rb.addr, rb.rkey};
    if constexpr (kPut)
      return nic_.post_put(
          peer, fabric::LocalRef{local.addr, local.len, local.lkey}, remote,
          wr_id, true);
    else
      return nic_.post_get(
          peer, fabric::LocalMutRef{local.addr, local.len, local.lkey},
          remote, wr_id);
  });
  if (st != Status::Ok) {
    requests_.erase(rq);
    return st;
  }
  return rq;
}

util::Result<RequestId> Photon::post_os_put(Rank peer, LocalSlice src,
                                            const RendezvousBuffer& rb) {
  return post_os(peer, src, rb);
}

util::Result<RequestId> Photon::post_os_get(Rank peer, LocalMutSlice dst,
                                            const RendezvousBuffer& rb) {
  return post_os(peer, dst, rb);
}

Status Photon::send_fin(Rank peer, const RendezvousBuffer& rb) {
  if (peer != rb.peer) return Status::BadArgument;
  FinBody b{rb.tag, rb.remote_request};
  const auto bytes = std::as_bytes(std::span<const FinBody, 1>(&b, 1));
  const Status st = run_blocking(
      *this, [&] { return eager_send(peer, MsgKind::kFin, 0, bytes); },
      kDefaultTimeoutNs);
  if (st == Status::Ok) ++stats_.fins_sent;
  return st;
}

Status Photon::test(RequestId rq, bool& done) {
  progress();
  auto it = requests_.find(rq);
  if (it == requests_.end()) return Status::BadArgument;
  done = it->second.done;
  if (!done) return Status::Ok;
  const Status st = it->second.status;
  requests_.erase(it);
  return st;
}

util::Result<std::size_t> Photon::wait_any(std::span<const RequestId> rqs,
                                           std::uint64_t timeout_ns) {
  if (rqs.empty()) return Status::BadArgument;
  const auto waited = wait_for(
      timeout_ns, [&]() -> std::optional<util::Result<std::size_t>> {
        progress();
        for (std::size_t i = 0; i < rqs.size(); ++i) {
          auto it = requests_.find(rqs[i]);
          if (it == requests_.end()) return Status::BadArgument;
          if (!it->second.done) continue;
          const Status st = it->second.status;
          requests_.erase(it);
          if (st != Status::Ok) return st;
          return i;
        }
        return std::nullopt;
      });
  return waited.value_or(Status::NotFound);
}

Status Photon::wait(RequestId rq, std::uint64_t timeout_ns) {
  const auto waited = wait_for(timeout_ns, [&]() -> std::optional<Status> {
    bool done = false;
    const Status st = test(rq, done);
    if (st != Status::Ok || done) return st;
    return std::nullopt;
  });
  return waited.value_or(Status::NotFound);
}

}  // namespace photon::core
