#include "msg/engine.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "check/hooks.hpp"
#include "resilience/crc32c.hpp"
#include "telemetry/hooks.hpp"
#include "util/log.hpp"

namespace photon::msg {

using fabric::Rank;

Engine::Engine(fabric::Nic& nic, runtime::Exchanger& oob, const Config& cfg)
    : nic_(nic), nranks_(oob.size()), cfg_(cfg) {
  if (cfg_.bounce_count < 2) throw std::invalid_argument("bounce_count >= 2");
  if (cfg_.send_credits < 2) throw std::invalid_argument("send_credits >= 2");
  slot_bytes_ = sizeof(MsgHeader) + cfg_.eager_threshold;
  slab_.assign(slot_bytes_ * (cfg_.bounce_count + 1), std::byte{0});
  auto mr = nic_.registry().register_memory(slab_.data(), slab_.size(),
                                            fabric::kAccessAll);
  if (!mr.ok()) throw std::runtime_error("bounce slab registration failed");
  slab_lkey_ = mr.value().lkey;

  for (std::size_t s = 0; s < cfg_.bounce_count; ++s) repost_bounce(s);

  credits_.assign(nranks_, static_cast<std::uint32_t>(cfg_.send_credits));
  since_ack_.assign(nranks_, 0);
  tx_epoch_seen_.assign(nranks_, 0);
  rx_epoch_seen_.assign(nranks_, 0);

  // All ranks ready before any traffic (PMI-style fence).
  oob.barrier(rank());
  oob_ = &oob;
}

Engine::~Engine() {
  // Peers may still be transmitting into our bounce slab; fence before
  // tearing it down (symmetric SPMD destruction assumed).
  if (oob_ != nullptr) oob_->barrier(rank());
  PHOTON_TELEM_HOOK(fold_stats());
  nic_.registry().deregister(slab_lkey_);
}

void Engine::fold_stats() const {
  telemetry::MetricsRegistry::process().fold(
      "msg.", {{"eager_sends", stats_.eager_sends},
               {"rndv_sends", stats_.rndv_sends},
               {"recvs_completed", stats_.recvs_completed},
               {"expected_hits", stats_.expected_hits},
               {"unexpected_hits", stats_.unexpected_hits},
               {"credit_acks", stats_.credit_acks},
               {"credit_stalls", stats_.credit_stalls},
               {"bytes_sent", stats_.bytes_sent},
               {"registrations", stats_.registrations}});
}

void Engine::repost_bounce(std::size_t slot) {
  std::byte* p = slab_.data() + slot * slot_bytes_;
  const Status st =
      nic_.post_recv(fabric::LocalMutRef{p, slot_bytes_, slab_lkey_}, slot);
  if (st != Status::Ok)
    log::error("msg: bounce repost failed: ", status_name(st));
}

ReqId Engine::alloc_request() {
  const ReqId rq = next_request_++;
  requests_.emplace(rq, ReqInfo{});
  return rq;
}

void Engine::complete_request(ReqId rq, Status st, const RecvInfo& info) {
  auto it = requests_.find(rq);
  if (it == requests_.end()) {
    log::warn("msg: completion for unknown request ", rq);
    return;
  }
  it->second.done = true;
  it->second.status = st;
  it->second.info = info;
  // Release any request-anchored shadow spans (rndv windows). Requests with
  // no shadow op (eager sends) are silently ignored by the checker.
  PHOTON_CHECK_HOOK(
      nic_.checker().on_request_done(rank(), check::RequestNs::kMsg, rq));
}

Status Engine::send_ctrl(Rank dst, const MsgHeader& h,
                         std::span<const std::byte> payload) {
  std::byte* staging = slab_.data() + cfg_.bounce_count * slot_bytes_;
  std::memcpy(staging, &h, sizeof(h));
  if (!payload.empty())
    std::memcpy(staging + sizeof(h), payload.data(), payload.size());
  return nic_.post_send(
      dst, fabric::LocalRef{staging, sizeof(h) + payload.size(), slab_lkey_}, 0,
      0, /*signaled=*/false);
}

// ---- send side ------------------------------------------------------------------

util::Result<ReqId> Engine::isend(Rank dst, Tag tag,
                                  std::span<const std::byte> data) {
  if (dst >= nranks_ || tag == kAnyTag) return Status::BadArgument;
  if (!ensure_peer(dst)) return Status::PeerUnreachable;

  if (data.size() <= cfg_.eager_threshold) {
    if (credits_[dst] == 0) {
      ++stats_.credit_stalls;
      return Status::Retry;
    }
    const ReqId rq = alloc_request();
    MsgHeader h;
    h.tag = tag;
    h.proto = static_cast<std::uint32_t>(Proto::kEager);
    h.size = static_cast<std::uint32_t>(data.size());
    if (!data.empty() && nic_.faults().wire_armed()) {
      h.crc = resilience::crc32c(data.data(), data.size());
      h.flags |= kMsgFlagCrc;
    }
    charge_copy(data.size());  // staging copy-in
    std::byte* staging = slab_.data() + cfg_.bounce_count * slot_bytes_;
    std::memcpy(staging, &h, sizeof(h));
    if (!data.empty())
      std::memcpy(staging + sizeof(h), data.data(), data.size());
    const std::uint64_t wr_id =
        ops_.alloc({.kind = OpKind::kEagerSend, .request = rq});
    const Status st = nic_.post_send(
        dst, fabric::LocalRef{staging, sizeof(h) + data.size(), slab_lkey_}, 0,
        wr_id, true);
    if (st != Status::Ok) {
      ops_.release(wr_id);
      requests_.erase(rq);
      return st;
    }
    --credits_[dst];
    ++stats_.eager_sends;
    stats_.bytes_sent += data.size();
    return rq;
  }

  // Rendezvous: register the user buffer, advertise it, complete on FIN.
  auto mr = nic_.registry().register_memory(
      const_cast<void*>(static_cast<const void*>(data.data())), data.size(),
      fabric::kRemoteRead | fabric::kLocalRead);
  if (!mr.ok()) return mr.status();
  nic_.clock().add(cfg_.reg_cost_ns);
  ++stats_.registrations;
  const ReqId rq = alloc_request();
  MsgHeader h;
  h.tag = tag;
  h.proto = static_cast<std::uint32_t>(Proto::kRts);
  h.size = static_cast<std::uint32_t>(data.size());
  h.sender_req = rq;
  h.addr = mr.value().begin();
  h.rkey = mr.value().rkey;
  // The registered source is advertised to the peer (RTS) and stays
  // read-pinned until its FIN completes the request. The guard's scope ends
  // before a rejected RTS tears the registration down, so the aborted
  // shadow op still resolves its slice.
  const Status st = [&] {
    check::PostGuard guard(nic_, check::CheckOpKind::kAdvert, dst,
                           [&](check::PostInfo& pi) {
                             pi.local_addr = data.data();
                             pi.local_len = data.size();
                             pi.local_lkey = mr.value().lkey;
                             pi.request = rq;
                             pi.request_ns = check::RequestNs::kMsg;
                             pi.advert_is_send = true;
                           });
    const Status sent = send_ctrl(dst, h, {});
    if (sent == Status::Ok) guard.commit();
    return sent;
  }();
  if (st != Status::Ok) {
    nic_.registry().deregister(mr.value().lkey);
    requests_.erase(rq);
    return st;
  }
  rndv_sends_.emplace(rq, RndvSendState{mr.value().lkey, dst});
  ++stats_.rndv_sends;
  stats_.bytes_sent += data.size();
  return rq;
}

// ---- receive side ----------------------------------------------------------------

util::Result<ReqId> Engine::irecv(Rank src, Tag tag, std::span<std::byte> out) {
  const ReqId rq = alloc_request();
  charge_match();
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(src, tag, it->src, it->tag)) continue;
    Unexpected u = std::move(*it);
    unexpected_.erase(it);
    ++stats_.unexpected_hits;
    if (u.is_rts) {
      start_rndv_get(u.src, u, out, rq);
    } else {
      const std::size_t n = std::min(u.payload.size(), out.size());
      PHOTON_CHECK_HOOK(
          if (n > 0) nic_.checker().note_user_write(rank(), out.data(), n));
      if (n > 0) std::memcpy(out.data(), u.payload.data(), n);
      charge_copy(n);
      RecvInfo info{u.src, u.tag, n, u.payload.size() > out.size()};
      complete_request(rq, info.truncated ? Status::Truncated : Status::Ok,
                       info);
      ++stats_.recvs_completed;
    }
    return rq;
  }
  posted_.push_back({src, tag, out, rq});
  return rq;
}

void Engine::start_rndv_get(Rank src, const Unexpected& rts,
                            std::span<std::byte> out, ReqId rq) {
  const std::size_t n = std::min(rts.size, out.size());
  RecvInfo info{src, rts.tag, n, rts.size > out.size()};
  if (n == 0) {
    // Nothing to pull; FIN immediately.
    MsgHeader fin;
    fin.proto = static_cast<std::uint32_t>(Proto::kFin);
    fin.sender_req = rts.sender_req;
    send_ctrl(src, fin, {});
    complete_request(rq, info.truncated ? Status::Truncated : Status::Ok, info);
    ++stats_.recvs_completed;
    return;
  }
  auto mr = nic_.registry().register_memory(out.data(), n,
                                            fabric::kLocalWrite);
  if (!mr.ok()) {
    complete_request(rq, mr.status(), info);
    return;
  }
  nic_.clock().add(cfg_.reg_cost_ns);
  ++stats_.registrations;
  // The sender's advertised window governs the remote side; this op pins
  // only its local destination until the get completes the request. As in
  // isend, the guard's scope ends before a rejected get tears the
  // registration down.
  const Status st = [&] {
    check::PostGuard guard(nic_, check::CheckOpKind::kRndvGet, src,
                           [&](check::PostInfo& pi) {
                             pi.local_addr = out.data();
                             pi.local_len = n;
                             pi.local_lkey = mr.value().lkey;
                             pi.remote_addr = rts.addr;
                             pi.remote_len = n;
                             pi.remote_rkey = rts.rkey;
                             pi.request = rq;
                             pi.request_ns = check::RequestNs::kMsg;
                           });
    const std::uint64_t wr_id = ops_.alloc({.kind = OpKind::kRndvGet,
                                            .request = rq,
                                            .peer = src,
                                            .sender_req = rts.sender_req,
                                            .dereg_lkey = mr.value().lkey,
                                            .info = info});
    const Status posted = nic_.post_get(
        src, fabric::LocalMutRef{out.data(), n, mr.value().lkey},
        fabric::RemoteRef{rts.addr, rts.rkey}, wr_id);
    if (posted != Status::Ok) {
      ops_.release(wr_id);
      return posted;
    }
    guard.commit();
    return Status::Ok;
  }();
  if (st != Status::Ok) {
    nic_.registry().deregister(mr.value().lkey);
    complete_request(rq, st, info);
  }
}

void Engine::deliver_eager(const PostedRecv& pr, Rank src, Tag tag,
                           const std::byte* body, std::size_t len) {
  const std::size_t n = std::min(len, pr.out.size());
  PHOTON_CHECK_HOOK(
      if (n > 0) nic_.checker().note_user_write(rank(), pr.out.data(), n));
  if (n > 0) std::memcpy(pr.out.data(), body, n);
  charge_copy(n);
  RecvInfo info{src, tag, n, len > pr.out.size()};
  complete_request(pr.rq, info.truncated ? Status::Truncated : Status::Ok, info);
  ++stats_.recvs_completed;
  ++stats_.expected_hits;
}

// ---- incoming traffic ---------------------------------------------------------------

void Engine::handle_incoming(const fabric::Completion& c) {
  const std::size_t slot = static_cast<std::size_t>(c.wr_id);
  if (c.peer < nranks_ && c.epoch < nic_.rx_epoch(c.peer)) {
    // Pre-fence frame from a peer that has since reconnected. The NIC
    // already counted it as a stale-epoch drop but hands Recv completions
    // up so the bounce slot is not leaked: discard the payload unseen.
    repost_bounce(slot);
    return;
  }
  if (c.peer < nranks_ && c.epoch != rx_epoch_seen_[c.peer]) {
    // New channel incarnation: the peer restarted with full send credits,
    // so processed-since-ack counts from the dead epoch must not be acked.
    rx_epoch_seen_[c.peer] = c.epoch;
    since_ack_[c.peer] = 0;
  }
  const std::byte* p = slab_.data() + slot * slot_bytes_;
  MsgHeader h;
  std::memcpy(&h, p, sizeof(h));
  const std::byte* body = p + sizeof(h);
  const Rank src = c.peer;

  switch (static_cast<Proto>(h.proto)) {
    case Proto::kEager:
      handle_eager(src, h, body);
      ++since_ack_[src];
      maybe_ack_credits(src);
      break;
    case Proto::kRts:
      handle_rts(src, h);
      break;
    case Proto::kFin: {
      auto it = rndv_sends_.find(h.sender_req);
      if (it != rndv_sends_.end()) {
        // Complete (releasing the advert's shadow span) before tearing the
        // registration down, so the teardown sees a quiescent region.
        complete_request(h.sender_req, Status::Ok, RecvInfo{});
        nic_.registry().deregister(it->second.lkey);
        rndv_sends_.erase(it);
      } else {
        log::warn("msg: FIN for unknown rndv send ", h.sender_req);
      }
      break;
    }
    case Proto::kCreditAck:
      credits_[src] += static_cast<std::uint32_t>(h.aux);
      break;
    default:
      log::warn("msg: unknown proto ", h.proto);
      break;
  }
  repost_bounce(slot);
}

void Engine::handle_eager(Rank src, const MsgHeader& h, const std::byte* body) {
  if ((h.flags & kMsgFlagCrc) != 0 &&
      resilience::crc32c(body, h.size) != h.crc) {
    log::error("msg: eager payload CRC mismatch from rank ", src);
    return;  // drop: wire-level retransmission should have caught this
  }
  charge_match();
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (!matches(it->src, it->tag, src, h.tag)) continue;
    PostedRecv pr = *it;
    posted_.erase(it);
    deliver_eager(pr, src, h.tag, body, h.size);
    return;
  }
  Unexpected u;
  u.src = src;
  u.tag = h.tag;
  u.payload.assign(body, body + h.size);
  charge_copy(h.size);  // unexpected-queue buffering copy
  unexpected_.push_back(std::move(u));
}

void Engine::handle_rts(Rank src, const MsgHeader& h) {
  charge_match();
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (!matches(it->src, it->tag, src, h.tag)) continue;
    PostedRecv pr = *it;
    posted_.erase(it);
    Unexpected rts;
    rts.src = src;
    rts.tag = h.tag;
    rts.is_rts = true;
    rts.sender_req = h.sender_req;
    rts.addr = h.addr;
    rts.rkey = h.rkey;
    rts.size = h.size;
    start_rndv_get(src, rts, pr.out, pr.rq);
    ++stats_.expected_hits;
    return;
  }
  Unexpected u;
  u.src = src;
  u.tag = h.tag;
  u.is_rts = true;
  u.sender_req = h.sender_req;
  u.addr = h.addr;
  u.rkey = h.rkey;
  u.size = h.size;
  unexpected_.push_back(u);
}

void Engine::maybe_ack_credits(Rank src) {
  if (since_ack_[src] < cfg_.send_credits / 2) return;
  MsgHeader h;
  h.proto = static_cast<std::uint32_t>(Proto::kCreditAck);
  h.aux = since_ack_[src];
  if (send_ctrl(src, h, {}) == Status::Ok) {
    since_ack_[src] = 0;
    ++stats_.credit_acks;
  }
}

void Engine::handle_send_completion(const fabric::Completion& c) {
  const OpRecord* live = ops_.live(c.wr_id);
  if (live == nullptr) return;
  const OpRecord rec = *live;
  ops_.release(c.wr_id);

  switch (rec.kind) {
    case OpKind::kEagerSend:
      complete_request(rec.request, c.status, RecvInfo{});
      break;
    case OpKind::kRndvGet: {
      // Complete first: the request anchor releases the destination's shadow
      // pin before the registration is torn down.
      complete_request(rec.request,
                       c.status == Status::Ok && rec.info.truncated
                           ? Status::Truncated
                           : c.status,
                       rec.info);
      nic_.registry().deregister(rec.dereg_lkey);
      if (c.status == Status::Ok) {
        MsgHeader fin;
        fin.proto = static_cast<std::uint32_t>(Proto::kFin);
        fin.sender_req = rec.sender_req;
        send_ctrl(rec.peer, fin, {});
      }
      ++stats_.recvs_completed;
      break;
    }
  }
}

void Engine::sweep_peer_health() {
  const std::uint64_t gen = nic_.health().down_generation();
  if (gen == health_gen_seen_) return;
  health_gen_seen_ = gen;
  // Rendezvous sends whose FIN can never arrive: complete attributed and
  // release the pinned source registration.
  for (auto it = rndv_sends_.begin(); it != rndv_sends_.end();) {
    if (!nic_.peer_down(it->second.peer)) {
      ++it;
      continue;
    }
    complete_request(it->first, Status::PeerUnreachable, RecvInfo{});
    nic_.registry().deregister(it->second.lkey);
    it = rndv_sends_.erase(it);
  }
  // Posted receives pinned to a dead source would wait forever; wildcard
  // receives stay (another peer can still match them).
  for (auto it = posted_.begin(); it != posted_.end();) {
    if (it->src == kAnySource || !nic_.peer_down(it->src)) {
      ++it;
      continue;
    }
    complete_request(it->rq, Status::PeerUnreachable, RecvInfo{});
    it = posted_.erase(it);
  }
}

bool Engine::ensure_peer(Rank dst) {
  const std::uint32_t ep = nic_.tx_epoch(dst);
  if (ep != tx_epoch_seen_[dst]) {
    // The NIC fenced a new connection toward dst: the dead channel's credit
    // debt (and any acks in flight for it) died with the old epoch.
    tx_epoch_seen_[dst] = ep;
    credits_[dst] = static_cast<std::uint32_t>(cfg_.send_credits);
  }
  if (!nic_.peer_down(dst)) return true;
  if (!nic_.config().auto_recover || !nic_.try_recover(dst)) return false;
  tx_epoch_seen_[dst] = nic_.tx_epoch(dst);
  credits_[dst] = static_cast<std::uint32_t>(cfg_.send_credits);
  return true;
}

void Engine::progress() {
  sweep_peer_health();
  fabric::Completion batch[64];
  std::size_t n = nic_.poll_send_batch(batch);
  for (std::size_t i = 0; i < n; ++i) {
    nic_.charge_consume();
    handle_send_completion(batch[i]);
  }
  n = nic_.poll_recv_batch(batch);
  for (std::size_t i = 0; i < n; ++i) {
    nic_.charge_consume();
    handle_incoming(batch[i]);
  }
}

bool Engine::progress_jump() {
  const auto smin = nic_.send_cq().min_vtime();
  const auto rmin = nic_.recv_cq().min_vtime();
  fabric::Completion c;
  if (rmin && (!smin || *rmin <= *smin)) {
    if (nic_.jump_recv(c) == Status::Ok) {
      handle_incoming(c);
      return true;
    }
  }
  if (nic_.jump_send(c) == Status::Ok) {
    handle_send_completion(c);
    return true;
  }
  if (nic_.jump_recv(c) == Status::Ok) {
    handle_incoming(c);
    return true;
  }
  return false;
}

// ---- completion interface -------------------------------------------------------------

Status Engine::test(ReqId rq, bool& done, RecvInfo* info) {
  progress();
  auto it = requests_.find(rq);
  if (it == requests_.end()) return Status::BadArgument;
  done = it->second.done;
  if (!done) return Status::Ok;
  const Status st = it->second.status;
  if (info != nullptr) *info = it->second.info;
  requests_.erase(it);
  return st;
}

Status Engine::wait(ReqId rq, RecvInfo* info, std::uint64_t timeout_ns) {
  const auto waited = wait_for(timeout_ns, [&]() -> std::optional<Status> {
    bool done = false;
    const Status st = test(rq, done, info);
    if (st != Status::Ok || done) return st;
    return std::nullopt;
  });
  return waited.value_or(Status::NotFound);
}

std::optional<RecvInfo> Engine::iprobe(Rank src, Tag tag) {
  progress();
  charge_match();
  for (const Unexpected& u : unexpected_) {
    if (matches(src, tag, u.src, u.tag)) {
      RecvInfo info{u.src, u.tag, u.is_rts ? u.size : u.payload.size(), false};
      return info;
    }
  }
  return std::nullopt;
}

Status Engine::send(Rank dst, Tag tag, std::span<const std::byte> data,
                    std::uint64_t timeout_ns) {
  const auto rq = wait_for(timeout_ns, [&]() -> std::optional<util::Result<ReqId>> {
    auto posted = isend(dst, tag, data);
    if (posted.ok() || !transient(posted.status())) return posted;
    progress();
    return std::nullopt;
  });
  if (!rq) return Status::Retry;
  if (!rq->ok()) return rq->status();
  return wait(rq->value(), nullptr, timeout_ns);
}

util::Result<RecvInfo> Engine::recv(Rank src, Tag tag, std::span<std::byte> out,
                                    std::uint64_t timeout_ns) {
  auto rq = irecv(src, tag, out);
  if (!rq.ok()) return rq.status();
  RecvInfo info;
  const Status st = wait(rq.value(), &info, timeout_ns);
  if (st == Status::Truncated) return info;  // partial delivery, info valid
  if (st != Status::Ok) return st;
  return info;
}

}  // namespace photon::msg
