#include "fabric/nic.hpp"

#include <atomic>
#include <cassert>
#include <cstring>
#include <optional>

#include "fabric/fabric.hpp"
#include "resilience/crc32c.hpp"
#include "telemetry/hooks.hpp"
#include "telemetry/metrics.hpp"
#include "util/idle_wait.hpp"
#include "util/rng.hpp"

namespace photon::fabric {

namespace {
bool aligned8(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 7u) == 0;
}
}  // namespace

const char* opcode_name(OpCode op) noexcept {
  switch (op) {
    case OpCode::Put: return "Put";
    case OpCode::PutImm: return "PutImm";
    case OpCode::Get: return "Get";
    case OpCode::Send: return "Send";
    case OpCode::Recv: return "Recv";
    case OpCode::FetchAdd: return "FetchAdd";
    case OpCode::CompareSwap: return "CompareSwap";
    case OpCode::Swap: return "Swap";
  }
  return "Unknown";
}

Nic::Nic(Fabric& fabric, Rank rank, const NicConfig& cfg)
    : fabric_(fabric),
      rank_(rank),
      cfg_(cfg),
      send_cq_(cfg.cq_depth),
      recv_cq_(cfg.cq_depth),
      counters_(fabric.size()),
      health_(fabric.size(), cfg.health),
      tx_seq_(fabric.size(), 0),
      stream_done_(fabric.size(), 0),
      rx_frames_(fabric.size()),
      in_flight_((fabric.size() + InFlightLine::kPeers - 1) / InFlightLine::kPeers) {
  registry_.bind_checker(&fabric.checker(), rank);
}

check::Checker& Nic::checker() noexcept { return fabric_.checker(); }

std::uint64_t Nic::charge_post_overhead() {
  clock_.add(fabric_.wire().send_overhead());
  return clock_.now();
}

std::uint64_t Nic::charge_or_reuse_overhead(bool chained) {
  if (!chained) clock_.add(fabric_.wire().send_overhead());
  return clock_.now();
}

bool Nic::acquire_slot(Rank peer) {
  auto& c = in_flight_slot(peer);
  // relaxed-ok: owner-thread-only admission counter — no data is published
  // through it; the payload handoff is ordered by the CQ lane's release publish.
  const std::uint32_t cur = c.load(std::memory_order_relaxed);
  if (cur >= cfg_.sq_depth) return false;
  c.store(cur + 1, std::memory_order_relaxed);  // relaxed-ok: as above
  return true;
}

void Nic::release_slot(Rank peer) {
  auto& c = in_flight_slot(peer);
  // relaxed-ok: see acquire_slot().
  c.store(c.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
}

void Nic::complete_local(Completion c) {
  // Stamp the current connection incarnation: after a fence, upper layers
  // use the epoch to tell completions of the dead connection from live ones.
  if (c.peer < health_.size()) c.epoch = health_.epoch(c.peer);
  if (!send_cq_.push(c)) {
    // CQ overflow is sticky inside the queue; nothing more to do here.
    counters_.post_errors.bump();
  }
}

void Nic::copy_to_target(void* dst, const void* src, std::size_t len) {
  if (len == 0) return;
  if (len == 8 && aligned8(dst) && aligned8(src)) {
    std::uint64_t v;
    std::memcpy(&v, src, 8);
    std::atomic_ref<std::uint64_t>(*static_cast<std::uint64_t*>(dst))
        .store(v, std::memory_order_release);
    return;
  }
  std::memcpy(dst, src, len);
}

void Nic::copy_from_target(void* dst, const void* src, std::size_t len) {
  if (len == 0) return;
  if ((len == 8 || len == 16) && aligned8(dst) && aligned8(src)) {
    // One acquire load per word, in ascending address order: a reader that
    // sees a word published by a release store (or CAS) also sees every
    // store to the following words that preceded the publication.
    auto* words =
        const_cast<std::uint64_t*>(static_cast<const std::uint64_t*>(src));
    for (std::size_t i = 0; i < len / 8; ++i) {
      const std::uint64_t v = std::atomic_ref<std::uint64_t>(words[i])
                                  .load(std::memory_order_acquire);
      std::memcpy(static_cast<std::byte*>(dst) + i * 8, &v, 8);
    }
    return;
  }
  std::memcpy(dst, src, len);
}

// ---- reliable delivery ------------------------------------------------------

template <typename DeliverFn>
std::uint64_t Nic::deliver_frame(OpCode op, Nic& target, std::uint64_t seq,
                                 const WireModel::Times& t, bool idempotent,
                                 bool reliable, DeliverFn&& deliver) {
  if (reliable && !idempotent) {
    RxFrameState& rx = target.rx_frames_[rank_];
    // Deliberate chaos bug fixture (see NicConfig): the target "forgets" its
    // atomic-result cache, so a retransmitted FetchAdd/CompareSwap executes
    // again instead of replaying the cached answer.
    const bool fixture_no_dedup =
        target.cfg_.chaos_fixture_no_atomic_dedup &&
        (op == OpCode::FetchAdd || op == OpCode::CompareSwap ||
         op == OpCode::Swap);
    // Per-(src,dst) streams deliver in order (the sender thread is the only
    // writer), so seq <= last_seq identifies exactly the retransmitted
    // duplicates. Non-idempotent frames replay their cached result — the
    // responder's atomic-result cache in verbs terms.
    // relaxed-ok: last_seq/last_result are written by this source thread only
    // (single-writer per stream); atomics exist for cross-thread debug reads.
    if (seq <= rx.last_seq.load(std::memory_order_relaxed)) {
      if (!fixture_no_dedup) {
        target.counters_.from(rank_).dup_suppressed.bump();
        return rx.last_result.load(std::memory_order_relaxed);
      }
      return deliver(t);  // BUG (by design): duplicate re-applied
    }
    // relaxed-ok: single-writer per stream, as above.
    rx.last_seq.store(seq, std::memory_order_relaxed);
    const std::uint64_t res = deliver(t);
    rx.last_result.store(res, std::memory_order_relaxed);
    return res;
  }
  return deliver(t);  // reads re-execute at the target (verbs RC semantics)
}

template <typename TimesFn, typename DeliverFn>
Nic::WireTx Nic::transmit(OpCode op, Rank dst, std::uint64_t ready,
                          const void* payload, std::size_t len, bool idempotent,
                          TimesFn&& times_fn, DeliverFn&& deliver) {
  WireTx tx;
  const std::uint64_t seq = ++tx_seq_[dst];
  Nic& target = fabric_.nic(dst);
  if (!faults_.wire_armed()) {  // perfect wire: single attempt, no bookkeeping
    tx.times = times_fn(ready);
    tx.result = deliver_frame(op, target, seq, tx.times, idempotent,
                              /*reliable=*/false, deliver);
    return tx;
  }

  // RC streams deliver in order: this frame cannot overtake the previous
  // op's (possibly retransmission-delayed) delivery on the same stream.
  std::uint64_t& stream_done = stream_done_[dst];
  if (ready < stream_done) ready = stream_done;

  const resilience::RetryPolicy& rp = cfg_.retry;
  const std::uint64_t deadline =
      ready > kLinkDownForever - rp.deadline_ns ? kLinkDownForever
                                                : ready + rp.deadline_ns;
  const std::uint32_t frame_crc =
      (payload != nullptr && len > 0) ? resilience::crc32c(payload, len) : 0;
  const std::uint64_t stream_key = (static_cast<std::uint64_t>(rank_) << 40) ^
                                   (static_cast<std::uint64_t>(dst) << 20) ^
                                   seq;

  for (std::uint32_t attempt = 1;; ++attempt) {
    // Scripted link state: stall (in virtual time) until the link is up.
    if (auto up = faults_.link_down_until(dst, ready)) {
      counters_.link_down_stalls.bump();
      if (*up >= deadline) break;  // cannot come back within the budget
      ready = *up;
    }
    if (attempt > rp.max_attempts || ready >= deadline) break;

    const FaultInjector::WireDecision d = faults_.wire_fault(op, dst);
    WireModel::Times t = times_fn(ready);
    bool delivered = false;
    switch (d.kind) {
      case WireFault::kDelay:
        counters_.wire_delays.bump();
        t.local_done += d.delay_ns;
        t.deliver += d.delay_ns;
        [[fallthrough]];
      case WireFault::kNone:
      case WireFault::kAckDrop:
        delivered = true;
        break;
      case WireFault::kDrop:
        counters_.wire_drops.bump();
        break;
      case WireFault::kCorrupt: {
        counters_.wire_corruptions.bump();
        // Materialize the damage and run the receiver's CRC check for real:
        // flip one bit of a frame copy and verify against the header CRC.
        bool rejected = true;
        if (payload != nullptr && len > 0) {
          const auto* bytes = static_cast<const std::byte*>(payload);
          scratch_.assign(bytes, bytes + len);
          const std::size_t bit = static_cast<std::size_t>(
              util::SplitMix64(stream_key ^ attempt).next() % (len * 8));
          scratch_[bit / 8] ^=
              std::byte{static_cast<unsigned char>(1u << (bit % 8))};
          rejected = resilience::crc32c(scratch_.data(), len) != frame_crc;
        }
        if (!rejected) {
          // CRC32C catches all single-bit errors, so this is unreachable;
          // modeled anyway: an undetected corruption would be applied.
          delivered = true;
          break;
        }
        // Frame discarded at the target before any memory was touched; a
        // NACK rides back and the initiator retransmits.
        target.counters_.from(rank_).crc_rejects.bump();
        break;
      }
    }

    if (delivered) {
      // The frame reached the target; the receiver's sequence cache decides
      // whether it is fresh or a duplicate of an earlier applied attempt.
      const std::uint64_t res = deliver_frame(op, target, seq, t, idempotent,
                                              /*reliable=*/true, deliver);
      if (d.kind != WireFault::kAckDrop) {
        tx.times = t;
        tx.result = res;
        tx.attempts = attempt;
        if (stream_done < t.deliver) stream_done = t.deliver;
        health_.record_success(dst);
        return tx;
      }
      // Ack lost: the target applied the frame but the initiator cannot
      // know, so it backs off and retransmits; the duplicate is suppressed.
      counters_.wire_ack_drops.bump();
    }
    counters_.retransmits.bump();
    ready = t.local_done + rp.backoff_ns(attempt, stream_key);
  }

  // Retry budget or deadline exhausted (or a link cut outlasting it): the op
  // fails at its virtual-time deadline and counts against the peer's health.
  counters_.op_timeouts.bump();
  health_.record_failure(dst);
  tx.status = Status::Timeout;
  const std::uint64_t fail_at = deadline == kLinkDownForever ? ready : deadline;
  tx.times = WireModel::Times{fail_at, fail_at};
  if (stream_done < fail_at) stream_done = fail_at;
  return tx;
}

// ---- recovery (reconnect/fence) ---------------------------------------------

bool Nic::fence_leg(Rank dst, std::uint64_t& ready) {
  const resilience::RetryPolicy& rp = cfg_.retry;
  const std::uint64_t deadline =
      ready > kLinkDownForever - rp.deadline_ns ? kLinkDownForever
                                                : ready + rp.deadline_ns;
  constexpr std::size_t kFenceBytes = 16;  // epoch + rx-frontier control frame
  const std::uint64_t leg_key = (static_cast<std::uint64_t>(rank_) << 40) ^
                                (static_cast<std::uint64_t>(dst) << 20) ^ ready;
  for (std::uint32_t attempt = 1; attempt <= rp.max_attempts; ++attempt) {
    if (auto up = faults_.link_down_until(dst, ready)) {
      counters_.link_down_stalls.bump();
      if (*up >= deadline) return false;  // link cut again mid-fence
      ready = *up;
    }
    if (ready >= deadline) return false;
    const FaultInjector::WireDecision d = faults_.wire_fault(OpCode::Send, dst);
    WireModel::Times t = fabric_.wire().transfer(rank_, dst, ready, kFenceBytes);
    switch (d.kind) {
      case WireFault::kDelay:
        counters_.wire_delays.bump();
        t.local_done += d.delay_ns;
        t.deliver += d.delay_ns;
        [[fallthrough]];
      case WireFault::kNone:
      case WireFault::kAckDrop:  // the leg landed; a duplicate is harmless
        ready = t.deliver;
        return true;
      case WireFault::kDrop:
        counters_.wire_drops.bump();
        break;
      case WireFault::kCorrupt:
        // A damaged control frame is CRC-rejected like any data frame.
        counters_.wire_corruptions.bump();
        break;
    }
    counters_.retransmits.bump();
    ready = t.local_done + rp.backoff_ns(attempt, leg_key);
  }
  return false;
}

bool Nic::try_recover(Rank peer) {
  if (peer >= health_.size() || peer == rank_) return false;
  if (!health_.down(peer)) return health_.usable(peer);
  counters_.recovery_probes.bump();
  if (!health_.begin_probe(peer)) return false;  // another prober owns it

  std::uint64_t ready = clock_.now();
  if (auto up = faults_.peek_link_down_until(peer, ready)) {
    if (*up == kLinkDownForever || *up - ready > cfg_.probe_stall_ns) {
      health_.force_down(peer);  // unreachable beyond the probe budget
      return false;
    }
    // Stall (in virtual time) until the scripted window reopens.
    counters_.link_down_stalls.bump();
    ready = *up;
  }
  if (!health_.mark_recovering(peer)) {  // a force_down raced the probe
    health_.force_down(peer);
    return false;
  }

  // Three-way fence over the (possibly still lossy) wire:
  //   RECONNECT(epoch+1)            — propose the new incarnation;
  //   ACCEPT(epoch+1, rx-frontier)  — the peer echoes it with its receive
  //                                   frontier, agreeing on what the old
  //                                   epoch delivered;
  //   RESUME                        — commit: everything older is fenced.
  const std::uint64_t fence_start = ready;
  for (int leg = 0; leg < 3; ++leg) {
    if (!fence_leg(peer, ready)) {
      health_.force_down(peer);
      return false;
    }
  }

  Nic& target = fabric_.nic(peer);
  RxFrameState& rx = target.rx_frames_[rank_];
  const std::uint32_t new_epoch =
      std::max(health_.epoch(peer),
               rx.epoch.load(std::memory_order_acquire)) +
      1;
  // Discard the dead connection's stream state: go-back-N restarts at the
  // new epoch's zero and the dup-suppression/atomic-result cache forgets
  // the old incarnation. We are the designated writer of our slot in the
  // peer's rx table, so this stays single-writer.
  tx_seq_[peer] = 0;
  stream_done_[peer] = ready;
  // relaxed-ok: single-writer stream state (see deliver_frame); the epoch
  // release-store below publishes the reset.
  rx.last_seq.store(0, std::memory_order_relaxed);
  rx.last_result.store(0, std::memory_order_relaxed);
  rx.epoch.store(new_epoch, std::memory_order_release);
  clock_.advance_to(ready);
  if (!health_.complete_recovery(peer, new_epoch)) {
    health_.force_down(peer);  // a concurrent kill aborted the fence
    return false;
  }
  counters_.recoveries.bump();
  PHOTON_TELEM_HOOK({
    telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::process();
    if (reg.enabled())
      reg.histogram("resilience.fence_rtts").record(ready - fence_start);
  });
  return true;
}

bool Nic::peer_unusable(Rank dst) {
  if (!peer_down(dst)) return false;
  if (cfg_.auto_recover && try_recover(dst)) return false;
  counters_.peer_unreachable.bump();
  return true;
}

// ---- one-sided --------------------------------------------------------------

Status Nic::put_common(Rank dst, LocalRef src, bool is_inline, RemoteRef dst_ref,
                       std::uint64_t imm, std::uint64_t wr_id, bool signaled,
                       bool with_imm, bool chained) {
  if (dst >= fabric_.size()) return Status::BadArgument;
  const std::size_t len = src.len;
  const void* payload = src.addr;

  // Local (synchronous) validation.
  if (is_inline) {
    if (len > cfg_.max_inline) return Status::BadArgument;
    if (len > 0 && payload == nullptr) return Status::BadArgument;
  } else if (len > 0) {
    auto mr = registry_.check_local(src.addr, len, src.lkey, kLocalRead);
    if (!mr.ok()) {
      counters_.post_errors.bump();
      return mr.status();
    }
  }

  if (peer_unusable(dst)) return Status::PeerUnreachable;

  if (!acquire_slot(dst)) {
    counters_.post_errors.bump();
    return Status::QueueFull;
  }

  const OpCode op = with_imm ? OpCode::PutImm : OpCode::Put;
  if (auto fault = faults_.maybe_fail(op, dst)) {
    counters_.faults_injected.bump();
    complete_local({wr_id, op, *fault, dst, imm, static_cast<std::uint32_t>(len),
                    clock_.now(), 0});
    return Status::Ok;
  }

  const std::uint64_t ready = charge_or_reuse_overhead(chained);
  Nic& target = fabric_.nic(dst);

  // Remote validation ("on the wire" — failures become error completions).
  // A deterministic NACK: retransmission cannot help, so it is checked once,
  // outside the reliable-delivery loop.
  if (len > 0) {
    auto mr = target.registry_.check_remote(dst_ref.addr, len, dst_ref.rkey,
                                            kRemoteWrite);
    if (!mr.ok()) {
      const WireModel::Times t = fabric_.wire().transfer(rank_, dst, ready, len);
      complete_local({wr_id, op, mr.status(), dst, imm,
                      static_cast<std::uint32_t>(len), t.local_done, 0});
      return Status::Ok;
    }
  }

  const std::uint32_t ep = health_.epoch(dst);
  const WireTx tx = transmit(
      op, dst, ready, payload, len, /*idempotent=*/false,
      [&](std::uint64_t r) {
        return fabric_.wire().transfer(rank_, dst, r, len);
      },
      [&](const WireModel::Times& t) -> std::uint64_t {
        if (len > 0)
          copy_to_target(reinterpret_cast<void*>(dst_ref.addr), payload, len);
        target.counters_.from(rank_).bytes_in.bump(len);
        if (with_imm) {
          target.recv_cq_.push({0, OpCode::PutImm, Status::Ok, rank_, imm,
                                static_cast<std::uint32_t>(len), t.deliver, 0,
                                ep});
        }
        return 0;
      });
  if (tx.status != Status::Ok) {
    complete_local({wr_id, op, tx.status, dst, imm,
                    static_cast<std::uint32_t>(len), tx.times.local_done, 0});
    return Status::Ok;
  }

  counters_.puts.bump();
  counters_.from(rank_).bytes_out.bump(len);

  if (signaled) {
    complete_local({wr_id, op, Status::Ok, dst, imm,
                    static_cast<std::uint32_t>(len), tx.times.local_done, 0});
  } else {
    release_slot(dst);
  }
  return Status::Ok;
}

Status Nic::post_put(Rank dst, LocalRef src, RemoteRef dst_ref,
                     std::uint64_t wr_id, bool signaled) {
  return put_common(dst, src, false, dst_ref, 0, wr_id, signaled, false, false);
}

Status Nic::post_put_imm(Rank dst, LocalRef src, RemoteRef dst_ref,
                         std::uint64_t imm, std::uint64_t wr_id, bool signaled) {
  return put_common(dst, src, false, dst_ref, imm, wr_id, signaled, true, false);
}

Status Nic::post_put_inline(Rank dst, const void* data, std::size_t len,
                            RemoteRef dst_ref, std::uint64_t imm,
                            std::uint64_t wr_id, bool signaled, bool with_imm,
                            bool chained) {
  LocalRef src;
  src.addr = data;
  src.len = len;
  return put_common(dst, src, true, dst_ref, imm, wr_id, signaled, with_imm,
                    chained);
}

Status Nic::post_get(Rank target_rank, LocalMutRef dst, RemoteRef src_ref,
                     std::uint64_t wr_id) {
  if (target_rank >= fabric_.size()) return Status::BadArgument;
  if (dst.len == 0) return Status::BadArgument;
  auto local = registry_.check_local(dst.addr, dst.len, dst.lkey, kLocalWrite);
  if (!local.ok()) {
    counters_.post_errors.bump();
    return local.status();
  }
  if (peer_unusable(target_rank)) return Status::PeerUnreachable;
  if (!acquire_slot(target_rank)) {
    counters_.post_errors.bump();
    return Status::QueueFull;
  }
  if (auto fault = faults_.maybe_fail(OpCode::Get, target_rank)) {
    counters_.faults_injected.bump();
    complete_local({wr_id, OpCode::Get, *fault, target_rank, 0,
                    static_cast<std::uint32_t>(dst.len), clock_.now(), 0});
    return Status::Ok;
  }

  const std::uint64_t ready = charge_post_overhead();
  Nic& target = fabric_.nic(target_rank);
  auto mr = target.registry_.check_remote(src_ref.addr, dst.len, src_ref.rkey,
                                          kRemoteRead);
  if (!mr.ok()) {
    const WireModel::Times t =
        fabric_.wire().get(rank_, target_rank, ready, dst.len);
    complete_local({wr_id, OpCode::Get, mr.status(), target_rank, 0,
                    static_cast<std::uint32_t>(dst.len), t.local_done, 0});
    return Status::Ok;
  }
  // Reads are idempotent at the transport level: a retransmitted get simply
  // re-executes at the target and returns the data as of that attempt. The
  // CRC covers the response payload.
  const WireTx tx = transmit(
      OpCode::Get, target_rank, ready,
      reinterpret_cast<const void*>(src_ref.addr), dst.len,
      /*idempotent=*/true,
      [&](std::uint64_t r) {
        return fabric_.wire().get(rank_, target_rank, r, dst.len);
      },
      [&](const WireModel::Times&) -> std::uint64_t {
        copy_from_target(dst.addr, reinterpret_cast<const void*>(src_ref.addr),
                         dst.len);
        target.counters_.from(rank_).bytes_out.bump(dst.len);
        return 0;
      });
  if (tx.status != Status::Ok) {
    complete_local({wr_id, OpCode::Get, tx.status, target_rank, 0,
                    static_cast<std::uint32_t>(dst.len), tx.times.local_done,
                    0});
    return Status::Ok;
  }
  counters_.gets.bump();
  counters_.from(rank_).bytes_in.bump(dst.len);
  complete_local({wr_id, OpCode::Get, Status::Ok, target_rank, 0,
                  static_cast<std::uint32_t>(dst.len), tx.times.local_done, 0});
  return Status::Ok;
}

Status Nic::post_fetch_add(Rank target_rank, RemoteRef ref64, std::uint64_t add,
                           std::uint64_t wr_id) {
  if (target_rank >= fabric_.size()) return Status::BadArgument;
  if (peer_unusable(target_rank)) return Status::PeerUnreachable;
  if (!acquire_slot(target_rank)) {
    counters_.post_errors.bump();
    return Status::QueueFull;
  }
  if (auto fault = faults_.maybe_fail(OpCode::FetchAdd, target_rank)) {
    counters_.faults_injected.bump();
    complete_local({wr_id, OpCode::FetchAdd, *fault, target_rank, 0, 8,
                    clock_.now(), 0});
    return Status::Ok;
  }
  const std::uint64_t ready = charge_post_overhead();
  Nic& target = fabric_.nic(target_rank);
  auto mr = target.registry_.check_remote(ref64.addr, 8, ref64.rkey,
                                          kRemoteAtomic);
  Status st = mr.ok() ? Status::Ok : mr.status();
  if (st == Status::Ok && (ref64.addr & 7u) != 0) st = Status::Misaligned;
  if (st != Status::Ok) {
    const WireModel::Times t =
        fabric_.wire().atomic_op(rank_, target_rank, ready);
    complete_local({wr_id, OpCode::FetchAdd, st, target_rank, 0, 8,
                    t.local_done, 0});
    return Status::Ok;
  }
  // Atomics are NOT idempotent: a retransmitted frame must replay the cached
  // result instead of re-executing (see deliver_frame).
  const WireTx tx = transmit(
      OpCode::FetchAdd, target_rank, ready, &add, sizeof(add),
      /*idempotent=*/false,
      [&](std::uint64_t r) {
        return fabric_.wire().atomic_op(rank_, target_rank, r);
      },
      [&](const WireModel::Times&) -> std::uint64_t {
        counters_.atomics.bump();
        return std::atomic_ref<std::uint64_t>(
                   *reinterpret_cast<std::uint64_t*>(ref64.addr))
            .fetch_add(add, std::memory_order_acq_rel);
      });
  complete_local({wr_id, OpCode::FetchAdd, tx.status, target_rank, 0, 8,
                  tx.times.local_done, tx.status == Status::Ok ? tx.result : 0});
  return Status::Ok;
}

Status Nic::post_compare_swap(Rank target_rank, RemoteRef ref64,
                              std::uint64_t expected, std::uint64_t desired,
                              std::uint64_t wr_id) {
  if (target_rank >= fabric_.size()) return Status::BadArgument;
  if (peer_unusable(target_rank)) return Status::PeerUnreachable;
  if (!acquire_slot(target_rank)) {
    counters_.post_errors.bump();
    return Status::QueueFull;
  }
  if (auto fault = faults_.maybe_fail(OpCode::CompareSwap, target_rank)) {
    counters_.faults_injected.bump();
    complete_local({wr_id, OpCode::CompareSwap, *fault, target_rank, 0, 8,
                    clock_.now(), 0});
    return Status::Ok;
  }
  const std::uint64_t ready = charge_post_overhead();
  Nic& target = fabric_.nic(target_rank);
  auto mr = target.registry_.check_remote(ref64.addr, 8, ref64.rkey,
                                          kRemoteAtomic);
  Status st = mr.ok() ? Status::Ok : mr.status();
  if (st == Status::Ok && (ref64.addr & 7u) != 0) st = Status::Misaligned;
  if (st != Status::Ok) {
    const WireModel::Times t =
        fabric_.wire().atomic_op(rank_, target_rank, ready);
    complete_local({wr_id, OpCode::CompareSwap, st, target_rank, 0, 8,
                    t.local_done, expected});
    return Status::Ok;
  }
  const std::uint64_t operands[2] = {expected, desired};
  const WireTx tx = transmit(
      OpCode::CompareSwap, target_rank, ready, operands, sizeof(operands),
      /*idempotent=*/false,
      [&](std::uint64_t r) {
        return fabric_.wire().atomic_op(rank_, target_rank, r);
      },
      [&](const WireModel::Times&) -> std::uint64_t {
        std::atomic_ref<std::uint64_t> cell(
            *reinterpret_cast<std::uint64_t*>(ref64.addr));
        // Report the value observed regardless of CAS success, as verbs does.
        std::uint64_t exp = expected;
        cell.compare_exchange_strong(exp, desired, std::memory_order_acq_rel,
                                     std::memory_order_acquire);
        counters_.atomics.bump();
        return exp;
      });
  complete_local({wr_id, OpCode::CompareSwap, tx.status, target_rank, 0, 8,
                  tx.times.local_done,
                  tx.status == Status::Ok ? tx.result : expected});
  return Status::Ok;
}

Status Nic::post_swap(Rank target_rank, RemoteRef ref64, std::uint64_t value,
                      std::uint64_t wr_id) {
  if (target_rank >= fabric_.size()) return Status::BadArgument;
  if (peer_unusable(target_rank)) return Status::PeerUnreachable;
  if (!acquire_slot(target_rank)) {
    counters_.post_errors.bump();
    return Status::QueueFull;
  }
  if (auto fault = faults_.maybe_fail(OpCode::Swap, target_rank)) {
    counters_.faults_injected.bump();
    complete_local({wr_id, OpCode::Swap, *fault, target_rank, 0, 8,
                    clock_.now(), 0});
    return Status::Ok;
  }
  const std::uint64_t ready = charge_post_overhead();
  Nic& target = fabric_.nic(target_rank);
  auto mr = target.registry_.check_remote(ref64.addr, 8, ref64.rkey,
                                          kRemoteAtomic);
  Status st = mr.ok() ? Status::Ok : mr.status();
  if (st == Status::Ok && (ref64.addr & 7u) != 0) st = Status::Misaligned;
  if (st != Status::Ok) {
    const WireModel::Times t =
        fabric_.wire().atomic_op(rank_, target_rank, ready);
    complete_local({wr_id, OpCode::Swap, st, target_rank, 0, 8,
                    t.local_done, 0});
    return Status::Ok;
  }
  // Like FetchAdd: not idempotent, so the retransmit path must replay the
  // cached first-execution result (see deliver_frame).
  const WireTx tx = transmit(
      OpCode::Swap, target_rank, ready, &value, sizeof(value),
      /*idempotent=*/false,
      [&](std::uint64_t r) {
        return fabric_.wire().atomic_op(rank_, target_rank, r);
      },
      [&](const WireModel::Times&) -> std::uint64_t {
        counters_.atomics.bump();
        return std::atomic_ref<std::uint64_t>(
                   *reinterpret_cast<std::uint64_t*>(ref64.addr))
            .exchange(value, std::memory_order_acq_rel);
      });
  complete_local({wr_id, OpCode::Swap, tx.status, target_rank, 0, 8,
                  tx.times.local_done, tx.status == Status::Ok ? tx.result : 0});
  return Status::Ok;
}

// ---- two-sided ---------------------------------------------------------------

Status Nic::post_send(Rank dst, LocalRef src, std::uint64_t imm,
                      std::uint64_t wr_id, bool signaled) {
  if (dst >= fabric_.size()) return Status::BadArgument;
  if (src.len > 0) {
    auto mr = registry_.check_local(src.addr, src.len, src.lkey, kLocalRead);
    if (!mr.ok()) {
      counters_.post_errors.bump();
      return mr.status();
    }
  }
  if (peer_unusable(dst)) return Status::PeerUnreachable;
  if (!acquire_slot(dst)) {
    counters_.post_errors.bump();
    return Status::QueueFull;
  }
  if (auto fault = faults_.maybe_fail(OpCode::Send, dst)) {
    counters_.faults_injected.bump();
    complete_local({wr_id, OpCode::Send, *fault, dst, imm,
                    static_cast<std::uint32_t>(src.len), clock_.now(), 0});
    return Status::Ok;
  }
  const std::uint64_t ready = charge_post_overhead();
  Nic& target = fabric_.nic(dst);
  const std::uint32_t ep = health_.epoch(dst);
  const WireTx tx = transmit(
      OpCode::Send, dst, ready, src.addr, src.len, /*idempotent=*/false,
      [&](std::uint64_t r) {
        return fabric_.wire().transfer(rank_, dst, r, src.len);
      },
      [&](const WireModel::Times& t) -> std::uint64_t {
        target.accept_send(rank_, src.addr, src.len, imm, t.deliver, ep);
        target.counters_.from(rank_).bytes_in.bump(src.len);
        return 0;
      });
  if (tx.status != Status::Ok) {
    complete_local({wr_id, OpCode::Send, tx.status, dst, imm,
                    static_cast<std::uint32_t>(src.len), tx.times.local_done,
                    0});
    return Status::Ok;
  }
  counters_.sends.bump();
  counters_.from(rank_).bytes_out.bump(src.len);
  if (signaled) {
    complete_local({wr_id, OpCode::Send, Status::Ok, dst, imm,
                    static_cast<std::uint32_t>(src.len), tx.times.local_done,
                    0});
  } else {
    release_slot(dst);
  }
  return Status::Ok;
}

void Nic::accept_send(Rank src, const void* data, std::size_t len,
                      std::uint64_t imm, std::uint64_t deliver_vtime,
                      std::uint32_t epoch) {
  util::LockGuard lock(rx_mutex_);
  if (!posted_recvs_.empty()) {
    PostedRecv r = posted_recvs_.front();
    posted_recvs_.pop_front();
    // Payload first, then the completion: the receiver may consume the
    // buffer the moment the completion is published.
    if (data != nullptr && len > 0)
      copy_to_target(r.buf.addr, data, std::min(len, r.buf.len));
    deliver_recv_completion(r, src, len, imm, deliver_vtime, epoch);
    return;
  }
  if (parked_.size() >= cfg_.max_parked_sends) {
    counters_.rnr_rejected.bump();
    return;  // sender already saw local success; mailbox overflow drops —
             // the middleware's credit scheme must prevent this (tested).
  }
  ParkedSend p;
  p.src = src;
  p.imm = imm;
  p.vtime = deliver_vtime;
  p.epoch = epoch;
  p.data.resize(len);
  if (len > 0) std::memcpy(p.data.data(), data, len);
  parked_.push_back(std::move(p));
  counters_.rnr_buffered.bump();
}

void Nic::deliver_recv_completion(const PostedRecv& r, Rank src, std::size_t len,
                                  std::uint64_t imm, std::uint64_t vtime,
                                  std::uint32_t epoch) {
  Completion c;
  c.wr_id = r.wr_id;
  c.op = OpCode::Recv;
  c.status = len > r.buf.len ? Status::Truncated : Status::Ok;
  c.peer = src;
  c.imm = imm;
  c.byte_len = static_cast<std::uint32_t>(std::min(len, r.buf.len));
  c.vtime = std::max(vtime, r.posted_vtime);
  c.epoch = epoch;
  counters_.recvs_matched.bump();
  recv_cq_.push(c);
}

Status Nic::post_recv(LocalMutRef buf, std::uint64_t wr_id) {
  // Posting a receive WQE costs the same CPU overhead as any other post.
  clock_.add(fabric_.wire().send_overhead());
  if (buf.len > 0) {
    auto mr = registry_.check_local(buf.addr, buf.len, buf.lkey, kLocalWrite);
    if (!mr.ok()) {
      counters_.post_errors.bump();
      return mr.status();
    }
  }
  util::LockGuard lock(rx_mutex_);
  while (!parked_.empty()) {
    ParkedSend p = std::move(parked_.front());
    parked_.pop_front();
    // A send parked before its sender's connection was fenced belongs to
    // the dead epoch: discard it rather than match it against a new recv.
    if (p.epoch < rx_frames_[p.src].epoch.load(std::memory_order_acquire)) {
      counters_.stale_epoch_drops.bump();
      continue;
    }
    if (!p.data.empty())
      copy_to_target(buf.addr, p.data.data(), std::min(p.data.size(), buf.len));
    PostedRecv r{buf, wr_id, clock_.now()};
    deliver_recv_completion(r, p.src, p.data.size(), p.imm,
                            std::max(p.vtime, clock_.now()), p.epoch);
    return Status::Ok;
  }
  posted_recvs_.push_back({buf, wr_id, clock_.now()});
  return Status::Ok;
}

// ---- completion handling -------------------------------------------------------

Status Nic::consume(CompletionQueue& cq, Completion& out, ConsumeMode mode) {
  for (;;) {
    Status st = Status::NotFound;
    switch (mode) {
      case ConsumeMode::kReady:
        st = cq.poll_ready(out, clock_.now());
        break;
      case ConsumeMode::kJump:
        st = cq.poll_min(out);
        break;
    }
    if (st != Status::Ok) return st;
    if (&cq == &recv_cq_ && stale_epoch(out)) {
      // A remote event generated before the peer's connection was fenced:
      // the new epoch must never observe it. Counted, never delivered —
      // except Recv completions, handed up so the bounce slot is reposted.
      counters_.stale_epoch_drops.bump();
      if (out.op != OpCode::Recv) continue;
    }
    clock_.advance_to(out.vtime);  // no-op for kReady
    clock_.add(fabric_.wire().recv_overhead());
    counters_.completions_polled.bump();
    if (&cq == &send_cq_) release_slot(out.peer);
    return Status::Ok;
  }
}

std::size_t Nic::consume_batch(CompletionQueue& cq, std::span<Completion> out) {
  std::size_t n = 0;
  if (cq.poll_ready_batch(out, n, clock_.now()) != Status::Ok) return 0;
  if (&cq == &recv_cq_) {
    // Fence stale pre-recovery events out of the batch (see consume()).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (stale_epoch(out[i])) {
        counters_.stale_epoch_drops.bump();
        if (out[i].op != OpCode::Recv) continue;
      }
      if (kept != i) out[kept] = out[i];
      ++kept;
    }
    n = kept;
  }
  // Arrived completions have vtime <= now, so the advance_to of the single
  // path is a no-op here; slot release and counters are order-insensitive
  // and applied up front. The clock charge stays with the caller (see
  // charge_consume) to keep per-completion interleaving identical.
  counters_.completions_polled.bump(n);
  if (&cq == &send_cq_) {
    for (std::size_t i = 0; i < n; ++i) release_slot(out[i].peer);
  }
  return n;
}

void Nic::charge_consume() { clock_.add(fabric_.wire().recv_overhead()); }

std::size_t Nic::poll_send_batch(std::span<Completion> out) {
  return consume_batch(send_cq_, out);
}
std::size_t Nic::poll_recv_batch(std::span<Completion> out) {
  return consume_batch(recv_cq_, out);
}

Status Nic::poll_send(Completion& out) {
  return consume(send_cq_, out, ConsumeMode::kReady);
}
Status Nic::poll_recv(Completion& out) {
  return consume(recv_cq_, out, ConsumeMode::kReady);
}
Status Nic::jump_send(Completion& out) {
  return consume(send_cq_, out, ConsumeMode::kJump);
}
Status Nic::jump_recv(Completion& out) {
  return consume(recv_cq_, out, ConsumeMode::kJump);
}
Status Nic::wait_send(Completion& out, std::uint64_t timeout_ns) {
  // jump_send already takes the earliest pending completion, so there is
  // nothing further to jump to between polls.
  return util::wait_until(
             timeout_ns,
             [&]() -> std::optional<Status> {
               const Status st = jump_send(out);
               if (st == Status::NotFound) return std::nullopt;
               return st;
             },
             [] { return false; })
      .value_or(Status::NotFound);
}

std::size_t Nic::in_flight(Rank peer) const {
  // relaxed-ok: introspection read of the admission counter.
  return in_flight_[peer / InFlightLine::kPeers]
      .peer[peer % InFlightLine::kPeers]
      .load(std::memory_order_relaxed);
}

std::size_t Nic::posted_recvs() const {
  util::LockGuard lock(rx_mutex_);
  return posted_recvs_.size();
}

std::size_t Nic::parked_sends() const {
  util::LockGuard lock(rx_mutex_);
  return parked_.size();
}

}  // namespace photon::fabric
