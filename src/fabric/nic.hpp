// Simulated RDMA NIC: one per rank.
//
// Semantics follow a verbs RC endpoint with an SRQ-style shared receive
// queue plus a uGNI-SMSG-style bounded mailbox for sends that arrive before
// a receive is posted:
//   * one-sided put/get/atomics validate the target's rkey, bounds, and
//     access rights; failures surface as error completions (the failure is
//     discovered "on the wire"), while *local* validation failures are
//     returned synchronously from post and produce no completion;
//   * per-peer in-flight caps model send-queue depth (posts return
//     QueueFull until completions are polled);
//   * puts of exactly 8 naturally-aligned bytes are performed with a
//     release store and may be observed by polling memory with an acquire
//     load (the collectives layer relies on this, as real RMA barriers do);
//     gets of 8 or 16 bytes from an 8-aligned address are read word by word
//     with acquire loads in ascending address order, so a two-word get that
//     sees a published first word also sees the stores that preceded its
//     publication in the second (the DDS hash slot's tag/value read relies
//     on this); larger transfers are plain memcpy whose visibility is
//     guaranteed only through completion-queue consumption;
//   * posting charges the LogGP send overhead `o` to the rank's virtual
//     clock; consuming a completion charges the receive overhead and
//     advances the clock to the completion's delivery timestamp;
//   * every post that reaches the wire goes through a reliable-delivery
//     loop (transmit): when in-flight faults are armed, frames carry a
//     per-(src,dst) sequence number and a CRC32C over the payload; drops,
//     corrupted frames (CRC-rejected at the target), and scripted link-down
//     windows are masked by retransmission with exponential backoff charged
//     in virtual time, duplicates from lost acks are suppressed by the
//     receiver's sequence/atomic-result cache, and only retry-budget or
//     deadline exhaustion surfaces — as an error completion with
//     Status::Timeout. Repeated exhaustion (or Fabric::kill) drives the
//     peer-health state machine Up -> Suspect -> Down; posts toward a Down
//     peer fail fast with Status::PeerUnreachable, returned synchronously;
//   * Down is no longer terminal: try_recover() runs an epoch-fenced
//     reconnect (RECONNECT -> ACCEPT -> RESUME) once the link reopens.
//     Every frame and completion is stamped with the per-peer epoch; after
//     a fence both sides discard anything from an older epoch (counted as
//     stale_epoch_drops, never delivered) and the go-back-N sequence state
//     restarts at the new epoch's zero. Ops that fast-failed stay failed —
//     recovery is at-most-once-preserving — but new posts work again.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "fabric/completion_queue.hpp"
#include "fabric/counters.hpp"
#include "fabric/fault.hpp"
#include "fabric/registry.hpp"
#include "fabric/types.hpp"
#include "fabric/vclock.hpp"
#include "fabric/wire_model.hpp"
#include "fabric/work.hpp"
#include "resilience/peer_health.hpp"
#include "resilience/retry.hpp"
#include "util/mutex.hpp"

namespace photon::check {
class Checker;
}  // namespace photon::check

namespace photon::fabric {

class Fabric;

struct NicConfig {
  std::size_t cq_depth = 1u << 16;
  std::size_t sq_depth = 1024;           ///< per-peer outstanding completions
  std::size_t max_parked_sends = 4096;   ///< unexpected-send mailbox slots
  std::size_t max_inline = 256;          ///< max bytes for inline posts
  resilience::RetryPolicy retry{};       ///< reliable-delivery schedule
  resilience::PeerHealthConfig health{}; ///< Up/Suspect/Down thresholds
  /// Upper layers (Photon, msg::Engine) probe a Down peer with
  /// try_recover() before fast-failing a new post. Off by default: Down
  /// stays latched unless somebody explicitly probes (Communicator::rejoin,
  /// tests), preserving the PR-3 fail-fast contract.
  bool auto_recover = false;
  /// A probe may stall (in virtual time) up to this long waiting for a
  /// scripted link window to reopen; windows further out — and permanent
  /// cuts — abort the probe straight back to Down.
  std::uint64_t probe_stall_ns = 250'000'000;
  /// DELIBERATE BUG FIXTURE (test hook; never set outside chaos/self-tests):
  /// disables the receiver's duplicate-suppression cache for atomic ops
  /// (FetchAdd/CompareSwap/Swap) on this NIC, so an ack-dropped atomic is
  /// re-applied on retransmission. Exists to prove the chaos oracle stack
  /// catches a real protocol bug; the counter-conservation oracle flags the
  /// double-applied add deterministically.
  bool chaos_fixture_no_atomic_dedup = false;
};

class Nic {
 public:
  Nic(Fabric& fabric, Rank rank, const NicConfig& cfg);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  Rank rank() const noexcept { return rank_; }
  VClock& clock() noexcept { return clock_; }
  MemoryRegistry& registry() noexcept { return registry_; }
  Counters& counters() noexcept { return counters_; }
  const Counters& counters() const noexcept { return counters_; }
  FaultInjector& faults() noexcept { return faults_; }
  const FaultInjector& faults() const noexcept { return faults_; }
  CompletionQueue& send_cq() noexcept { return send_cq_; }
  CompletionQueue& recv_cq() noexcept { return recv_cq_; }
  const NicConfig& config() const noexcept { return cfg_; }
  /// The fabric-wide shadow-state validator (defined in nic.cpp to avoid an
  /// include cycle with fabric.hpp).
  check::Checker& checker() noexcept;

  /// Per-peer health as observed by this NIC (written by reliable delivery
  /// and by Fabric::kill; readable from any thread).
  resilience::PeerHealth& health() noexcept { return health_; }
  const resilience::PeerHealth& health() const noexcept { return health_; }
  /// True while `peer` is not usable (Down, or mid-probe/recovery); posts
  /// toward it return Status::PeerUnreachable synchronously.
  bool peer_down(Rank peer) const noexcept {
    return peer < health_.size() && !health_.usable(peer);
  }

  /// Epoch-fenced reconnect of this NIC's stream toward a Down `peer`:
  /// probe the link, stall (bounded by NicConfig::probe_stall_ns, charged
  /// in virtual time) until a scripted window reopens, then run the
  /// three-way fence — RECONNECT(epoch+1) -> ACCEPT(epoch+1, rx-frontier)
  /// -> RESUME — over the (possibly still lossy) wire. On success both
  /// sides agree on the new epoch, the go-back-N sequence state restarts
  /// at zero, the receiver's dup-suppression/atomic-result cache is
  /// discarded, and the peer returns to Up (bumping up_generation).
  /// Returns true when the peer is usable afterwards. Must be called from
  /// the owning rank's thread (it advances the rank's virtual clock and
  /// rewrites owner-thread stream state). A permanent cut — or a window
  /// beyond the stall budget — aborts back to Down without fencing.
  bool try_recover(Rank peer);

  /// Current epoch of this NIC's transmit stream toward `dst`.
  std::uint32_t tx_epoch(Rank dst) const noexcept {
    return dst < health_.size() ? health_.epoch(dst) : 0;
  }
  /// Epoch this NIC expects on frames arriving from `src` (the receive
  /// side of src's transmit stream). Completions from src stamped with an
  /// older epoch are stale.
  std::uint32_t rx_epoch(Rank src) const noexcept {
    return rx_frames_[src].epoch.load(std::memory_order_acquire);
  }

  // ---- one-sided ----------------------------------------------------------
  Status post_put(Rank dst, LocalRef src, RemoteRef dst_ref, std::uint64_t wr_id,
                  bool signaled = true);
  Status post_put_imm(Rank dst, LocalRef src, RemoteRef dst_ref,
                      std::uint64_t imm, std::uint64_t wr_id,
                      bool signaled = true);
  /// Inline put: data is copied out of the caller's buffer at post time, so
  /// no lkey is needed and the buffer is immediately reusable (verbs
  /// IBV_SEND_INLINE). Length capped at NicConfig::max_inline.
  /// `chained`: this WR was chained onto the previous post in one doorbell
  /// (verbs WR lists), so the CPU posting overhead `o` is not re-charged.
  Status post_put_inline(Rank dst, const void* data, std::size_t len,
                         RemoteRef dst_ref, std::uint64_t imm,
                         std::uint64_t wr_id, bool signaled, bool with_imm,
                         bool chained = false);
  Status post_get(Rank target, LocalMutRef dst, RemoteRef src_ref,
                  std::uint64_t wr_id);
  Status post_fetch_add(Rank target, RemoteRef ref64, std::uint64_t add,
                        std::uint64_t wr_id);
  Status post_compare_swap(Rank target, RemoteRef ref64, std::uint64_t expected,
                           std::uint64_t desired, std::uint64_t wr_id);
  /// Remote unconditional 64-bit exchange (uGNI AMO swap; verbs extended
  /// atomics). Completion::result carries the value the cell held before.
  Status post_swap(Rank target, RemoteRef ref64, std::uint64_t value,
                   std::uint64_t wr_id);

  // ---- two-sided ----------------------------------------------------------
  Status post_send(Rank dst, LocalRef src, std::uint64_t imm,
                   std::uint64_t wr_id, bool signaled = true);
  Status post_recv(LocalMutRef buf, std::uint64_t wr_id);

  // ---- completion handling -------------------------------------------------
  /// Non-blocking poll: returns only completions that have *arrived* in
  /// virtual time (vtime <= clock). Polling never advances the clock past
  /// the present (beyond the per-completion consume overhead).
  Status poll_send(Completion& out);
  // test-only-ok: NIC tests poll one completion; Photon drains batches.
  Status poll_recv(Completion& out);
  /// Batched non-blocking poll: drain up to out.size() arrived completions
  /// from the CQ in one call (ascending virtual arrival order).
  /// Send-queue slots are released and poll counters bumped for every
  /// drained completion before returning; the per-completion consume
  /// (receive) overhead is NOT charged here — the caller must invoke
  /// charge_consume() once per completion, at the point it handles it, so
  /// the virtual clock interleaves exactly as on the single-poll path.
  /// Returns the number drained (0 when nothing arrived or after CQ
  /// overflow, matching poll_*'s NotFound/QueueFull).
  std::size_t poll_send_batch(std::span<Completion> out);
  std::size_t poll_recv_batch(std::span<Completion> out);
  /// Charge one completion's consume overhead to this rank's clock; pair
  /// with each completion obtained from poll_{send,recv}_batch.
  void charge_consume();
  /// Explicit idle-wait: pop the earliest pending completion even if its
  /// arrival is in the virtual future, jumping the clock to it
  /// (LogGOPSim semantics for a blocked rank). Non-blocking in real time.
  Status jump_send(Completion& out);
  Status jump_recv(Completion& out);
  /// Blocking variant: util::wait_until over jump_send (NotFound once
  /// `timeout_ns` of wall time passes with nothing pending).
  Status wait_send(Completion& out, std::uint64_t timeout_ns);

  std::size_t in_flight(Rank peer) const;
  // test-only-ok: two-sided matching oracle for NIC tests.
  std::size_t posted_recvs() const;
  // test-only-ok: two-sided matching oracle for NIC tests.
  std::size_t parked_sends() const;

  /// Forget the per-stream delivery high-water marks kept by reliable
  /// delivery; pairs with a fabric-wide virtual-time reset.
  void reset_stream_time() noexcept {
    for (auto& s : stream_done_) s = 0;
  }

 private:
  friend class Fabric;

  struct PostedRecv {
    LocalMutRef buf;
    std::uint64_t wr_id;
    std::uint64_t posted_vtime;
  };
  struct ParkedSend {
    Rank src = 0;
    std::vector<std::byte> data;
    std::uint64_t imm = 0;
    std::uint64_t vtime = 0;
    std::uint32_t epoch = 0;  ///< sender's stream epoch when parked
  };

  /// Common body for put variants. `is_inline` skips lkey validation (the
  /// payload is consumed at post time).
  Status put_common(Rank dst, LocalRef src, bool is_inline, RemoteRef dst_ref,
                    std::uint64_t imm, std::uint64_t wr_id, bool signaled,
                    bool with_imm, bool chained);

  std::uint64_t charge_or_reuse_overhead(bool chained);

  /// Result of one reliable wire transmission.
  struct WireTx {
    Status status = Status::Ok;   ///< Ok, or Timeout on budget exhaustion
    WireModel::Times times{};     ///< final-attempt timestamps (initiator view)
    std::uint64_t result = 0;     ///< atomic ops: value fetched at the target
    std::uint32_t attempts = 1;
  };

  /// Reliable delivery of one wire op: runs the retransmit state machine
  /// against the armed in-flight faults. `times_fn(ready)` charges wire
  /// resources for one transmission attempt and returns its LogGP times;
  /// `deliver(times)` applies the frame at the target (payload copy, remote
  /// event, atomic execution) and returns the op's result value. The frame
  /// is applied at most once unless `idempotent` (reads re-execute, verbs RC
  /// style); duplicates are suppressed by the receiver's sequence cache.
  /// `payload`/`len` feed the frame CRC that rejects corrupted deliveries.
  /// When no wire faults are armed this is a single attempt with zero
  /// bookkeeping beyond the sequence-counter bump.
  template <typename TimesFn, typename DeliverFn>
  WireTx transmit(OpCode op, Rank dst, std::uint64_t ready, const void* payload,
                  std::size_t len, bool idempotent, TimesFn&& times_fn,
                  DeliverFn&& deliver);

  /// Receiver side of transmit: consult the per-source sequence cache, apply
  /// the frame if it is new, and return the (possibly cached) result.
  template <typename DeliverFn>
  std::uint64_t deliver_frame(OpCode op, Nic& target, std::uint64_t seq,
                              const WireModel::Times& t, bool idempotent,
                              bool reliable, DeliverFn&& deliver);

  /// Deliver a send's payload to this NIC (runs on the *sender's* thread).
  void accept_send(Rank src, const void* data, std::size_t len,
                   std::uint64_t imm, std::uint64_t deliver_vtime,
                   std::uint32_t epoch);

  /// One leg of the fence handshake: a small control frame toward `dst`,
  /// retried with backoff over the armed wire faults. Advances `ready` to
  /// the leg's delivery time; false when the leg's budget is exhausted.
  bool fence_leg(Rank dst, std::uint64_t& ready);

  /// Post-path gate: false when the peer is usable (possibly after an
  /// auto_recover probe just fenced it back Up); true when the post must
  /// fast-fail with PeerUnreachable (counter already bumped).
  bool peer_unusable(Rank dst);

  /// Write payload into / read it out of validated target memory with the
  /// atomicity rules described in the header comment.
  static void copy_to_target(void* dst, const void* src, std::size_t len);
  static void copy_from_target(void* dst, const void* src, std::size_t len);

  bool acquire_slot(Rank peer);
  void release_slot(Rank peer);
  /// Push to the send CQ, stamping the completion with the current epoch
  /// toward c.peer so stale (pre-fence) completions are identifiable.
  void complete_local(Completion c);
  /// Publish a matched receive on the recv CQ. The payload must already be
  /// in the posted buffer.
  void deliver_recv_completion(const PostedRecv& r, Rank src, std::size_t len,
                               std::uint64_t imm, std::uint64_t vtime,
                               std::uint32_t epoch) REQUIRES(rx_mutex_);
  /// A recv-CQ completion from an epoch older than the peer's current one.
  /// Such frames count as stale_epoch_drops and are never delivered —
  /// except OpCode::Recv (two-sided bounce deliveries), which are counted
  /// but still surfaced so the msg engine can repost the buffer slot (the
  /// engine discards the payload itself).
  bool stale_epoch(const Completion& c) const noexcept {
    return c.peer < rx_frames_.size() &&
           c.epoch < rx_frames_[c.peer].epoch.load(std::memory_order_acquire);
  }

  std::uint64_t charge_post_overhead();
  enum class ConsumeMode { kReady, kJump };
  Status consume(CompletionQueue& cq, Completion& out, ConsumeMode mode);
  std::size_t consume_batch(CompletionQueue& cq, std::span<Completion> out);

  Fabric& fabric_;
  Rank rank_;
  NicConfig cfg_;
  MemoryRegistry registry_;
  VClock clock_;
  CompletionQueue send_cq_;
  CompletionQueue recv_cq_;
  Counters counters_;
  FaultInjector faults_;
  resilience::PeerHealth health_;

  /// Per-destination wire sequence numbers (owner-thread only; bumped on
  /// every post so arming faults mid-run keeps streams monotonic).
  std::vector<std::uint64_t> tx_seq_;
  /// Per-destination delivery high-water mark (owner-thread only). An RC
  /// stream delivers in order, so when retransmission pushes one op's
  /// delivery into the virtual future, every later frame on that stream
  /// queues behind it (go-back-N); without this clamp the receiver's
  /// vtime-ordered CQ would reorder ledger/eager slots across a retransmit.
  std::vector<std::uint64_t> stream_done_;
  /// Per-source receive state: last applied sequence number and the cached
  /// result of the last non-idempotent frame (the responder's atomic-result
  /// cache — a retransmitted FetchAdd/CompareSwap replays its old answer
  /// instead of re-executing). Written by the source rank's thread only;
  /// atomics for cross-thread readability.
  struct RxFrameState {
    std::atomic<std::uint64_t> last_seq{0};
    std::atomic<std::uint64_t> last_result{0};
    /// Epoch expected on frames from this source; bumped by the source's
    /// fence (still source-thread-written only).
    std::atomic<std::uint32_t> epoch{0};
  };
  std::vector<RxFrameState> rx_frames_;
  /// Scratch frame used to materialize in-flight corruption (owner thread).
  std::vector<std::byte> scratch_;

  /// Guards the unexpected-send mailbox; remote rank threads take it when
  /// delivering sends. A leaf: the recv-CQ push made under it is lock-free.
  mutable util::Mutex rx_mutex_;
  std::deque<PostedRecv> posted_recvs_ GUARDED_BY(rx_mutex_);
  std::deque<ParkedSend> parked_ GUARDED_BY(rx_mutex_);

  /// Per-peer send-queue occupancy. Owner-thread only (posts acquire a slot,
  /// send-CQ polls release it), so a plain load + store, no RMW. Whole cache
  /// lines of the NIC's own, so no other NIC's state shares them.
  struct alignas(64) InFlightLine {
    static constexpr std::size_t kPeers = 64 / sizeof(std::atomic<std::uint32_t>);
    std::atomic<std::uint32_t> peer[kPeers];
  };
  std::atomic<std::uint32_t>& in_flight_slot(Rank peer) noexcept {
    return in_flight_[peer / InFlightLine::kPeers].peer[peer % InFlightLine::kPeers];
  }
  std::vector<InFlightLine> in_flight_;
};

}  // namespace photon::fabric
