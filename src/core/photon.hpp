// Photon: RMA middleware with put/get-with-completion, completion ledgers,
// eager rings, and rendezvous buffer-request protocols.
//
// One Photon instance per rank; construction is collective (it allocates and
// registers the per-peer ledgers/rings and exchanges their descriptors over
// the out-of-band bootstrap channel, as the real library does over PMI).
//
// Threading: a Photon object is owned by its rank's thread. All methods are
// non-reentrant; only the underlying fabric is cross-thread.
//
// Core semantics (mirrors the published photon API):
//   * put_with_completion(dst, src, dst_slice, local_id, remote_id)
//       - one-sided write into a peer-published buffer;
//       - `local_id` pops from probe_local() when the source is reusable;
//       - `remote_id` pops from the *target's* probe_event() when the data
//         has landed (delivered via a completion-ledger entry + doorbell).
//   * send_with_completion: like PWC but the payload rides the per-peer
//     eager ring — no target buffer needs to be known; the target's
//     probe_event() yields the payload.
//   * get_with_completion: one-sided read; local_id on completion at the
//     initiator; remote_id notifies the target its buffer was read.
//   * post_{recv,send}_buffer_rq / wait_{send,recv}_rq / post_os_{put,get} /
//     send_fin: the rendezvous protocol for large transfers into/out of
//     caller-owned registered buffers.
//
// Flow control: eager-ring bytes and ledger slots are credit-managed per
// peer. try_* calls return Status::Retry when credits are exhausted; the
// blocking wrappers progress until credits return (credit returns arrive as
// doorbell events carrying virtual timestamps, so stalls are visible in
// virtual time).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/buffer.hpp"
#include "core/config.hpp"
#include "core/events.hpp"
#include "core/wire_format.hpp"
#include "fabric/nic.hpp"
#include "runtime/bootstrap.hpp"
#include "telemetry/hooks.hpp"
#include "telemetry/oplat.hpp"
#include "util/expected.hpp"
#include "util/idle_wait.hpp"
#include "util/op_table.hpp"

namespace photon::check {
class PostGuard;
}  // namespace photon::check

namespace photon::core {

/// Middleware-level statistics (single-threaded; owned by the rank).
struct CoreStats {
  std::uint64_t eager_sent = 0;
  std::uint64_t eager_bytes = 0;
  std::uint64_t direct_puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t signals = 0;
  /// fetch_add/compare_swap/swap/put_u64/get_u64/get_u64x2 (one per call)
  std::uint64_t atomics = 0;
  std::uint64_t pads = 0;
  std::uint64_t credit_returns = 0;
  std::uint64_t credit_stalls = 0;   ///< try_* rejected for ring credits
  std::uint64_t ledger_stalls = 0;   ///< try_* rejected for ledger slots
  std::uint64_t events_delivered = 0;
  std::uint64_t local_completions = 0;
  std::uint64_t adverts_sent = 0;
  std::uint64_t fins_sent = 0;
  std::uint64_t op_errors = 0;
  std::uint64_t shard_naks = 0;  ///< shard-epoch NAK entries received
};

class Photon {
 public:
  static constexpr std::uint64_t kAnyTag = ~std::uint64_t{0};
  static constexpr std::uint64_t kDefaultTimeoutNs = 10'000'000'000ULL;  // 10 s

  /// Collective across all ranks of the fabric.
  Photon(fabric::Nic& nic, runtime::Exchanger& oob, const Config& cfg);
  ~Photon();

  Photon(const Photon&) = delete;
  Photon& operator=(const Photon&) = delete;

  fabric::Rank rank() const noexcept { return nic_.rank(); }
  std::uint32_t size() const noexcept { return nranks_; }
  const Config& config() const noexcept { return cfg_; }
  fabric::Nic& nic() noexcept { return nic_; }
  const CoreStats& stats() const noexcept { return stats_; }
  fabric::VClock& clock() noexcept { return nic_.clock(); }

  // ---- registration --------------------------------------------------------
  util::Result<BufferDescriptor> register_buffer(void* addr, std::size_t len);
  Status unregister_buffer(const BufferDescriptor& d);
  /// Collective: allgather of one descriptor per rank.
  std::vector<BufferDescriptor> exchange_descriptors(const BufferDescriptor& mine);

  // ---- one-sided with completion -------------------------------------------
  Status try_put_with_completion(fabric::Rank dst, LocalSlice src,
                                 RemoteSlice dst_slice,
                                 std::optional<std::uint64_t> local_id,
                                 std::optional<std::uint64_t> remote_id);
  Status try_send_with_completion(fabric::Rank dst,
                                  std::span<const std::byte> payload,
                                  std::optional<std::uint64_t> local_id,
                                  std::uint64_t remote_id);
  Status try_get_with_completion(fabric::Rank src_rank, LocalMutSlice dst,
                                 RemoteSlice src_slice,
                                 std::optional<std::uint64_t> local_id,
                                 std::optional<std::uint64_t> remote_id);
  /// Zero-byte PWC: pure remote doorbell.
  Status try_signal(fabric::Rank dst, std::uint64_t remote_id);
  /// Shard-epoch NAK: tell `dst` that DDS shard `shard` now has ownership
  /// epoch `epoch`. Rides the completion-ledger wire path (same cost as a
  /// signal) but is routed to the receiver's take_shard_nak() queue, never
  /// its probe-event stream. A pure control doorbell: no completion id on
  /// either side.
  Status try_shard_nak(fabric::Rank dst, std::uint32_t shard,
                       std::uint64_t epoch);

  // ---- atomic cells ---------------------------------------------------------
  // 8-byte naturally-aligned remote cells (RemoteSlice with len == 8) inside
  // peer-registered memory. The fetched/prior value arrives on probe_local()
  // in LocalComplete::result. Atomics are dup-suppressed across
  // retransmission by the NIC's atomic-result cache, so each op executes at
  // the target exactly once even under wire loss.
  Status try_fetch_add(fabric::Rank dst, RemoteSlice cell, std::uint64_t add,
                       std::optional<std::uint64_t> local_id);
  Status try_compare_swap(fabric::Rank dst, RemoteSlice cell,
                          std::uint64_t expected, std::uint64_t desired,
                          std::optional<std::uint64_t> local_id);
  Status try_swap(fabric::Rank dst, RemoteSlice cell, std::uint64_t value,
                  std::optional<std::uint64_t> local_id);
  /// 8-byte inline put (release-store at the target; see Nic semantics).
  /// Supports the usual PWC local/remote completion ids.
  Status try_put_u64(fabric::Rank dst, RemoteSlice cell, std::uint64_t value,
                     std::optional<std::uint64_t> local_id,
                     std::optional<std::uint64_t> remote_id);
  /// 8-byte read (acquire-load at the target) landing in an internal slab
  /// pool cell; the value arrives in LocalComplete::result. Retry when the
  /// pool is exhausted (bounded by the pool size of outstanding get_u64s).
  Status try_get_u64(fabric::Rank src_rank, RemoteSlice cell,
                     std::optional<std::uint64_t> local_id);
  /// Two-cell read: `cells` must be 16 bytes at an 8-aligned address (else
  /// BadArgument, nothing posted). One round trip; the target reads the
  /// first cell, then the second (ascending acquire loads), so a first cell
  /// published by release/CAS implies the second cell's earlier stores are
  /// seen. The words arrive in LocalComplete::result / result2; shares the
  /// get_u64 landing pool (Retry when exhausted).
  Status try_get_u64x2(fabric::Rank src_rank, RemoteSlice cells,
                       std::optional<std::uint64_t> local_id);

  /// Blocking atomic-cell wrappers: progress+retry to post, then wait for
  /// the op's own completion (internal local id) and return the fetched /
  /// prior value. Errors surface as the Result's status, not probe_error().
  util::Result<std::uint64_t> fetch_add(fabric::Rank dst, RemoteSlice cell,
                                        std::uint64_t add,
                                        std::uint64_t timeout_ns = kDefaultTimeoutNs);
  util::Result<std::uint64_t> compare_swap(fabric::Rank dst, RemoteSlice cell,
                                           std::uint64_t expected,
                                           std::uint64_t desired,
                                           std::uint64_t timeout_ns = kDefaultTimeoutNs);
  util::Result<std::uint64_t> swap_u64(fabric::Rank dst, RemoteSlice cell,
                                       std::uint64_t value,
                                       std::uint64_t timeout_ns = kDefaultTimeoutNs);
  util::Result<std::uint64_t> get_u64(fabric::Rank src_rank, RemoteSlice cell,
                                      std::uint64_t timeout_ns = kDefaultTimeoutNs);
  util::Result<std::array<std::uint64_t, 2>> get_u64x2(
      fabric::Rank src_rank, RemoteSlice cells,
      std::uint64_t timeout_ns = kDefaultTimeoutNs);
  Status put_u64(fabric::Rank dst, RemoteSlice cell, std::uint64_t value,
                 std::uint64_t timeout_ns = kDefaultTimeoutNs);

  /// Blocking wrappers: progress+retry until posted or `timeout_ns` of wall
  /// time elapses (returns Retry on timeout).
  Status put_with_completion(fabric::Rank dst, LocalSlice src,
                             RemoteSlice dst_slice,
                             std::optional<std::uint64_t> local_id,
                             std::optional<std::uint64_t> remote_id,
                             std::uint64_t timeout_ns = kDefaultTimeoutNs);
  Status send_with_completion(fabric::Rank dst, std::span<const std::byte> payload,
                              std::optional<std::uint64_t> local_id,
                              std::uint64_t remote_id,
                              std::uint64_t timeout_ns = kDefaultTimeoutNs);
  Status get_with_completion(fabric::Rank src_rank, LocalMutSlice dst,
                             RemoteSlice src_slice,
                             std::optional<std::uint64_t> local_id,
                             std::optional<std::uint64_t> remote_id,
                             std::uint64_t timeout_ns = kDefaultTimeoutNs);
  Status signal(fabric::Rank dst, std::uint64_t remote_id,
                std::uint64_t timeout_ns = kDefaultTimeoutNs);
  Status post_shard_nak(fabric::Rank dst, std::uint32_t shard,
                        std::uint64_t epoch,
                        std::uint64_t timeout_ns = kDefaultTimeoutNs);
  /// Next received shard-epoch NAK, if any (drains progress first).
  std::optional<ShardNak> take_shard_nak();

  /// Block until every operation this rank posted toward `dst` has
  /// completed at the fabric level and all deferred protocol work (GWC
  /// notifies) has been issued. Completed local ids are queued for
  /// probe_local() as usual. Retry on wall timeout.
  Status flush(fabric::Rank dst, std::uint64_t timeout_ns = kDefaultTimeoutNs);

  // ---- peer health ----------------------------------------------------------
  /// True once the fabric declared `peer` Down (Fabric::kill or repeated
  /// reliable-delivery timeouts). New operations toward it fail fast with
  /// Status::PeerUnreachable; pending ones resolve promptly instead of
  /// hanging (deadline Timeout for in-flight ops, PeerUnreachable for
  /// protocol state the peer can no longer advance).
  bool peer_down(fabric::Rank peer) const noexcept {
    return nic_.peer_down(peer);
  }
  /// Drain until no fabric op is in flight and no deferred protocol work
  /// remains queued toward any peer. Work toward Down peers is reclaimed,
  /// not waited on, so this returns promptly after a failure. Retry on wall
  /// timeout. Use before teardown when peers may have died.
  Status quiesce(std::uint64_t timeout_ns = kDefaultTimeoutNs);

  // ---- progress & probing ---------------------------------------------------
  /// Drain bounded batches of *arrived* fabric completions into the event
  /// queues (never advances virtual time past the present).
  void progress();
  /// Idle-wait step: consume the earliest pending completion even if its
  /// virtual arrival is in the future, jumping the clock to it. Returns
  /// false when nothing is pending. Use only when the rank has nothing
  /// better to do (wait loops call it automatically).
  bool progress_jump();
  /// Bounded idle wait: util::wait_until over progress_jump (poll, yield
  /// once if rank threads share a CPU, then jump to the earliest pending
  /// virtual event, then back off).
  /// Used by all blocking loops; public so layered waits (collectives,
  /// runtimes) share the discipline.
  template <typename Poll>
  auto wait_for(std::uint64_t budget_ns, Poll&& poll) {
    return util::wait_until(budget_ns, std::forward<Poll>(poll),
                            [this] { return progress_jump(); });
  }
  /// Next initiator-side completion (local ids), if any.
  std::optional<LocalComplete> probe_local();
  /// Next target-side event (remote ids / eager payloads), if any. Keyed
  /// ids (kKeyedEventBit) never surface here; see take_event().
  std::optional<ProbeEvent> probe_event();
  /// Pop the oldest keyed event (kKeyedEventBit) from `peer` with exactly
  /// `id`: a lookup, since delivery files keyed events by (peer, id).
  /// Recovery handshakes pluck a control message this way while residue
  /// addressed to a dead incarnation stays queued for discard_events_from.
  std::optional<ProbeEvent> take_event(fabric::Rank peer, std::uint64_t id);
  /// Discard every queued target-side event (keyed or not) whose sender is
  /// `peer` without delivering it. Used when this rank rejoins after a
  /// simulated kill: deliveries addressed to the dead incarnation
  /// (in-flight collective doorbells, stranded eager payloads) must not
  /// leak into the new one.
  /// The initiators' shadow-state expectations for these ids were already
  /// dropped when they declared us Down, so the discard is reported to the
  /// checker as id loss, not consumption. Events for which `keep` returns
  /// true stay queued (e.g. a rejoin resync racing the purge); a null
  /// `keep` discards everything from the peer. Returns the number discarded.
  std::size_t discard_events_from(
      fabric::Rank peer,
      const std::function<bool(const ProbeEvent&)>& keep = nullptr);
  /// Next asynchronous operation error (fault injection, remote access
  /// violations), if any.
  std::optional<Status> probe_error();
  /// Blocking probes (wall-time bounded; NotFound on timeout).
  Status wait_local(LocalComplete& out, std::uint64_t timeout_ns = kDefaultTimeoutNs);
  Status wait_event(ProbeEvent& out, std::uint64_t timeout_ns = kDefaultTimeoutNs);

  // ---- rendezvous (buffer-request) protocol ---------------------------------
  /// Receiver advertises a registered landing buffer; the returned request
  /// completes when the peer FINs (data is then in place).
  util::Result<RequestId> post_recv_buffer_rq(fabric::Rank peer,
                                              const BufferDescriptor& buf,
                                              std::uint64_t tag);
  /// Sender advertises a registered source buffer for the peer to os_get
  /// from; the request completes on FIN (buffer then reusable).
  util::Result<RequestId> post_send_buffer_rq(fabric::Rank peer,
                                              const BufferDescriptor& buf,
                                              std::uint64_t tag);
  /// Data-sender side: wait for a peer's recv-buffer advertisement.
  util::Result<RendezvousBuffer> wait_send_rq(fabric::Rank peer, std::uint64_t tag,
                                              std::uint64_t timeout_ns = kDefaultTimeoutNs);
  /// Data-receiver side: wait for a peer's send-buffer advertisement.
  util::Result<RendezvousBuffer> wait_recv_rq(fabric::Rank peer, std::uint64_t tag,
                                              std::uint64_t timeout_ns = kDefaultTimeoutNs);
  /// (peer, tag) pairs holding received adverts that no wait_*_rq has taken
  /// yet; a pair is forgotten once its last advert is taken.
  // test-only-ok: oracle for the advert-leak regression test.
  std::size_t pending_advert_tags() const noexcept { return adverts_.size(); }
  /// Write directly into an advertised buffer. Completes locally (test/wait).
  util::Result<RequestId> post_os_put(fabric::Rank peer, LocalSlice src,
                                      const RendezvousBuffer& rb);
  /// Read directly from an advertised buffer. Completes locally (test/wait).
  util::Result<RequestId> post_os_get(fabric::Rank peer, LocalMutSlice dst,
                                      const RendezvousBuffer& rb);
  /// Tell the advertiser the transfer is done (completes their request).
  Status send_fin(fabric::Rank peer, const RendezvousBuffer& rb);

  /// Nonblocking request check; consumes the request when done.
  Status test(RequestId rq, bool& done);
  /// Blocking request wait; consumes the request on success.
  Status wait(RequestId rq, std::uint64_t timeout_ns = kDefaultTimeoutNs);
  /// Wait for any of `rqs` to complete; on success returns its index and
  /// consumes that request (the others stay pending). NotFound on timeout.
  // test-only-ok: the published photon_wait_any call; no bench or example
  // waits on a request set yet.
  util::Result<std::size_t> wait_any(std::span<const RequestId> rqs,
                                     std::uint64_t timeout_ns = kDefaultTimeoutNs);

  // ---- introspection (tests/benches) ----------------------------------------
  std::size_t ring_credits_available(fabric::Rank dst) const;
  std::size_t ledger_slots_available(fabric::Rank dst) const;

 private:
  struct SenderState {
    std::uint64_t ring_head = 0;    ///< cumulative bytes written
    std::uint64_t ledger_head = 0;  ///< cumulative entries written
  };
  struct ReceiverState {
    std::uint64_t ring_tail = 0;      ///< cumulative bytes consumed
    std::uint64_t ring_returned = 0;  ///< credits last written back
    std::uint64_t ledger_tail = 0;
    std::uint64_t ledger_returned = 0;
  };
  struct SlabInfo {
    std::uint64_t addr = 0;
    fabric::MrKey rkey = fabric::kInvalidKey;
  };
  enum class OpKind : std::uint8_t {
    kPwcDirect, kPwcEager, kGwc, kOsPut, kOsGet,
    kFadd, kCas, kSwap, kGet64, kGet64x2,
  };
  /// "No atomic-pool slot" sentinel for OpRecord::pool_slot.
  static constexpr std::uint32_t kNoPoolSlot = ~std::uint32_t{0};
  /// A signaled post's record, filed in ops_ under its wr_id.
  struct OpRecord {
    OpKind kind = OpKind::kPwcDirect;
    fabric::Rank peer = 0;
    std::optional<std::uint64_t> local_id = std::nullopt;
    /// GWC: signal this id to the peer after completion.
    std::optional<std::uint64_t> remote_id = std::nullopt;
    RequestId request = kInvalidRequest;
    std::uint64_t check_serial = 0;  ///< PhotonCheck shadow-op serial (0 = none)
    std::uint64_t post_vtime = 0;    ///< telemetry: virtual post timestamp
    std::uint32_t pool_slot = kNoPoolSlot;  ///< kGet64/kGet64x2 landing cell
  };
  struct ReqInfo {
    bool done = false;
    Status status = Status::Ok;
    fabric::Rank peer = 0;
    bool remote = false;  ///< completion needs peer action (advert FIN); such
                          ///< requests fail with PeerUnreachable on peer death
  };
  struct DeferredSignal {
    fabric::Rank dst;
    std::uint64_t id;
    bool from_get;
    std::uint64_t post_vtime = 0;  ///< telemetry: originating op's post vtime
  };

  // Slab layout helpers (uniform across ranks).
  std::size_t ring_off(fabric::Rank src) const;
  std::size_t ledger_off(fabric::Rank src) const;
  std::size_t credit_off(fabric::Rank dst) const;
  std::size_t staging_off() const;
  std::size_t atomic_pool_off() const;
  std::size_t slab_size() const;

  /// get_u64/get_u64x2 landing cells carved out of the slab (bounds
  /// concurrent outstanding cell reads; exhausted -> Status::Retry). Each
  /// cell holds two words.
  static constexpr std::uint32_t kAtomicPoolCells = 64;
  static constexpr std::size_t kPoolCellBytes = 16;

  // Credit accounting.
  std::uint64_t ring_consumed_by(fabric::Rank dst) const;  ///< read my cell
  std::uint64_t ledger_consumed_by(fabric::Rank dst) const;
  /// Ring bytes / ledger entries posted but not yet credited back. Clamped
  /// for the recovery race where a stale (pre-fence) credit return lands
  /// after on_peer_up reset the cells: a consumed cursor ahead of our head
  /// reads as zero progress (conservative; fresh returns overwrite it).
  std::uint64_t ring_outstanding(fabric::Rank dst) const;
  std::uint64_t ledger_outstanding(fabric::Rank dst) const;
  void maybe_return_credits(fabric::Rank src);

  /// True when the fabric can absorb `k` more posts to `dst` right now.
  bool fabric_headroom(fabric::Rank dst, std::size_t k) const;

  /// Virtual post timestamp for latency telemetry (0 while unarmed).
  std::uint64_t post_stamp() {
    return PHOTON_TELEM_EXPR(oplat_.armed() ? clock().now() : 0, 0);
  }
  /// The one post sequence. A signaled post passes its `rec`: it is filed
  /// in ops_ (tagged with the guard's shadow-op serial) and posted under its
  /// id as the wr_id; a null `rec` posts unsignaled under wr_id 0.
  /// `post(wr_id)` runs the NIC post. A rejected post frees the record and
  /// returns the NIC's status (the guard then aborts its shadow op); an
  /// accepted one commits `guard`.
  template <typename Post>
  Status post_op(check::PostGuard* guard, OpRecord* rec, Post&& post);
  /// Tail of a payload post carrying a remote id: ring the doorbell chained
  /// onto the payload WR (its slot and headroom were reserved up front). A
  /// failed doorbell means the landed payload can never be announced: that
  /// is a ProtocolError, and the remote id is lost. `what` names the post.
  Status ring_doorbell(fabric::Rank dst, std::uint64_t remote_id,
                       std::uint64_t post_vt, const char* what);

  // Eager-ring send path (user payloads and control messages). A send with
  // a local id is signaled; `guard` is its caller's shadow op, if any.
  Status eager_send(fabric::Rank dst, MsgKind kind, std::uint64_t id,
                    std::span<const std::byte> payload,
                    std::optional<std::uint64_t> local_id = std::nullopt,
                    check::PostGuard* guard = nullptr);
  /// Write a ledger entry + doorbell to `dst` (always unsignaled). `chained`
  /// rides the previous post's doorbell (no extra CPU overhead charge).
  /// `origin_vtime` is the originating op's post vtime, carried to the
  /// target in the entry's spare meta bits for remote-latency telemetry
  /// (0 = stamp the current clock). `meta_override`, when set, replaces the
  /// packed meta word entirely (the shard-NAK control path; see
  /// wire_format.hpp ledger_meta_pack_shard_nak).
  Status ledger_signal(fabric::Rank dst, std::uint64_t id, bool from_get,
                       bool chained = false, std::uint64_t origin_vtime = 0,
                       std::optional<std::uint64_t> meta_override = std::nullopt);
  /// Body of post_recv_buffer_rq (`get_side` false) and post_send_buffer_rq
  /// (true): advertise `buf` to `peer` under a fresh remote request.
  util::Result<RequestId> post_buffer_rq(fabric::Rank peer,
                                         const BufferDescriptor& buf,
                                         std::uint64_t tag, bool get_side);
  /// Body of post_os_put (LocalSlice) and post_os_get (LocalMutSlice).
  template <typename Slice>
  util::Result<RequestId> post_os(fabric::Rank peer, Slice local,
                                  const RendezvousBuffer& rb);
  /// Pop a received advert of the given side from `peer` (any tag when
  /// `tag` is kAnyTag); an emptied (peer, tag) queue is erased.
  std::optional<RendezvousBuffer> take_advert(fabric::Rank peer, std::uint64_t tag,
                                              bool get_side);
  /// Body of wait_send_rq / wait_recv_rq.
  util::Result<RendezvousBuffer> wait_advert(fabric::Rank peer, std::uint64_t tag,
                                             bool get_side, std::uint64_t timeout_ns);

  // Progress internals.
  /// React to peers newly declared Down by the NIC health tracker (gated on
  /// its generation counter, so the common case is one relaxed load).
  void sweep_peer_health();
  /// One-shot per peer: latch the failure, reclaim deferred signals and
  /// rendezvous adverts, and fail pending remote-dependent requests with
  /// Status::PeerUnreachable.
  void on_peer_down(fabric::Rank r);
  /// Gate for every post path toward `dst`. Syncs sender-side state when
  /// the NIC fenced a new connection epoch toward `dst` since the last post
  /// (on_peer_up), and — when NicConfig::auto_recover is set — runs the
  /// reconnect/fence protocol for a Down peer before giving up. Returns
  /// false when the peer stays unusable (callers fail fast with
  /// Status::PeerUnreachable).
  bool ensure_peer(fabric::Rank dst);
  /// Tx-epoch edge: the NIC fenced a fresh connection incarnation toward
  /// `dst`. Restart the eager-ring/ledger cursors at the new epoch's zero,
  /// zero the credit cells `dst` writes into, and clear the failure latches
  /// so new posts flow again (ops that already failed stay failed).
  void on_peer_up(fabric::Rank dst, std::uint32_t epoch);
  void flush_deferred();
  bool drain_send_cq();
  bool drain_recv_cq();
  void handle_local_completion(const fabric::Completion& c);
  void handle_recv_event(const fabric::Completion& c);
  /// `post_vt` is the initiator's wire-carried post vtime (0 when absent),
  /// `deliver_vt` the delivering completion's vtime — telemetry only.
  void consume_eager(fabric::Rank src, std::uint64_t post_vt,
                     std::uint64_t deliver_vt);
  void consume_ledger(fabric::Rank src, std::uint64_t slot,
                      std::uint64_t deliver_vt);
  void handle_control(fabric::Rank src, const EagerHeader& h,
                      const std::byte* body);

  // Requests.
  RequestId alloc_request(fabric::Rank peer, bool remote);
  void complete_request(RequestId rq, Status st);

  std::byte* slab_ptr(std::size_t off) { return slab_.data() + off; }
  const std::byte* slab_ptr(std::size_t off) const { return slab_.data() + off; }

  /// Shared body of the atomic try ops (kFadd/kCas/kSwap/kGet64/kGet64x2):
  /// validate, begin the shadow op, allocate the (always-signaled) op record
  /// — stamping `pool_slot` for the reads — and run `post(wr_id)`. The
  /// fetched value arrives via handle_local_completion.
  template <typename PostFn>
  Status post_cell_op(OpKind kind, fabric::Rank dst, RemoteSlice cell,
                      std::optional<std::uint64_t> local_id,
                      std::uint32_t pool_slot, PostFn&& post);
  /// Body of try_get_u64 / try_get_u64x2: a get of `cells` into a free
  /// landing-pool cell.
  Status try_pool_get(OpKind kind, fabric::Rank src_rank, RemoteSlice cells,
                      std::optional<std::uint64_t> local_id);
  /// Body of the blocking atomic-cell wrappers: post `try_once(id)` under a
  /// fresh internal id (progress+retry), then wait for that id's completion
  /// and return it, or its failure status.
  template <typename TryFn>
  util::Result<LocalComplete> run_cell_op(TryFn&& try_once,
                                          std::uint64_t timeout_ns);
  /// Pop the first queued local completion carrying exactly `id`, leaving
  /// every other completion queued in order (run_cell_op harvests its
  /// internal-id op this way without disturbing the application's).
  std::optional<LocalComplete> take_local(std::uint64_t id);
  /// File a delivered event: keyed ids by (peer, id), the rest in event_q_.
  void deliver_event(ProbeEvent&& ev);

  fabric::Nic& nic_;
  runtime::Exchanger& oob_;
  std::uint32_t nranks_;
  Config cfg_;
  CoreStats stats_;

  std::vector<std::byte> slab_;
  BufferDescriptor slab_desc_;
  std::vector<SlabInfo> peer_slabs_;

  std::vector<SenderState> senders_;
  std::vector<ReceiverState> receivers_;
  /// Per-peer failure latch (verbs QP-error semantics): an asynchronous
  /// error on an op that shares sequenced state with the peer (eager ring,
  /// completion ledger) would desynchronize the cursors, so the connection
  /// is marked dead and further sequenced ops return Disconnected. Errors
  /// on direct puts/gets touch no shared cursors and leave the peer usable.
  std::vector<bool> peer_failed_;
  /// One-shot guard for on_peer_down (peer_failed_ can also latch from
  /// completion errors without the health machinery, so it can't serve).
  std::vector<bool> peer_down_done_;
  /// Last NIC health down-generation this rank has reacted to.
  std::uint64_t health_gen_seen_ = 0;
  /// Last NIC connection epochs this layer synchronized its sequenced
  /// per-peer state to: tx (my fences toward the peer; see ensure_peer) and
  /// rx (the peer's fences toward me; see handle_recv_event).
  std::vector<std::uint32_t> tx_epoch_seen_;
  std::vector<std::uint32_t> rx_epoch_seen_;

  /// Per-(op class, peer) virtual-latency recorder, bound to cfg_.metrics
  /// (or the process registry) at construction. Clocks can rewind to zero
  /// between bench phases (sync_reset), so latencies subtract saturating.
  telemetry::OpLatencyRecorder oplat_;
  static telemetry::OpClass op_class_of(OpKind k) noexcept {
    switch (k) {
      case OpKind::kPwcDirect: return telemetry::OpClass::kPut;
      case OpKind::kPwcEager: return telemetry::OpClass::kEager;
      case OpKind::kGwc: return telemetry::OpClass::kGet;
      case OpKind::kOsPut: return telemetry::OpClass::kOsPut;
      case OpKind::kOsGet: return telemetry::OpClass::kOsGet;
      case OpKind::kFadd: return telemetry::OpClass::kFadd;
      case OpKind::kCas: return telemetry::OpClass::kCas;
      case OpKind::kSwap: return telemetry::OpClass::kSwap;
      case OpKind::kGet64:
      case OpKind::kGet64x2: return telemetry::OpClass::kGet;
    }
    return telemetry::OpClass::kSignal;
  }
  static std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) noexcept {
    return a >= b ? a - b : 0;
  }
  /// Add CoreStats into the bound registry as "core.*" counters (destructor;
  /// no-op while the registry is disabled).
  void fold_stats() const;

  util::OpTable<OpRecord> ops_;

  /// Free list over the slab's get_u64/get_u64x2 landing cells.
  std::vector<std::uint32_t> free_pool_;
  /// Internal local-id space for the blocking atomic-cell wrappers: ids with
  /// this bit set never collide with application ids (which the DDS layer
  /// keeps below it) and are harvested with take_local().
  static constexpr std::uint64_t kInternalIdBit = 1ULL << 63;
  std::uint64_t internal_id_seq_ = 0;

  std::deque<LocalComplete> local_q_;
  /// Unkeyed target-side events, in delivery order (probe_event()).
  std::deque<ProbeEvent> event_q_;
  std::deque<ShardNak> shard_nak_q_;
  std::deque<Status> error_q_;
  std::deque<DeferredSignal> deferred_;
  /// Per-peer count of entries in deferred_, so flush() tests a counter
  /// instead of rescanning the deque every spin.
  std::vector<std::uint32_t> deferred_pending_;
  /// Reusable scratch for batched CQ drains (sized max_probe_batch).
  std::vector<fabric::Completion> cq_batch_;

  std::unordered_map<RequestId, ReqInfo> requests_;
  RequestId next_request_ = 1;

  /// (peer, tag) for adverts_, (peer, event id) for keyed_.
  struct AdvertKey {
    fabric::Rank peer;
    std::uint64_t tag;
    bool operator==(const AdvertKey&) const = default;
  };
  struct AdvertKeyHash {
    std::size_t operator()(const AdvertKey& k) const noexcept {
      // splitmix64 finalizer over a golden-ratio mix of (peer, tag); a plain
      // shift-xor collides whole classes of tags (e.g. any pair differing
      // only in high bits).
      std::uint64_t x =
          k.tag + 0x9e3779b97f4a7c15ULL * (std::uint64_t{k.peer} + 1);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return static_cast<std::size_t>(x);
    }
  };
  std::unordered_map<AdvertKey, std::deque<RendezvousBuffer>, AdvertKeyHash>
      adverts_;
  /// Keyed target-side events by (peer, id), each deque in delivery order
  /// (take_event()). An entry is erased when its last event is taken.
  std::unordered_map<AdvertKey, std::deque<ProbeEvent>, AdvertKeyHash> keyed_;
};

}  // namespace photon::core
