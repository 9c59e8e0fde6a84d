// PhotonCheck: shadow-state validator for the RMA protocol.
//
// One Checker per Fabric. Every user-facing operation (put/get/send with
// completion, signals, rendezvous os ops, buffer adverts) registers a shadow
// op record; registered regions carry interval maps of in-flight spans
// (pinned sources, landing ranges, advertised windows). Completion-side
// events (probe_local/probe_event pops, request completion, flush, finalize)
// release the spans. Conflicting overlaps and id-hygiene breaches are
// reported as Violations (see violation.hpp for the five classes).
//
// Post protocol (three phases, needed because the simulated fabric delivers
// data synchronously at post time — the target thread can observe and pop a
// remote completion id before the initiator's post call returns):
//   1. begin_op()   - BEFORE the nic post: silently records the op and its
//                     outstanding remote id. Returns a serial (0 = disabled).
//   2. commit()     - after a successful post: runs all reporting checks
//                     (bad slices, span conflicts, duplicate local ids) and
//                     claims the op's spans.
//   3. abort_post() - after a failed post: silently erases the record,
//                     except that validation failures re-report as kBadSlice
//                     (class 4 is detected by the nic synchronously, so the
//                     failed post *is* the violation).
// begin_op is silent so that try_*/retry loops never double-report. The
// three phases run in one place, check::PostGuard (check/hooks.hpp): core
// and msg posts construct a guard instead of calling them directly.
//
// Threading: one mutex; hooks are called from every rank thread. The checker
// takes no other locks, so any caller-held lock ordering is one-way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "util/mutex.hpp"

#include "check/interval_map.hpp"
#include "check/violation.hpp"
#include "fabric/types.hpp"

namespace photon::check {

/// What the checker does when a violation is found. The default (abort, like
/// a sanitizer) can be overridden at runtime or with PHOTON_CHECK_MODE.
enum class Mode : std::uint8_t { kAbort, kLog, kCollect };

/// Request-anchor namespace: core Photon RequestIds and msg-engine ReqIds
/// come from independent per-rank counters, so anchors carry the namespace.
enum class RequestNs : std::uint8_t { kCore, kMsg };

/// Everything the checker needs to know about one post, captured at begin.
struct PostInfo {
  CheckOpKind kind = CheckOpKind::kPut;
  fabric::Rank initiator = 0;
  fabric::Rank target = 0;
  /// Local side; lkey == kInvalidKey means the op has no local slice.
  const void* local_addr = nullptr;
  std::size_t local_len = 0;
  fabric::MrKey local_lkey = fabric::kInvalidKey;
  /// Remote side; rkey == kInvalidKey means the op has no remote slice.
  std::uint64_t remote_addr = 0;
  std::size_t remote_len = 0;
  fabric::MrKey remote_rkey = fabric::kInvalidKey;
  /// Completion anchors.
  std::optional<std::uint64_t> local_id;
  std::optional<std::uint64_t> remote_id;
  std::optional<std::uint64_t> request;
  RequestNs request_ns = RequestNs::kCore;
  /// kAdvert only: true for a send-side (peer-will-get) window.
  bool advert_is_send = false;
};

class Checker {
 public:
  /// Reads PHOTON_CHECK (0/off disables) and PHOTON_CHECK_MODE
  /// (abort|log|collect) from the environment.
  Checker();

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  bool enabled() const noexcept {
    // relaxed-ok: independent on/off gate consulted per hook; no state is
    // published through it (all shadow state is mutex-protected).
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    // relaxed-ok: see enabled().
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Virtual-time happens-before race mode: tracks per-(initiator, target)
  /// stream clocks and per-rank knowledge vectors so that consuming a
  /// remotely-written region without an ordering edge (completion pop on
  /// the same stream, request completion, flush, or a relayed message) is
  /// reported even when the plain span checker has already released it.
  /// Enabled with PHOTON_CHECK_RACE=1 in the environment or at runtime
  /// here; off by default (zero extra bookkeeping when off).
  bool race_mode() const noexcept {
    // relaxed-ok: independent on/off gate, same contract as enabled().
    return race_.load(std::memory_order_relaxed);
  }
  // test-only-ok: the checker's race tests switch modes directly.
  void set_race_mode(bool on) noexcept {
    // relaxed-ok: see race_mode().
    race_.store(on, std::memory_order_relaxed);
  }
  void set_mode(Mode m);
  Mode mode() const;

  // test-only-ok: the checker and recovery tests count reports.
  std::uint64_t violation_count() const noexcept {
    // relaxed-ok: monotonic statistic read for reporting only.
    return violation_count_.load(std::memory_order_relaxed);
  }
  /// Drain collected violations (kCollect mode; empty otherwise).
  std::vector<Violation> take_violations();

  // ---- post lifecycle ------------------------------------------------------
  std::uint64_t begin_op(const PostInfo& info);
  void commit(std::uint64_t serial);
  void abort_post(std::uint64_t serial);

  // ---- registration --------------------------------------------------------
  void on_mr_register(fabric::Rank owner, const void* addr, std::size_t len,
                      fabric::MrKey lkey, fabric::MrKey rkey);
  void on_mr_deregister(fabric::Rank owner, fabric::MrKey lkey);

  // ---- completion-side events ----------------------------------------------
  void on_local_id_popped(fabric::Rank initiator, std::uint64_t id);
  /// `initiator` is the rank that posted the delivered id.
  void on_remote_id_popped(fabric::Rank target, fabric::Rank initiator,
                           std::uint64_t id);
  void on_request_done(fabric::Rank owner, RequestNs ns, std::uint64_t request);
  /// Async error completion for a recorded op. `remote_id_sent`: the remote
  /// id doorbell was posted separately and may still be delivered (direct
  /// put), so its outstanding entry must survive the cleanup.
  void on_op_error(std::uint64_t serial, bool remote_id_sent);
  /// A remote-id deposit `initiator` made or deferred toward `target` was
  /// dropped (peer failure, discarded residue); forget it.
  void on_remote_id_lost(fabric::Rank target, fabric::Rank initiator,
                         std::uint64_t id);
  /// The initiator latched its connection to `peer` dead (verbs QP error):
  /// silently drop every outstanding op initiator->peer — their completions
  /// will never arrive, and that is expected, not a protocol violation. A
  /// remote id among them that had already landed may still be popped by
  /// the peer; that pop is not a violation either.
  void on_peer_dead(fabric::Rank initiator, fabric::Rank peer);
  /// The initiator fenced a new epoch toward `peer` (recovery): drop every
  /// still-outstanding op initiator->peer. Their completions belong to the
  /// dead connection and can never arrive — expected, not a violation — and
  /// the fresh epoch must start from clean shadow state.
  void on_peer_recovered(fabric::Rank initiator, fabric::Rank peer);
  /// flush(peer) returned: anchorless ops initiator->peer are done.
  void on_flush(fabric::Rank initiator, fabric::Rank peer);
  /// Rank teardown: report every op it initiated that still has outstanding
  /// completion anchors (class 5), then drop its state.
  void on_finalize(fabric::Rank rank);

  // ---- application accesses ------------------------------------------------
  void note_user_read(fabric::Rank rank, const void* addr, std::size_t len);
  void note_user_write(fabric::Rank rank, const void* addr, std::size_t len);

 private:
  struct RegionKey {
    fabric::Rank owner;
    fabric::MrKey lkey;
    friend bool operator<(const RegionKey& a, const RegionKey& b) {
      return a.owner != b.owner ? a.owner < b.owner : a.lkey < b.lkey;
    }
  };
  struct ShadowRegion {
    std::uint64_t base = 0;
    std::size_t len = 0;
    fabric::MrKey rkey = fabric::kInvalidKey;
    IntervalMap spans;
  };
  struct SpanLoc {
    RegionKey region;
    std::uint64_t begin = 0;
  };
  /// Which event releases a span group (chosen once at commit).
  enum class Anchor : std::uint8_t { kLocal, kRemote, kRequest, kFlush };
  /// One (initiator, target) RC stream: deliveries on it are in-order.
  using StreamKey = std::pair<fabric::Rank, fabric::Rank>;
  /// Knowledge vector: per stream, the highest issue index a rank knows to
  /// have landed (the per-(rank, initiator) vector clock of race mode).
  using VtClock = std::map<StreamKey, std::uint64_t>;
  struct OpState {
    PostInfo info;
    std::uint64_t serial = 0;
    bool committed = false;
    bool wait_local = false;    ///< local_id outstanding
    bool wait_remote = false;   ///< remote_id outstanding
    bool wait_request = false;  ///< request outstanding
    Anchor local_anchor = Anchor::kFlush;   ///< releases src/dst pins
    Anchor remote_anchor = Anchor::kFlush;  ///< releases landing/wire-read
    std::vector<SpanLoc> local_spans;
    std::vector<SpanLoc> remote_spans;
    /// Race mode: this op's stream, issue index, and the initiator's
    /// knowledge snapshot at post time (piggybacked on the completion).
    StreamKey race_stream{0, 0};
    std::uint64_t race_index = 0;  ///< 0 = not a wire op / race mode off
    VtClock race_stamp;
  };
  /// Race mode: one remotely-written range in `owner`'s memory, kept past
  /// span release until every consumer is ordered after it.
  struct Landing {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    StreamKey stream{0, 0};
    std::uint64_t index = 0;
    std::uint64_t serial = 0;
    OpRef ref;                              ///< survives op retirement
    Anchor remote_anchor = Anchor::kFlush;  ///< how the span was released
    bool reported = false;
  };
  /// How a range is touched, for the conflict matrix.
  enum class AccessClass : std::uint8_t {
    kWireWrite, kWireRead, kUserWrite, kUserRead,
  };

  // All helpers below require mutex_ held (annotated).
  void report(Violation v) REQUIRES(mutex_);
  OpRef make_ref(const OpState& st, std::uint64_t addr, std::size_t len) const
      REQUIRES(mutex_);
  ShadowRegion* find_region(RegionKey key) REQUIRES(mutex_);
  ShadowRegion* resolve_rkey(fabric::Rank owner, fabric::MrKey rkey,
                             RegionKey* key_out) REQUIRES(mutex_);
  /// Conflict-scan [addr, addr+len) across every region owned by `owner`;
  /// reports at most one violation. Returns true if one was reported.
  bool check_access(fabric::Rank owner, std::uint64_t addr, std::size_t len,
                    AccessClass access, const OpRef& who,
                    std::uint64_t self_serial) REQUIRES(mutex_);
  std::optional<ViolationKind> classify(AccessClass access, SpanKind prior,
                                        fabric::Rank access_initiator,
                                        std::uint64_t prior_serial)
      REQUIRES(mutex_);
  void claim_span(OpState& st, RegionKey region, std::uint64_t begin,
                  std::uint64_t end, SpanKind kind, bool remote_group)
      REQUIRES(mutex_);
  void release_group(OpState& st, std::vector<SpanLoc>& group)
      REQUIRES(mutex_);
  void fire_anchor(OpState& st, Anchor which) REQUIRES(mutex_);
  void maybe_retire(std::uint64_t serial) REQUIRES(mutex_);
  void drop_op(std::uint64_t serial) REQUIRES(mutex_);
  /// Unlink and return the oldest outstanding (target, id) entry posted by
  /// `initiator`, if any.
  std::optional<std::uint64_t> take_remote_id(fabric::Rank target,
                                              fabric::Rank initiator,
                                              std::uint64_t id)
      REQUIRES(mutex_);
  /// Consume an orphaned deposit (see orphaned_remote_ids_); false if none.
  bool take_orphaned_remote_id(fabric::Rank target, fabric::Rank initiator,
                               std::uint64_t id) REQUIRES(mutex_);
  /// Body of on_peer_dead / on_peer_recovered.
  void drop_stream(fabric::Rank initiator, fabric::Rank peer,
                   bool orphan_remote_ids) REQUIRES(mutex_);

  // ---- race mode helpers (all REQUIRES(mutex_)) ----------------------------
  /// Stamp a committed wire op with its stream/index/knowledge snapshot and,
  /// when it writes target memory, record the landing.
  void race_on_commit(OpState& st, bool claims_remote_write) REQUIRES(mutex_);
  /// Join `clock` plus the op's own stream prefix into `rank`'s knowledge.
  void race_observe(fabric::Rank rank, const OpState& st) REQUIRES(mutex_);
  /// Has `rank` an ordering edge covering landing (stream, index)?
  bool race_covered(fabric::Rank rank, StreamKey stream,
                    std::uint64_t index) const REQUIRES(mutex_);
  /// Scan landings in `owner`'s memory overlapping [addr, addr+len) for an
  /// access by `accessor`; report at most one race violation.
  bool race_check_access(fabric::Rank owner, std::uint64_t addr,
                         std::size_t len, fabric::Rank accessor,
                         const OpRef& who, std::uint64_t self_serial)
      REQUIRES(mutex_);
  /// Forget landings on stream (initiator -> peer) (peer death / re-fence).
  void race_drop_stream(fabric::Rank initiator, fabric::Rank peer)
      REQUIRES(mutex_);
  /// Drop landings `owner` already covers whose ops have retired.
  void race_prune(fabric::Rank owner) REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> race_{false};
  std::atomic<std::uint64_t> violation_count_{0};
  Mode mode_ GUARDED_BY(mutex_) = Mode::kAbort;
  std::uint64_t next_serial_ GUARDED_BY(mutex_) = 1;

  std::map<std::uint64_t, OpState> ops_ GUARDED_BY(mutex_);
  std::map<RegionKey, ShadowRegion> regions_ GUARDED_BY(mutex_);
  /// (owner, rkey) -> lkey, so remote slices resolve to shadow regions.
  std::map<std::pair<fabric::Rank, fabric::MrKey>, fabric::MrKey> rkey_index_
      GUARDED_BY(mutex_);
  /// (initiator, local_id) -> serial. Duplicate outstanding ids are class 5.
  std::map<std::pair<fabric::Rank, std::uint64_t>, std::uint64_t> local_ids_
      GUARDED_BY(mutex_);
  /// (target, remote_id) -> serials, FIFO. Multiple outstanding ops may
  /// legally share a remote id (parcels reuse handler ids, and every rank
  /// picks its ids alone); a pop releases the delivering initiator's
  /// oldest, matching its ledger/ring delivery order.
  std::multimap<std::pair<fabric::Rank, std::uint64_t>, std::uint64_t>
      remote_ids_ GUARDED_BY(mutex_);
  /// (target, remote_id) -> initiator: outstanding deposits dropped because
  /// the initiator declared the target dead. The target may still pop them;
  /// that pop is not a violation.
  std::multimap<std::pair<fabric::Rank, std::uint64_t>, fabric::Rank>
      orphaned_remote_ids_ GUARDED_BY(mutex_);
  /// (owner, ns, request) -> serial.
  std::map<std::tuple<fabric::Rank, std::uint8_t, std::uint64_t>, std::uint64_t>
      requests_ GUARDED_BY(mutex_);
  std::vector<Violation> collected_ GUARDED_BY(mutex_);

  // ---- race mode state -------------------------------------------------------
  /// Per-stream issue counters: index of the newest wire op on (src, dst).
  std::map<StreamKey, std::uint64_t> stream_issue_ GUARDED_BY(mutex_);
  /// Per-rank knowledge vectors (the per-(rank, initiator) vector clocks).
  std::map<fabric::Rank, VtClock> know_ GUARDED_BY(mutex_);
  /// Remotely-written ranges keyed by the rank owning the memory.
  std::map<fabric::Rank, std::vector<Landing>> landings_ GUARDED_BY(mutex_);
};

}  // namespace photon::check
