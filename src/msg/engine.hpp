// Two-sided messaging baseline: tagged send/recv with MPI-like matching
// (posted-receive queue + unexpected queue, wildcard source/tag), an eager
// protocol through pre-posted bounce buffers, and a receiver-driven
// rendezvous (RTS -> RDMA get -> FIN) for large messages.
//
// This is the comparator the Photon paper measures against: it runs over
// the *same* simulated fabric, so Photon-vs-two-sided deltas reflect
// protocol mechanism (matching, bounce copies, extra wire trips), not
// substrate differences. The matching and copy CPU costs are explicit,
// calibrated knobs charged to the virtual clock.
//
// Threading: one Engine per rank, owned by that rank's thread.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fabric/nic.hpp"
#include "msg/wire.hpp"
#include "runtime/bootstrap.hpp"
#include "util/expected.hpp"
#include "util/idle_wait.hpp"
#include "util/op_table.hpp"

namespace photon::msg {

using Tag = std::uint64_t;
inline constexpr Tag kAnyTag = ~std::uint64_t{0};
inline constexpr fabric::Rank kAnySource = ~std::uint32_t{0};

struct Config {
  std::size_t eager_threshold = 8192;  ///< <=: eager; >: rendezvous
  std::size_t bounce_count = 512;      ///< pre-posted receive bounce buffers
  std::size_t send_credits = 64;       ///< outstanding eager sends per peer
  std::uint64_t match_cost_ns = 60;    ///< per-message tag-matching CPU cost
  double copy_per_byte_ns = 0.05;      ///< bounce copy-in/copy-out
  std::uint64_t reg_cost_ns = 500;     ///< on-the-fly registration (rendezvous)
};

struct RecvInfo {
  fabric::Rank source = 0;
  Tag tag = 0;
  std::size_t len = 0;       ///< bytes delivered
  bool truncated = false;
};

using ReqId = std::uint64_t;
inline constexpr ReqId kInvalidReq = 0;

struct MsgStats {
  std::uint64_t eager_sends = 0;
  std::uint64_t rndv_sends = 0;
  std::uint64_t recvs_completed = 0;
  std::uint64_t expected_hits = 0;    ///< message matched a posted recv
  std::uint64_t unexpected_hits = 0;  ///< recv matched a queued message
  std::uint64_t credit_acks = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t registrations = 0;
};

class Engine {
 public:
  static constexpr std::uint64_t kDefaultTimeoutNs = 10'000'000'000ULL;

  /// Collective across ranks (pre-posts bounce receives).
  Engine(fabric::Nic& nic, runtime::Exchanger& oob, const Config& cfg);
  /// Folds MsgStats into the process metrics registry (when enabled) as
  /// "msg.*" counters before tearing the bounce slab down.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  fabric::Rank rank() const noexcept { return nic_.rank(); }
  std::uint32_t size() const noexcept { return nranks_; }
  const Config& config() const noexcept { return cfg_; }
  const MsgStats& stats() const noexcept { return stats_; }
  fabric::VClock& clock() noexcept { return nic_.clock(); }
  fabric::Nic& nic() noexcept { return nic_; }

  // ---- nonblocking ----------------------------------------------------------
  util::Result<ReqId> isend(fabric::Rank dst, Tag tag,
                            std::span<const std::byte> data);
  util::Result<ReqId> irecv(fabric::Rank src, Tag tag, std::span<std::byte> out);

  /// Nonblocking completion check; consumes the request when done and fills
  /// `info` (recv requests only; may be null).
  Status test(ReqId rq, bool& done, RecvInfo* info = nullptr);
  Status wait(ReqId rq, RecvInfo* info = nullptr,
              std::uint64_t timeout_ns = kDefaultTimeoutNs);

  /// Is a matching message (eager or RTS) already here?
  std::optional<RecvInfo> iprobe(fabric::Rank src, Tag tag);

  // ---- blocking convenience ---------------------------------------------------
  Status send(fabric::Rank dst, Tag tag, std::span<const std::byte> data,
              std::uint64_t timeout_ns = kDefaultTimeoutNs);
  util::Result<RecvInfo> recv(fabric::Rank src, Tag tag, std::span<std::byte> out,
                              std::uint64_t timeout_ns = kDefaultTimeoutNs);

  void progress();
  /// Idle-wait step: consume the earliest pending fabric completion even if
  /// its virtual arrival is in the future (jumps the clock). False if none.
  bool progress_jump();
  /// Bounded idle wait: util::wait_until over progress_jump.
  template <typename Poll>
  auto wait_for(std::uint64_t budget_ns, Poll&& poll) {
    return util::wait_until(budget_ns, std::forward<Poll>(poll),
                            [this] { return progress_jump(); });
  }

 private:
  void fold_stats() const;

  struct PostedRecv {
    fabric::Rank src;
    Tag tag;
    std::span<std::byte> out;
    ReqId rq;
  };
  struct Unexpected {
    fabric::Rank src = 0;
    Tag tag = 0;
    bool is_rts = false;
    std::vector<std::byte> payload;  ///< eager data
    // RTS fields:
    std::uint64_t sender_req = 0;
    std::uint64_t addr = 0;
    std::uint64_t rkey = 0;
    std::size_t size = 0;
  };
  struct ReqInfo {
    bool done = false;
    Status status = Status::Ok;
    RecvInfo info{};
  };
  enum class OpKind : std::uint8_t { kEagerSend, kRndvGet };
  /// A signaled post's record, filed in ops_ under its wr_id.
  struct OpRecord {
    OpKind kind = OpKind::kEagerSend;
    ReqId request = kInvalidReq;  ///< eager send / rndv-get request
    // rndv-get bookkeeping:
    fabric::Rank peer = 0;
    std::uint64_t sender_req = 0;
    fabric::MrKey dereg_lkey = fabric::kInvalidKey;
    RecvInfo info{};
  };
  struct RndvSendState {
    fabric::MrKey lkey = fabric::kInvalidKey;  ///< to deregister on FIN
    fabric::Rank peer = 0;                     ///< FIN source (health sweep)
  };

  static bool matches(fabric::Rank want_src, Tag want_tag, fabric::Rank src,
                      Tag tag) {
    return (want_src == kAnySource || want_src == src) &&
           (want_tag == kAnyTag || want_tag == tag);
  }

  /// Reclaim protocol state wedged on peers newly declared Down: rendezvous
  /// sends whose FIN can never arrive and posted receives pinned to a dead
  /// source complete with Status::PeerUnreachable. Gated on the NIC health
  /// generation counter.
  void sweep_peer_health();
  /// Post gate for `dst`: re-opens the per-peer channel on the NIC's fenced
  /// tx-epoch edge (send credits restart at full) and, when auto_recover is
  /// configured, runs the reconnect/fence protocol for a Down peer. Returns
  /// false when the peer stays unusable.
  bool ensure_peer(fabric::Rank dst);
  Status send_ctrl(fabric::Rank dst, const MsgHeader& h,
                   std::span<const std::byte> payload);
  void repost_bounce(std::size_t slot);
  void handle_incoming(const fabric::Completion& c);
  void handle_eager(fabric::Rank src, const MsgHeader& h, const std::byte* body);
  void handle_rts(fabric::Rank src, const MsgHeader& h);
  void start_rndv_get(fabric::Rank src, const Unexpected& rts,
                      std::span<std::byte> out, ReqId rq);
  void deliver_eager(const PostedRecv& pr, fabric::Rank src, Tag tag,
                     const std::byte* body, std::size_t len);
  void handle_send_completion(const fabric::Completion& c);
  void maybe_ack_credits(fabric::Rank src);
  void charge_match() { nic_.clock().add(cfg_.match_cost_ns); }
  void charge_copy(std::size_t bytes) {
    nic_.clock().add(static_cast<std::uint64_t>(static_cast<double>(bytes) *
                                                cfg_.copy_per_byte_ns));
  }

  ReqId alloc_request();
  void complete_request(ReqId rq, Status st, const RecvInfo& info);

  fabric::Nic& nic_;
  runtime::Exchanger* oob_ = nullptr;
  std::uint32_t nranks_;
  Config cfg_;
  MsgStats stats_;

  // Bounce pool: one registered slab carved into recv slots plus one send
  // staging slot (reusable immediately; see fabric execution model).
  std::vector<std::byte> slab_;
  fabric::MrKey slab_lkey_ = fabric::kInvalidKey;
  std::size_t slot_bytes_ = 0;

  std::deque<PostedRecv> posted_;
  std::deque<Unexpected> unexpected_;

  util::OpTable<OpRecord> ops_;

  std::unordered_map<ReqId, ReqInfo> requests_;
  std::unordered_map<std::uint64_t, RndvSendState> rndv_sends_;
  ReqId next_request_ = 1;

  std::vector<std::uint32_t> credits_;           ///< per-dst remaining
  std::vector<std::uint32_t> since_ack_;         ///< per-src processed count
  std::uint64_t health_gen_seen_ = 0;            ///< last reacted-to down gen
  /// Last NIC connection epochs the channel state is synced to: tx (my
  /// fences toward the peer; see ensure_peer) and rx (the peer's fences
  /// toward me; see handle_incoming).
  std::vector<std::uint32_t> tx_epoch_seen_;
  std::vector<std::uint32_t> rx_epoch_seen_;
};

}  // namespace photon::msg
