// Shared pieces of the wall-clock benchmark: latency histograms, the span
// tracer, per-phase result records, the stall guard and the workload
// interface the driver (main.cpp) runs.
//
// Everything here measures from outside the library: the benchmark times its
// own calls into each layer's public functions with the host's steady clock
// and reads the layers' public counters (CoreStats, Nic::counters(),
// EngineStats) before and after a phase. Virtual time is only ever recorded
// as model output (PhaseOut::vlat), never as an end-to-end metric.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/photon.hpp"
#include "parcels/parcel_engine.hpp"
#include "runtime/cluster.hpp"
#include "util/timing.hpp"

namespace perfbench {

using photon::util::now_ns;

/// Log-linear histogram of non-negative integers (64 sub-buckets per
/// octave, so a bucket is at most 1/64 of its value wide). Percentiles
/// interpolate linearly inside the bucket that holds the requested rank.
class Hist {
 public:
  void add(std::uint64_t v) noexcept {
    ++buckets_[index(v)];
    ++count_;
  }
  void merge(const Hist& o) noexcept {
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  std::uint64_t count() const noexcept { return count_; }

  /// Value at percentile `p` in [0, 100]; 0 for an empty histogram.
  double percentile(double p) const noexcept {
    if (count_ == 0) return 0.0;
    double rank = p / 100.0 * static_cast<double>(count_);
    if (rank < 1.0) rank = 1.0;
    double seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const auto n = static_cast<double>(buckets_[i]);
      if (n == 0) continue;
      if (seen + n >= rank) {
        const double frac = (rank - seen - 0.5) / n;
        return static_cast<double>(lower(i)) +
               static_cast<double>(width(i)) * (frac < 0 ? 0 : frac);
      }
      seen += n;
    }
    return static_cast<double>(lower(buckets_.size() - 1));
  }

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }
  static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kSub) return i;
    const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t i) noexcept {
    if (i < kSub) return 1;
    const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    return std::uint64_t{1} << (e - kSubBits);
  }

  std::array<std::uint64_t, (64 - kSubBits + 1) * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

// ---- tracing ------------------------------------------------------------------

/// Span names. Each belongs to the layer named before its first dot.
enum SpanId : std::uint8_t {
  kPostPut,         ///< accepted Photon::try_put_with_completion
  kPostEager,       ///< accepted Photon::try_send_with_completion
  kPostSignal,      ///< accepted Photon::try_signal
  kPostOsPut,       ///< Photon::post_os_put
  kPostOsGet,       ///< Photon::post_os_get
  kPostAdvert,      ///< Photon::post_{recv,send}_buffer_rq
  kPostRejected,    ///< any try_* call that returned Retry/QueueFull
  kFin,             ///< Photon::send_fin
  kWaitRq,          ///< one non-blocking Photon::wait_{send,recv}_rq(.., 0) poll
  kTest,            ///< Photon::test
  kProgress,        ///< Photon::progress
  kProbe,           ///< Photon::probe_event / probe_local drains
  kJump,            ///< Photon::progress_jump
  kParcelSend,      ///< ParcelEngine::send (also from inside handlers)
  kParcelProgress,  ///< ParcelEngine::progress (runs the handlers)
  kDdsFind,         ///< dds::HashTable::find
  kDdsInsert,       ///< dds::HashTable::insert
  kSpanCount
};

inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "core.post.put",      "core.post.eager",  "core.post.signal",
    "core.post.os_put",   "core.post.os_get", "core.post.advert",
    "core.post.rejected", "core.fin",         "core.wait_rq",
    "core.test",          "core.progress",    "core.probe",
    "core.jump",          "parcels.send",     "parcels.progress",
    "dds.find",           "dds.insert"};

enum class Layer : std::uint8_t { kCore, kParcels, kDds, kCount };
inline Layer layer_of(SpanId id) noexcept {
  if (id >= kDdsFind) return Layer::kDds;
  if (id >= kParcelSend) return Layer::kParcels;
  return Layer::kCore;
}

/// Per-rank span recorder. Spans nest (a handler's reply send runs inside
/// ParcelEngine::progress); a span's self time is its duration minus the
/// time its child spans cover. Aggregates cover every span; the raw records
/// are kept in memory up to a fixed cap and written out when the run ends.
class Tracer {
 public:
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  struct Record {
    std::uint32_t serial;
    std::uint32_t parent;  ///< serial of the enclosing span, 0 = none
    SpanId id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t op;  ///< workload op id (sequence number), 0 = none
  };

  static constexpr std::size_t kLogCap = 1u << 15;

  void open(SpanId id, std::uint64_t op) {
    stack_.push_back(Open{id, ++serial_, now_ns(), 0, op});
  }
  void close(bool accepted) {
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t end = now_ns();
    const std::uint64_t dur = end - o.start_ns;
    const SpanId id = accepted ? o.id : kPostRejected;
    Agg& a = agg_[id];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - o.child_ns;
    if (stack_.empty()) {
      top_ns_ += dur;
    } else {
      stack_.back().child_ns += dur;
    }
    if (log_.size() < kLogCap)
      log_.push_back(Record{o.serial, stack_.empty() ? 0 : stack_.back().serial,
                            id, o.start_ns, end, o.op});
  }

  const Agg& agg(SpanId id) const noexcept { return agg_[id]; }
  /// Time covered by spans with no parent (the rest is benchmark code).
  std::uint64_t top_level_ns() const noexcept { return top_ns_; }
  std::uint64_t spans() const noexcept {
    std::uint64_t n = 0;
    for (const auto& a : agg_) n += a.count;
    return n;
  }
  const std::vector<Record>& log() const noexcept { return log_; }

 private:
  struct Open {
    SpanId id;
    std::uint32_t serial;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t op;
  };
  std::vector<Open> stack_;
  std::array<Agg, kSpanCount> agg_{};
  std::uint64_t top_ns_ = 0;
  std::uint32_t serial_ = 0;
  std::vector<Record> log_;
};

/// RAII span; free when the phase is untraced (null tracer).
class Span {
 public:
  Span(Tracer* t, SpanId id, std::uint64_t op = 0) : t_(t) {
    if (t_ != nullptr) t_->open(id, op);
  }
  ~Span() {
    if (t_ != nullptr) t_->close(accepted_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Book this span as a rejected post (Retry/QueueFull) instead of its id.
  void reject() noexcept { accepted_ = false; }

 private:
  Tracer* t_;
  bool accepted_ = true;
};

// ---- phases -----------------------------------------------------------------

/// Counts the benchmark loops keep in every phase (plain increments, so
/// they cost the same traced or not).
struct LoopStats {
  std::uint64_t try_calls = 0;       ///< Photon::try_* calls
  std::uint64_t try_rejects = 0;     ///< ... that returned Retry/QueueFull
  std::uint64_t progress_calls = 0;  ///< loop progress calls (core or parcels)
  std::uint64_t progress_empty = 0;  ///< ... that surfaced no completion
  std::uint64_t jumps = 0;           ///< progress_jump calls that consumed a completion
  std::uint64_t parcel_dispatched = 0;
  std::uint64_t adverts = 0;         ///< rendezvous adverts seen by a waiter
  std::uint64_t advert_ns = 0;       ///< advert post -> wait_*_rq return, summed
  std::uint64_t os_put_bytes = 0;
  std::uint64_t os_put_ns = 0;       ///< post_os_put -> request done, summed
  std::uint64_t dds_inserts = 0;
  std::uint64_t dds_insert_atomics = 0;  ///< CoreStats::atomics delta
  std::uint64_t dds_finds = 0;
  std::uint64_t dds_find_atomics = 0;

  void add(const LoopStats& o) noexcept {
    try_calls += o.try_calls;
    try_rejects += o.try_rejects;
    progress_calls += o.progress_calls;
    progress_empty += o.progress_empty;
    jumps += o.jumps;
    parcel_dispatched += o.parcel_dispatched;
    adverts += o.adverts;
    advert_ns += o.advert_ns;
    os_put_bytes += o.os_put_bytes;
    os_put_ns += o.os_put_ns;
    dds_inserts += o.dds_inserts;
    dds_insert_atomics += o.dds_insert_atomics;
    dds_finds += o.dds_finds;
    dds_find_atomics += o.dds_find_atomics;
  }
};

/// One rank's results for one phase.
struct PhaseOut {
  std::uint64_t ops = 0;        ///< ops this rank issued that completed
  std::uint64_t attempted = 0;  ///< ops this rank issued
  std::uint64_t failed = 0;     ///< failures this rank detected
  std::uint64_t bytes = 0;      ///< payload bytes this rank verified
  Hist lat;                     ///< wall ns per op, issue -> ack/reply/return
  Hist vlat;                    ///< virtual ns per op (model output only)
  Hist find_ns;                 ///< dds::HashTable::find wall ns
  Hist insert_ns;               ///< dds::HashTable::insert wall ns
  LoopStats loop;
};

struct Phase {
  int id = 0;                     ///< distinct per phase of a run
  std::uint64_t deadline_ns = 0;  ///< stop issuing new ops at this wall time
  Tracer* tr = nullptr;           ///< null when untraced
};

/// Setup wall times one rank measured (ms).
struct SetupTimes {
  double core_ms = 0;     ///< Photon construction (collective)
  double dds_ms = 0;      ///< dds::Service + HashTable construction
  double preload_ms = 0;  ///< kv preload, until every rank is done
};

// ---- stall guard --------------------------------------------------------------

/// What a rank is blocked in, for the hang watchdog in main.cpp.
struct Beacon {
  std::atomic<const char*> call{"setup"};
  std::atomic<int> peer{-1};
  void set(const char* c, int p) noexcept {
    // relaxed-ok: diagnostic only; read by the hang watchdog.
    call.store(c, std::memory_order_relaxed);
    peer.store(p, std::memory_order_relaxed);
  }
};

/// Thrown when a benchmark loop makes no progress for too long.
struct Stall : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Wall deadline on progress inside the benchmark's own try_* loops: a stall
/// ends the workload with the blocked call, the peer and the core's credit
/// and stall counts instead of hanging for the library's own timeouts.
class StallGuard {
 public:
  static constexpr std::uint64_t kLimitNs = 5'000'000'000ULL;

  StallGuard(photon::core::Photon& ph, Beacon& b) : ph_(ph), b_(b) {}
  void progressed(std::uint64_t now) noexcept { last_ = now; }
  void idle(std::uint64_t now, const char* call, photon::fabric::Rank peer) {
    if (last_ == 0) last_ = now;
    if (now - last_ < kLimitNs) return;
    b_.set(call, static_cast<int>(peer));
    const auto& s = ph_.stats();
    throw Stall("rank " + std::to_string(ph_.rank()) + " made no progress for " +
                std::to_string((now - last_) / 1'000'000) + " ms in " + call +
                " toward rank " + std::to_string(peer) +
                ": credit_stalls=" + std::to_string(s.credit_stalls) +
                " ledger_stalls=" + std::to_string(s.ledger_stalls) +
                " ring_credits=" + std::to_string(ph_.ring_credits_available(peer)) +
                " ledger_slots=" + std::to_string(ph_.ledger_slots_available(peer)) +
                " events_delivered=" + std::to_string(s.events_delivered) +
                " credit_returns=" + std::to_string(s.credit_returns));
  }

 private:
  photon::core::Photon& ph_;
  Beacon& b_;
  std::uint64_t last_ = 0;
};

/// Wall budget for the library's own blocking calls (drains, dds ops).
inline constexpr std::uint64_t kOpTimeoutNs = StallGuard::kLimitNs;

/// Pop every queued asynchronous op error; each is a failed op.
inline std::uint64_t drain_errors(photon::core::Photon& ph) {
  std::uint64_t n = 0;
  while (ph.probe_error()) ++n;
  return n;
}

/// One idle step of a benchmark loop that found nothing to do: consume the
/// earliest pending completion (jumping the virtual clock), or charge the
/// stall guard when nothing is pending.
inline void idle_step(photon::core::Photon& ph, const Phase& p, LoopStats& loop,
                      StallGuard& guard, std::uint64_t now, const char* call,
                      photon::fabric::Rank peer) {
  bool jumped = false;
  {
    Span span(p.tr, kJump);
    jumped = ph.progress_jump();
  }
  if (jumped) {
    ++loop.jumps;
    guard.progressed(now);
  } else {
    guard.idle(now, call, peer);
  }
}

// ---- workloads ----------------------------------------------------------------

/// One rank's constructed stack for a workload.
class RankWorkload {
 public:
  virtual ~RankWorkload() = default;
  virtual photon::core::Photon& photon() = 0;
  /// The parcel engine the workload drives, if any.
  virtual photon::parcels::ParcelEngine* engine() { return nullptr; }
  /// Run one closed-loop phase until `p.deadline_ns`, then drain it.
  virtual void run_phase(const Phase& p, PhaseOut& out) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs from `seed` (before any cluster exists).
  virtual void generate(std::uint64_t seed) = 0;
  /// Collective on every rank: build the stack, recording setup times.
  virtual std::unique_ptr<RankWorkload> setup(photon::runtime::Env& env,
                                              Beacon& beacon,
                                              SetupTimes& times) = 0;
};

std::unique_ptr<Workload> make_pwc_small();
std::unique_ptr<Workload> make_bulk_rdv();
std::unique_ptr<Workload> make_parcel_rpc();
std::unique_ptr<Workload> make_kv_zipf();

inline double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

}  // namespace perfbench
