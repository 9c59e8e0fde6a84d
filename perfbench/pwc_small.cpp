// pwc_small: per-op host cost of the core's small-message paths.
//
// Rank 0 keeps kWindow unacknowledged ops in flight toward rank 1 (closed
// loop): a seeded mix of direct PWC puts into landing slots rank 1
// published (try_put_with_completion with a local and a remote id), eager
// sends (try_send_with_completion) and zero-byte signals (try_signal), with
// 8-256 B payloads. Rank 1 verifies each delivery and acknowledges it with a
// signal carrying the op's sequence number. Bytes are negligible, so core
// posting, progress, probing and fabric CQ work dominate the time per op.
#include <cstring>
#include <deque>
#include <span>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace core = photon::core;
using photon::Status;
using photon::fabric::Rank;

constexpr std::size_t kWindow = 64;
constexpr std::size_t kSpecs = 4096;  ///< seeded op specs, cycled by sequence number
constexpr std::size_t kSlots = 4096;  ///< landing/source slots; also the tracking ring
constexpr std::size_t kSlotBytes = 256;
constexpr std::size_t kPoolBytes = 1u << 14;
/// Remote id of the end-of-phase signal (ORed with the phase id).
constexpr std::uint64_t kEndBit = std::uint64_t{1} << 60;

enum class Kind : std::uint8_t { kPut, kEager, kSignal };

struct Spec {
  Kind kind = Kind::kSignal;
  std::uint32_t len = 0;       ///< payload bytes; 0 for signals
  std::uint32_t pool_off = 0;  ///< payload bytes 8.. are pool bytes from here
};

/// Seeded inputs, shared read-only by both rank threads.
struct Inputs {
  std::vector<Spec> specs;
  std::vector<std::byte> pool;

  const Spec& spec(std::uint64_t seq) const { return specs[seq % kSpecs]; }

  /// Payload of op `seq`: its sequence number, then pool bytes.
  void fill(std::uint64_t seq, std::byte* out) const {
    const Spec& s = spec(seq);
    std::memcpy(out, &seq, 8);
    std::memcpy(out + 8, pool.data() + s.pool_off, s.len - 8);
  }
  bool matches(std::uint64_t seq, const std::byte* p, std::size_t len) const {
    const Spec& s = spec(seq);
    if (len != s.len) return false;
    if (len == 0) return true;
    std::uint64_t got = 0;
    std::memcpy(&got, p, 8);
    return got == seq &&
           std::memcmp(p + 8, pool.data() + s.pool_off, len - 8) == 0;
  }
};

/// Post until the call is accepted, progressing in between.
template <typename Post>
void post_until_ok(core::Photon& ph, StallGuard& guard, const char* call,
                   Rank peer, Post&& post) {
  for (;;) {
    const Status st = post();
    if (st == Status::Ok) return;
    if (!photon::transient(st))
      throw std::runtime_error(std::string(call) + " failed: " +
                               std::string(photon::status_name(st)));
    ph.progress();
    if (!ph.progress_jump()) guard.idle(now_ns(), call, peer);
  }
}

class PwcRank final : public RankWorkload {
 public:
  PwcRank(std::unique_ptr<core::Photon> ph, const Inputs& in, Beacon& beacon)
      : ph_(std::move(ph)),
        in_(in),
        beacon_(beacon),
        slots_(kSlots * kSlotBytes),
        track_(kSlots) {
    // Rank 0 posts out of its slots; rank 1 receives the puts into its own.
    auto desc = ph_->register_buffer(slots_.data(), slots_.size());
    if (!desc.ok()) throw std::runtime_error("pwc_small: slot registration failed");
    desc_ = desc.value();
    peers_ = ph_->exchange_descriptors(desc_);
  }
  ~PwcRank() override { ph_->unregister_buffer(desc_); }

  core::Photon& photon() override { return *ph_; }
  void run_phase(const Phase& p, PhaseOut& out) override {
    if (ph_->rank() == 0) {
      issue(p, out);
    } else {
      acknowledge(p, out);
    }
  }

 private:
  static constexpr std::uint8_t kAwaitAck = 1;
  static constexpr std::uint8_t kAwaitLocal = 2;
  struct Track {
    std::uint64_t seq = 0;
    std::uint64_t issue_ns = 0;
    std::uint64_t issue_vt = 0;
    std::uint8_t pending = 0;  ///< kAwaitAck / kAwaitLocal bits still missing
    bool bad = false;
  };

  void issue(const Phase& p, PhaseOut& out);
  void acknowledge(const Phase& p, PhaseOut& out);
  /// Book one completion of op `id`; retire the op once nothing is pending.
  void complete(std::uint64_t id, std::uint8_t bit, bool ok, std::uint64_t now,
                PhaseOut& out);

  std::unique_ptr<core::Photon> ph_;
  const Inputs& in_;
  Beacon& beacon_;
  std::vector<std::byte> slots_;
  core::BufferDescriptor desc_;
  std::vector<core::BufferDescriptor> peers_;
  std::vector<Track> track_;
  std::uint64_t next_seq_ = 0;
  std::size_t inflight_ = 0;
  std::size_t local_pending_ = 0;
};

void PwcRank::complete(std::uint64_t id, std::uint8_t bit, bool ok,
                       std::uint64_t now, PhaseOut& out) {
  Track& t = track_[id % kSlots];
  if (t.seq != id || (t.pending & bit) == 0) {  // unknown or duplicate id
    ++out.failed;
    return;
  }
  t.pending = static_cast<std::uint8_t>(t.pending & ~bit);
  t.bad = t.bad || !ok;
  if (bit == kAwaitAck) {
    out.lat.add(now - t.issue_ns);
    out.vlat.add(ph_->clock().now() - t.issue_vt);
  } else {
    --local_pending_;
  }
  if (t.pending != 0) return;
  --inflight_;
  if (t.bad) {
    ++out.failed;
  } else {
    ++out.ops;
  }
}

void PwcRank::issue(const Phase& p, PhaseOut& out) {
  core::Photon& ph = *ph_;
  StallGuard guard(ph, beacon_);
  std::byte eager[kSlotBytes];
  bool stopping = false;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= p.deadline_ns) stopping = true;
    bool moved = false;
    while (!stopping && inflight_ < kWindow) {
      const std::uint64_t seq = next_seq_;
      Track& t = track_[seq % kSlots];
      if (t.pending != 0) {  // issued kSlots ops ago and never completed
        ++out.failed;
        if ((t.pending & kAwaitLocal) != 0) --local_pending_;
        t.pending = 0;
        --inflight_;
      }
      const Spec& s = in_.spec(seq);
      const std::size_t off = (seq % kSlots) * kSlotBytes;
      if (s.kind == Kind::kPut) in_.fill(seq, slots_.data() + off);
      if (s.kind == Kind::kEager) in_.fill(seq, eager);
      const std::uint64_t issue_ns = now_ns();
      const std::uint64_t issue_vt = ph.clock().now();
      Status st = Status::Ok;
      {
        Span span(p.tr,
                  s.kind == Kind::kPut     ? kPostPut
                  : s.kind == Kind::kEager ? kPostEager
                                           : kPostSignal,
                  seq);
        switch (s.kind) {
          case Kind::kPut:
            st = ph.try_put_with_completion(
                1, core::local_slice(desc_, off, s.len),
                core::slice(peers_[1], off, s.len), seq, seq);
            break;
          case Kind::kEager:
            st = ph.try_send_with_completion(
                1, std::span<const std::byte>(eager, s.len), std::nullopt, seq);
            break;
          case Kind::kSignal:
            st = ph.try_signal(1, seq);
            break;
        }
        if (photon::transient(st)) span.reject();
      }
      ++out.loop.try_calls;
      if (photon::transient(st)) {
        ++out.loop.try_rejects;
        break;
      }
      ++next_seq_;
      ++out.attempted;
      moved = true;
      if (st != Status::Ok) {
        ++out.failed;
        continue;
      }
      const bool put = s.kind == Kind::kPut;
      t = Track{seq, issue_ns, issue_vt,
                static_cast<std::uint8_t>(kAwaitAck | (put ? kAwaitLocal : 0)),
                false};
      ++inflight_;
      if (put) ++local_pending_;
    }

    {
      Span span(p.tr, kProgress);
      ph.progress();
    }
    ++out.loop.progress_calls;
    bool got = false;
    {
      Span span(p.tr, kProbe);
      const std::uint64_t t = now_ns();
      while (auto ev = ph.probe_event()) {
        got = true;
        complete(ev->id, kAwaitAck, ev->peer == 1, t, out);
      }
      while (local_pending_ != 0) {
        auto lc = ph.probe_local();
        if (!lc) break;
        got = true;
        complete(lc->id, kAwaitLocal, lc->status == Status::Ok, t, out);
      }
    }
    out.failed += drain_errors(ph);
    if (!got) ++out.loop.progress_empty;
    if (stopping && inflight_ == 0) break;
    if (got || moved) {
      guard.progressed(now);
    } else {
      idle_step(ph, p, out.loop, guard, now,
                stopping ? "probe_event (draining acks)"
                         : "probe_event (window full)",
                1);
    }
  }
  // Rank 1 has acknowledged every op by now; tell it the phase is over.
  beacon_.set("try_signal (end of phase)", 1);
  post_until_ok(ph, guard, "try_signal (end of phase)", 1, [&] {
    return ph.try_signal(1, kEndBit | static_cast<std::uint64_t>(p.id));
  });
}

void PwcRank::acknowledge(const Phase& p, PhaseOut& out) {
  core::Photon& ph = *ph_;
  StallGuard guard(ph, beacon_);
  std::deque<std::uint64_t> acks;
  bool ended = false;
  for (;;) {
    const std::uint64_t now = now_ns();
    {
      Span span(p.tr, kProgress);
      ph.progress();
    }
    ++out.loop.progress_calls;
    bool got = false;
    {
      Span span(p.tr, kProbe);
      while (auto ev = ph.probe_event()) {
        got = true;
        if (ev->id >= kEndBit) {
          if (ev->id == (kEndBit | static_cast<std::uint64_t>(p.id))) {
            ended = true;
          } else {
            ++out.failed;
          }
          continue;
        }
        const Spec& s = in_.spec(ev->id);
        const bool put = s.kind == Kind::kPut;
        const std::byte* data =
            put ? slots_.data() + (ev->id % kSlots) * kSlotBytes
                : ev->payload.data();
        const std::size_t len = put ? s.len : ev->payload.size();
        if (ev->peer == 0 && (!put || ev->payload.empty()) &&
            in_.matches(ev->id, data, len)) {
          out.bytes += len;
        } else {
          ++out.failed;
        }
        acks.push_back(ev->id);
      }
    }
    bool moved = false;
    while (!acks.empty()) {
      Status st = Status::Ok;
      {
        Span span(p.tr, kPostSignal, acks.front());
        st = ph.try_signal(0, acks.front());
        if (photon::transient(st)) span.reject();
      }
      ++out.loop.try_calls;
      if (photon::transient(st)) {
        ++out.loop.try_rejects;
        break;
      }
      if (st != Status::Ok) ++out.failed;
      acks.pop_front();
      moved = true;
    }
    out.failed += drain_errors(ph);
    if (!got) ++out.loop.progress_empty;
    if (ended && acks.empty()) return;
    if (got || moved) {
      guard.progressed(now);
    } else {
      idle_step(ph, p, out.loop, guard, now, "probe_event (awaiting ops)", 0);
    }
  }
}

class PwcSmall final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    photon::util::Xoshiro256 rng(seed ^ 0x5057435f534d414cULL);
    in_.pool.resize(kPoolBytes);
    for (auto& b : in_.pool) b = static_cast<std::byte>(rng.next());
    in_.specs.resize(kSpecs);
    for (auto& s : in_.specs) {
      const std::uint64_t r = rng.below(100);
      s.kind = r < 40 ? Kind::kPut : r < 80 ? Kind::kEager : Kind::kSignal;
      s.len = s.kind == Kind::kSignal
                  ? 0
                  : static_cast<std::uint32_t>(8 + rng.below(kSlotBytes - 8 + 1));
      s.pool_off = static_cast<std::uint32_t>(rng.below(kPoolBytes - kSlotBytes));
    }
  }

  std::unique_ptr<RankWorkload> setup(photon::runtime::Env& env, Beacon& beacon,
                                      SetupTimes& times) override {
    const std::uint64_t t0 = now_ns();
    auto ph = std::make_unique<core::Photon>(env.nic, env.bootstrap, core::Config{});
    times.core_ms = ms_since(t0);
    return std::make_unique<PwcRank>(std::move(ph), in_, beacon);
  }

 private:
  Inputs in_;
};

}  // namespace

std::unique_ptr<Workload> make_pwc_small() { return std::make_unique<PwcSmall>(); }

}  // namespace perfbench
