// bulk_rdv: large transfers over the rendezvous (buffer-request) protocol.
//
// Closed loop, one transfer at a time, from rank 0 (data source) to rank 1:
// a seeded mix of 64 KiB-1 MiB transfers. Half are sender-push (rank 1
// post_recv_buffer_rq -> rank 0 wait_send_rq -> post_os_put -> send_fin),
// half receiver-pull (rank 0 post_send_buffer_rq -> rank 1 wait_recv_rq ->
// post_os_get -> send_fin). Rank 1 checks every payload against a checksum
// computed when the inputs were generated. Copies and the advert round trip
// dominate, so per-op overhead is diluted; reads and writes share one path.
#include <atomic>
#include <cstring>
#include <utility>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace core = photon::core;
using photon::Status;
using photon::fabric::Rank;

constexpr std::size_t kSpecs = 256;
constexpr std::size_t kPools = 4;  ///< distinct seeded source buffers
constexpr std::size_t kMinBytes = 64u << 10;
constexpr std::size_t kMaxBytes = 1u << 20;
constexpr std::size_t kStep = 4096;
/// Rendezvous tags are reused cyclically: Photon keeps one advert-queue entry
/// per (peer, tag) it has seen, so a tag per transfer would grow that map for
/// the whole run. Transfers run one at a time, so reuse is unambiguous.
constexpr std::uint64_t kTags = 1024;

/// Polynomial hash of 8-byte words [1, n) in four interleaved lanes. Word 0
/// carries the transfer's sequence number and is checked on its own.
struct Sum {
  std::uint64_t lane[4] = {};
  bool operator==(const Sum&) const = default;
};

Sum checksum(const std::byte* p, std::size_t len) {
  constexpr std::uint64_t kMul = 0x100000001b3ULL;
  const auto word = [p](std::size_t i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + 8 * i, 8);
    return w;
  };
  Sum s;
  const std::size_t n = len / 8;
  std::size_t i = 1;
  for (; i < n && i % 4 != 0; ++i) s.lane[i % 4] = s.lane[i % 4] * kMul + word(i);
  for (; i + 4 <= n; i += 4)
    for (std::size_t k = 0; k < 4; ++k) s.lane[k] = s.lane[k] * kMul + word(i + k);
  for (; i < n; ++i) s.lane[i % 4] = s.lane[i % 4] * kMul + word(i);
  return s;
}

struct Spec {
  bool push = false;
  std::uint32_t pool = 0;
  std::uint32_t len = 0;
  Sum sum;  ///< checksum of the first `len` bytes of the pool buffer
};

struct Inputs {
  std::vector<Spec> specs;
  std::vector<std::vector<std::uint64_t>> pools;
  const Spec& spec(std::uint64_t seq) const { return specs[seq % kSpecs]; }
};

/// Benchmark bookkeeping between the two rank threads (not modeled
/// traffic): rank 1 opens every transfer, and rank 0 starts transfer `seq`
/// only once `opened` > seq, so both ranks agree where a phase ends.
struct Handshake {
  std::atomic<std::uint64_t> opened{0};
  std::atomic<int> ended_phase{-1};
  std::atomic<std::uint64_t> advert_ns{0};  ///< wall time of the last advert post
};

class RdvRank final : public RankWorkload {
 public:
  RdvRank(std::unique_ptr<core::Photon> ph, const Inputs& in, Handshake& hs,
          Beacon& beacon)
      : ph_(std::move(ph)), in_(in), hs_(hs), beacon_(beacon) {
    // Rank 0 sends from private copies of the pools (it stamps word 0);
    // rank 1 lands every transfer in one buffer.
    if (ph_->rank() == 0) {
      bufs_ = in_.pools;
    } else {
      bufs_.emplace_back(kMaxBytes / 8);
    }
    for (auto& b : bufs_) {
      auto desc = ph_->register_buffer(b.data(), b.size() * 8);
      if (!desc.ok()) throw std::runtime_error("bulk_rdv: buffer registration failed");
      descs_.push_back(desc.value());
    }
  }
  ~RdvRank() override {
    for (const auto& d : descs_) ph_->unregister_buffer(d);
  }

  core::Photon& photon() override { return *ph_; }
  void run_phase(const Phase& p, PhaseOut& out) override {
    if (ph_->rank() == 0) {
      source(p, out);
    } else {
      sink(p, out);
    }
  }

 private:
  void source(const Phase& p, PhaseOut& out);
  void sink(const Phase& p, PhaseOut& out);
  /// Poll a rendezvous request with Photon::test until it completes; false
  /// when it completes with an error.
  bool await(core::RequestId rq, const Phase& p, PhaseOut& out,
             StallGuard& guard, const char* call);
  /// Poll wait_{send,recv}_rq(peer, tag, 0) until the peer's advert is in.
  photon::util::Result<core::RendezvousBuffer> await_advert(
      std::uint64_t tag, const Phase& p, PhaseOut& out, StallGuard& guard);
  Rank peer() const { return ph_->rank() == 0 ? 1 : 0; }

  std::unique_ptr<core::Photon> ph_;
  const Inputs& in_;
  Handshake& hs_;
  Beacon& beacon_;
  std::vector<std::vector<std::uint64_t>> bufs_;
  std::vector<core::BufferDescriptor> descs_;
  std::uint64_t next_seq_ = 0;
};

bool RdvRank::await(core::RequestId rq, const Phase& p, PhaseOut& out,
                    StallGuard& guard, const char* call) {
  beacon_.set(call, static_cast<int>(peer()));
  for (;;) {
    bool done = false;
    Status st = Status::Ok;
    {
      Span span(p.tr, kTest);
      st = ph_->test(rq, done);
    }
    ++out.loop.progress_calls;
    const std::uint64_t now = now_ns();
    if (st != Status::Ok) return false;
    if (done) {
      guard.progressed(now);
      return true;
    }
    ++out.loop.progress_empty;
    idle_step(*ph_, p, out.loop, guard, now, call, peer());
  }
}

photon::util::Result<core::RendezvousBuffer> RdvRank::await_advert(
    std::uint64_t tag, const Phase& p, PhaseOut& out, StallGuard& guard) {
  const bool source = ph_->rank() == 0;
  const char* call = source ? "wait_send_rq" : "wait_recv_rq";
  beacon_.set(call, static_cast<int>(peer()));
  for (;;) {
    photon::util::Result<core::RendezvousBuffer> rb = Status::NotFound;
    {
      Span span(p.tr, kWaitRq, tag);
      rb = source ? ph_->wait_send_rq(peer(), tag, 0)
                  : ph_->wait_recv_rq(peer(), tag, 0);
    }
    ++out.loop.progress_calls;
    const std::uint64_t now = now_ns();
    if (rb.status() != Status::NotFound) {
      if (rb.ok()) {
        ++out.loop.adverts;
        out.loop.advert_ns += now - hs_.advert_ns.load(std::memory_order_acquire);
        guard.progressed(now);
      }
      return rb;
    }
    ++out.loop.progress_empty;
    idle_step(*ph_, p, out.loop, guard, now, call, peer());
  }
}

void RdvRank::sink(const Phase& p, PhaseOut& out) {
  core::Photon& ph = *ph_;
  StallGuard guard(ph, beacon_);
  const auto* land = reinterpret_cast<const std::byte*>(bufs_[0].data());
  for (;;) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= p.deadline_ns) {
      hs_.ended_phase.store(p.id, std::memory_order_release);
      return;
    }
    const std::uint64_t seq = next_seq_++;
    const Spec& s = in_.spec(seq);
    const std::uint64_t vt0 = ph.clock().now();
    ++out.attempted;
    guard.progressed(t0);
    hs_.opened.store(seq + 1, std::memory_order_release);
    bool ok = false;
    if (s.push) {
      hs_.advert_ns.store(now_ns(), std::memory_order_release);
      photon::util::Result<core::RequestId> rq = Status::NotFound;
      {
        Span span(p.tr, kPostAdvert, seq);
        rq = ph.post_recv_buffer_rq(0, descs_[0], seq % kTags);
      }
      ok = rq.ok() && await(rq.value(), p, out, guard, "test (push FIN)");
    } else {
      const auto rb = await_advert(seq % kTags, p, out, guard);
      if (rb.ok()) {
        photon::util::Result<core::RequestId> get = Status::NotFound;
        {
          Span span(p.tr, kPostOsGet, seq);
          get = ph.post_os_get(0, core::local_mut_slice(descs_[0], 0, s.len),
                               rb.value());
        }
        ok = get.ok() && await(get.value(), p, out, guard, "test (os_get)");
        Status fin = Status::Ok;
        {
          Span span(p.tr, kFin, seq);
          fin = ph.send_fin(0, rb.value());
        }
        ok = ok && fin == Status::Ok;
      }
    }
    std::uint64_t word0 = 0;
    std::memcpy(&word0, land, 8);
    ok = ok && word0 == seq && checksum(land, s.len) == s.sum;
    out.failed += drain_errors(ph);
    if (!ok) {
      ++out.failed;
      continue;
    }
    ++out.ops;
    out.bytes += s.len;
    out.lat.add(now_ns() - t0);
    out.vlat.add(ph.clock().now() - vt0);
  }
}

void RdvRank::source(const Phase& p, PhaseOut& out) {
  core::Photon& ph = *ph_;
  StallGuard guard(ph, beacon_);
  for (;;) {
    const std::uint64_t seq = next_seq_;
    const char* wait = "handshake (rank 1 to open the next transfer)";
    beacon_.set(wait, 1);
    while (hs_.opened.load(std::memory_order_acquire) <= seq) {
      if (hs_.ended_phase.load(std::memory_order_acquire) == p.id) return;
      guard.idle(now_ns(), wait, 1);
    }
    guard.progressed(now_ns());
    ++next_seq_;
    const Spec& s = in_.spec(seq);
    bufs_[s.pool][0] = seq;
    const core::BufferDescriptor& src = descs_[s.pool];
    bool ok = false;
    if (s.push) {
      const auto rb = await_advert(seq % kTags, p, out, guard);
      if (rb.ok()) {
        const std::uint64_t t_put = now_ns();
        photon::util::Result<core::RequestId> put = Status::NotFound;
        {
          Span span(p.tr, kPostOsPut, seq);
          put = ph.post_os_put(1, core::local_slice(src, 0, s.len), rb.value());
        }
        ok = put.ok() && await(put.value(), p, out, guard, "test (os_put)");
        out.loop.os_put_ns += now_ns() - t_put;
        out.loop.os_put_bytes += s.len;
        Status fin = Status::Ok;
        {
          Span span(p.tr, kFin, seq);
          fin = ph.send_fin(1, rb.value());
        }
        ok = ok && fin == Status::Ok;
      }
    } else {
      hs_.advert_ns.store(now_ns(), std::memory_order_release);
      photon::util::Result<core::RequestId> rq = Status::NotFound;
      {
        Span span(p.tr, kPostAdvert, seq);
        rq = ph.post_send_buffer_rq(1, src, seq % kTags);
      }
      ok = rq.ok() && await(rq.value(), p, out, guard, "test (pull FIN)");
    }
    out.failed += drain_errors(ph);
    if (!ok) ++out.failed;
  }
}

class BulkRdv final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    photon::util::Xoshiro256 rng(seed ^ 0x42554c4b5f524456ULL);
    in_.pools.assign(kPools, std::vector<std::uint64_t>(kMaxBytes / 8));
    for (auto& pool : in_.pools)
      for (auto& w : pool) w = rng.next();
    in_.specs.resize(kSpecs);
    for (std::size_t i = 0; i < kSpecs; ++i) {
      Spec& s = in_.specs[i];
      s.push = i < kSpecs / 2;  // exactly half push; the order is shuffled below
      s.pool = static_cast<std::uint32_t>(rng.below(kPools));
      s.len = static_cast<std::uint32_t>(
          kMinBytes + rng.below((kMaxBytes - kMinBytes) / kStep + 1) * kStep);
      s.sum = checksum(reinterpret_cast<const std::byte*>(in_.pools[s.pool].data()),
                       s.len);
    }
    for (std::size_t i = kSpecs - 1; i > 0; --i)
      std::swap(in_.specs[i], in_.specs[rng.below(i + 1)]);
  }

  std::unique_ptr<RankWorkload> setup(photon::runtime::Env& env, Beacon& beacon,
                                      SetupTimes& times) override {
    const std::uint64_t t0 = now_ns();
    auto ph = std::make_unique<core::Photon>(env.nic, env.bootstrap, core::Config{});
    times.core_ms = ms_since(t0);
    return std::make_unique<RdvRank>(std::move(ph), in_, hs_, beacon);
  }

 private:
  Inputs in_;
  Handshake hs_;
};

}  // namespace

std::unique_ptr<Workload> make_bulk_rdv() { return std::make_unique<BulkRdv>(); }

}  // namespace perfbench
