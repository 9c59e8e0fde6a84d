// parcel_rpc: request/reply parcels in both directions.
//
// Both ranks keep kWindow request parcels in flight toward each other
// (closed loop) and serve the other rank's requests. A request carries a
// 16-byte header and seeded args, 16-512 B in all; its handler checks the
// args and replies with the header, which the requester checks against what
// it sent. Parcel dispatch and eager-ring credits dominate: it is the core
// eager path pwc_small drives, with both ranks sending and receiving.
#include <array>
#include <cstring>
#include <span>

#include "bench.hpp"
#include "parcels/transport.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace core = photon::core;
namespace parcels = photon::parcels;
using photon::fabric::Rank;

constexpr std::size_t kWindow = 32;
constexpr std::size_t kSpecs = 4096;  ///< seeded request specs per rank, cycled
constexpr std::size_t kSlots = 4096;  ///< tracking ring of outstanding requests
constexpr std::size_t kPoolBytes = 1u << 14;
constexpr std::size_t kMaxArgs = 512;

struct Header {
  std::uint64_t seq = 0;
  std::uint32_t len = 0;    ///< total args bytes, header included
  std::uint32_t check = 0;  ///< check_of(seq, len)
};
constexpr std::size_t kMinArgs = sizeof(Header);
static_assert(kMinArgs == 16);

std::uint32_t check_of(std::uint64_t seq, std::uint32_t len) {
  std::uint64_t x = seq * 0x9e3779b97f4a7c15ULL + len;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::uint32_t>(x >> 32);
}

struct Spec {
  std::uint32_t len = 0;
  std::uint32_t pool_off = 0;  ///< args bytes after the header come from here
};

/// Seeded inputs, shared read-only by both rank threads.
struct Inputs {
  std::array<std::vector<Spec>, 2> specs;  ///< per requesting rank
  std::vector<std::byte> pool;

  const Spec& spec(Rank from, std::uint64_t seq) const {
    return specs[from][seq % kSpecs];
  }
  const std::byte* body(const Spec& s) const { return pool.data() + s.pool_off; }
};

class RpcRank final : public RankWorkload {
 public:
  RpcRank(std::unique_ptr<core::Photon> ph, const Inputs& in, Beacon& beacon)
      : ph_(std::move(ph)),
        in_(in),
        beacon_(beacon),
        peer_(ph_->rank() == 0 ? 1 : 0),
        transport_(*ph_),
        engine_(transport_, registry_),
        track_(kSlots) {
    // Same registration order on both ranks, so the handler ids match.
    h_request_ = registry_.add([this](parcels::Context& c) { on_request(c); });
    h_reply_ = registry_.add([this](parcels::Context& c) { on_reply(c); });
    h_end_ = registry_.add([this](parcels::Context& c) { on_end(c); });
  }

  core::Photon& photon() override { return *ph_; }
  parcels::ParcelEngine* engine() override { return &engine_; }
  void run_phase(const Phase& p, PhaseOut& out) override {
    out_ = &out;
    tr_ = p.tr;
    loop(p, out);
    out_ = nullptr;
    tr_ = nullptr;
  }

 private:
  struct Track {
    std::uint64_t seq = 0;
    std::uint64_t issue_ns = 0;
    std::uint64_t issue_vt = 0;
    bool pending = false;
  };

  void loop(const Phase& p, PhaseOut& out);
  void on_request(parcels::Context& ctx);
  void on_reply(parcels::Context& ctx);
  void on_end(parcels::Context& ctx);

  std::unique_ptr<core::Photon> ph_;
  const Inputs& in_;
  Beacon& beacon_;
  Rank peer_;
  parcels::PhotonTransport transport_;
  parcels::HandlerRegistry registry_;
  parcels::ParcelEngine engine_;
  parcels::HandlerId h_request_ = parcels::kInvalidHandler;
  parcels::HandlerId h_reply_ = parcels::kInvalidHandler;
  parcels::HandlerId h_end_ = parcels::kInvalidHandler;
  std::vector<Track> track_;
  std::uint64_t next_seq_ = 0;
  std::size_t inflight_ = 0;
  int peer_ended_ = -1;      ///< phase id of the peer's last end marker
  PhaseOut* out_ = nullptr;  ///< the running phase's results (handlers add to it)
  Tracer* tr_ = nullptr;
};

void RpcRank::loop(const Phase& p, PhaseOut& out) {
  StallGuard guard(*ph_, beacon_);
  std::byte args[kMaxArgs];
  bool stopping = false;
  bool end_sent = false;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= p.deadline_ns) stopping = true;
    bool moved = false;
    while (!stopping && inflight_ < kWindow) {
      const std::uint64_t seq = next_seq_++;
      Track& t = track_[seq % kSlots];
      if (t.pending) {  // sent kSlots requests ago and never answered
        ++out.failed;
        --inflight_;
      }
      const Spec& s = in_.spec(ph_->rank(), seq);
      const Header h{seq, s.len, check_of(seq, s.len)};
      std::memcpy(args, &h, sizeof h);
      std::memcpy(args + sizeof h, in_.body(s), s.len - sizeof h);
      t = Track{seq, now_ns(), ph_->clock().now(), true};
      ++inflight_;
      ++out.attempted;
      beacon_.set("ParcelEngine::send (request)", static_cast<int>(peer_));
      Span span(p.tr, kParcelSend, seq);
      engine_.send(peer_, h_request_, std::span<const std::byte>(args, s.len));
      moved = true;
    }
    if (stopping && inflight_ == 0 && !end_sent) {
      const auto id = static_cast<std::uint64_t>(p.id);
      beacon_.set("ParcelEngine::send (end of phase)", static_cast<int>(peer_));
      engine_.send(peer_, h_end_,
                   std::as_bytes(std::span<const std::uint64_t, 1>(&id, 1)));
      end_sent = true;
    }
    std::size_t dispatched = 0;
    {
      Span span(p.tr, kParcelProgress);
      dispatched = engine_.progress();
    }
    ++out.loop.progress_calls;
    out.loop.parcel_dispatched += dispatched;
    out.failed += drain_errors(*ph_);
    if (dispatched == 0) ++out.loop.progress_empty;
    if (end_sent && peer_ended_ == p.id) return;
    if (dispatched != 0 || moved) {
      guard.progressed(now);
    } else {
      idle_step(*ph_, p, out.loop, guard, now,
                stopping ? "ParcelEngine::progress (draining replies)"
                         : "ParcelEngine::progress (window full)",
                peer_);
    }
  }
}

void RpcRank::on_request(parcels::Context& ctx) {
  const auto args = ctx.args();
  Header h;
  bool ok = args.size() >= sizeof h && ctx.src() < in_.specs.size();
  if (ok) {
    std::memcpy(&h, args.data(), sizeof h);
    const Spec& s = in_.spec(ctx.src(), h.seq);
    ok = h.len == args.size() && h.len == s.len &&
         h.check == check_of(h.seq, h.len) &&
         std::memcmp(args.data() + sizeof h, in_.body(s), s.len - sizeof h) == 0;
  }
  if (ok) {
    out_->bytes += args.size();
  } else {
    ++out_->failed;
  }
  Span span(tr_, kParcelSend, h.seq);
  ctx.reply(h_reply_, std::as_bytes(std::span<const Header, 1>(&h, 1)));
}

void RpcRank::on_reply(parcels::Context& ctx) {
  const auto args = ctx.args();
  Header h;
  if (args.size() != sizeof h) {
    ++out_->failed;
    return;
  }
  std::memcpy(&h, args.data(), sizeof h);
  Track& t = track_[h.seq % kSlots];
  if (!t.pending || t.seq != h.seq) {  // unknown or duplicate reply
    ++out_->failed;
    return;
  }
  t.pending = false;
  --inflight_;
  const Spec& s = in_.spec(ph_->rank(), h.seq);
  if (h.len != s.len || h.check != check_of(h.seq, h.len)) {
    ++out_->failed;
    return;
  }
  ++out_->ops;
  out_->lat.add(now_ns() - t.issue_ns);
  out_->vlat.add(ph_->clock().now() - t.issue_vt);
}

void RpcRank::on_end(parcels::Context& ctx) {
  std::uint64_t id = 0;
  if (ctx.args().size() != sizeof id) {
    ++out_->failed;
    return;
  }
  std::memcpy(&id, ctx.args().data(), sizeof id);
  peer_ended_ = static_cast<int>(id);
}

class ParcelRpc final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    photon::util::Xoshiro256 rng(seed ^ 0x50415243454c5250ULL);
    in_.pool.resize(kPoolBytes);
    for (auto& b : in_.pool) b = static_cast<std::byte>(rng.next());
    for (auto& specs : in_.specs) {
      specs.resize(kSpecs);
      for (auto& s : specs) {
        s.len = static_cast<std::uint32_t>(kMinArgs +
                                           rng.below(kMaxArgs - kMinArgs + 1));
        s.pool_off = static_cast<std::uint32_t>(rng.below(kPoolBytes - kMaxArgs));
      }
    }
  }

  std::unique_ptr<RankWorkload> setup(photon::runtime::Env& env, Beacon& beacon,
                                      SetupTimes& times) override {
    const std::uint64_t t0 = now_ns();
    auto ph = std::make_unique<core::Photon>(env.nic, env.bootstrap, core::Config{});
    times.core_ms = ms_since(t0);
    return std::make_unique<RpcRank>(std::move(ph), in_, beacon);
  }

 private:
  Inputs in_;
};

}  // namespace

std::unique_ptr<Workload> make_parcel_rpc() { return std::make_unique<ParcelRpc>(); }

}  // namespace perfbench
