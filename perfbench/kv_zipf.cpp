// kv_zipf: a dds::HashTable on the RMA backend under Zipfian key skew.
//
// The table is preloaded with every key of a kKeys domain. Each rank then
// runs a closed loop (window 1: the calls block) of 90% find and 10% insert
// over Zipf(s = 0.99) keys, and checks every returned value: it must carry
// its key and a version that some rank has written. Blocking one-sided
// CAS/get chains under hot-key contention exercise the dds layer and the
// core's own idle-wait loop, which no other workload uses.
#include <array>
#include <atomic>

#include "bench.hpp"
#include "benchsupport/keydist.hpp"
#include "dds/hash_table.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace core = photon::core;
namespace dds = photon::dds;
using photon::Status;

constexpr std::uint64_t kKeys = 1u << 13;
constexpr std::uint32_t kSlotsPerRank = 1u << 14;  ///< shard load factor ~1/4
constexpr std::size_t kOpsPerRank = 1u << 16;      ///< seeded ops, cycled
constexpr double kSkew = 0.99;
constexpr std::uint64_t kInsertPercent = 10;
constexpr std::uint64_t kVersionMask = 0x7fffffffULL;

/// Value layout: key << 32 | version << 1 | writer rank. Version 0 is the
/// preload (writer 0); each rank's own versions count up from 1.
std::uint64_t value_of(std::uint64_t key, std::uint64_t version, unsigned writer) {
  return key << 32 | (version & kVersionMask) << 1 | writer;
}

struct Op {
  std::uint64_t key = 0;
  bool insert = false;
};

struct Shared {
  std::array<std::vector<Op>, 2> ops;  ///< per rank
  /// Highest version each rank has begun to write; stored before the insert
  /// is issued, so a value read back never carries a larger one.
  std::array<std::atomic<std::uint64_t>, 2> written{};
};

dds::HashTableConfig table_config() {
  dds::HashTableConfig cfg;
  cfg.backend = dds::Backend::kRma;
  cfg.slots_per_rank = kSlotsPerRank;
  cfg.op_timeout_ns = kOpTimeoutNs;
  return cfg;
}

class KvRank final : public RankWorkload {
 public:
  KvRank(std::unique_ptr<core::Photon> ph, photon::runtime::Exchanger& oob,
         Shared& sh, Beacon& beacon)
      : ph_(std::move(ph)),
        svc_(*ph_, oob),
        table_(svc_, table_config()),
        sh_(sh),
        beacon_(beacon) {}

  /// Insert this rank's half of the key domain at version 0.
  void preload() {
    for (std::uint64_t k = 1 + ph_->rank(); k <= kKeys; k += 2)
      if (table_.insert(k, value_of(k, 0, 0)) != Status::Ok)
        throw std::runtime_error("kv_zipf: preload insert failed for key " +
                                 std::to_string(k));
  }

  core::Photon& photon() override { return *ph_; }
  void run_phase(const Phase& p, PhaseOut& out) override;

 private:
  bool valid(std::uint64_t key, std::uint64_t v) const {
    const std::uint64_t version = (v >> 1) & kVersionMask;
    const auto writer = static_cast<unsigned>(v & 1);
    if ((v >> 32) != key) return false;
    if (version == 0) return writer == 0;
    return version <= sh_.written[writer].load(std::memory_order_acquire);
  }

  std::unique_ptr<core::Photon> ph_;
  dds::Service svc_;
  dds::HashTable table_;
  Shared& sh_;
  Beacon& beacon_;
  std::size_t cursor_ = 0;
  std::uint64_t version_ = 0;
};

void KvRank::run_phase(const Phase& p, PhaseOut& out) {
  const unsigned me = ph_->rank();
  const std::vector<Op>& ops = sh_.ops[me];
  for (;;) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= p.deadline_ns) return;
    const Op& op = ops[cursor_++ % kOpsPerRank];
    const int home = static_cast<int>(table_.home_of(op.key));
    const std::uint64_t vt0 = ph_->clock().now();
    const std::uint64_t atomics0 = ph_->stats().atomics;
    bool ok = false;
    if (op.insert) {
      beacon_.set("dds::HashTable::insert", home);
      const std::uint64_t version = ++version_;
      sh_.written[me].store(version, std::memory_order_release);
      Status st = Status::Ok;
      {
        Span span(p.tr, kDdsInsert, op.key);
        st = table_.insert(op.key, value_of(op.key, version, me));
      }
      ok = st == Status::Ok;
    } else {
      beacon_.set("dds::HashTable::find", home);
      photon::util::Result<std::uint64_t> r = Status::NotFound;
      {
        Span span(p.tr, kDdsFind, op.key);
        r = table_.find(op.key);
      }
      ok = r.ok() && valid(op.key, r.value());
    }
    const std::uint64_t t1 = now_ns();
    const std::uint64_t atomics = ph_->stats().atomics - atomics0;
    if (op.insert) {
      out.insert_ns.add(t1 - t0);
      ++out.loop.dds_inserts;
      out.loop.dds_insert_atomics += atomics;
    } else {
      out.find_ns.add(t1 - t0);
      ++out.loop.dds_finds;
      out.loop.dds_find_atomics += atomics;
    }
    ++out.attempted;
    out.failed += drain_errors(*ph_);
    if (!ok) {
      ++out.failed;
      continue;
    }
    ++out.ops;
    out.bytes += sizeof(std::uint64_t);
    out.lat.add(t1 - t0);
    out.vlat.add(ph_->clock().now() - vt0);
  }
}

class KvZipf final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    for (unsigned r = 0; r < sh_.ops.size(); ++r) {
      photon::benchsupport::KeyDist keys(kKeys, kSkew, seed * 2 + r);
      photon::util::Xoshiro256 mix(seed ^ (0x4b565f5a49504600ULL + r));
      sh_.ops[r].resize(kOpsPerRank);
      for (auto& op : sh_.ops[r])
        op = Op{keys.next_key() + 1, mix.below(100) < kInsertPercent};
    }
  }

  std::unique_ptr<RankWorkload> setup(photon::runtime::Env& env, Beacon& beacon,
                                      SetupTimes& times) override {
    std::uint64_t t = now_ns();
    auto ph = std::make_unique<core::Photon>(env.nic, env.bootstrap, core::Config{});
    times.core_ms = ms_since(t);
    t = now_ns();
    auto rank = std::make_unique<KvRank>(std::move(ph), env.bootstrap, sh_, beacon);
    times.dds_ms = ms_since(t);
    t = now_ns();
    beacon.set("kv preload: dds::HashTable::insert", -1);
    rank->preload();
    env.bootstrap.barrier(env.rank);
    times.preload_ms = ms_since(t);
    return rank;
  }

 private:
  Shared sh_;
};

}  // namespace

std::unique_ptr<Workload> make_kv_zipf() { return std::make_unique<KvZipf>(); }

}  // namespace perfbench
