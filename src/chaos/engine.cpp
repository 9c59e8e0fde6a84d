#include "chaos/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "check/checker.hpp"
#include "coll/communicator.hpp"
#include "core/photon.hpp"
#include "dds/hash_table.hpp"
#include "dds/lock.hpp"
#include "dds/queue.hpp"
#include "parcels/transport.hpp"
#include "runtime/cluster.hpp"
#include "telemetry/metrics.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace photon::chaos {

namespace {

constexpr std::uint64_t kWait = 5'000'000'000ULL;  // per-op vtime budget
constexpr std::size_t kSlot = 256;                 // RDMA landing slot bytes
constexpr std::uint32_t kMaxRanks = 8;             // OOB ledger row width
constexpr std::size_t kHeader = 16;                // parcel payload header

/// Cross-rank violation sink.
struct ViolationSink {
  util::Mutex mutex;
  std::vector<ViolationInfo> violations GUARDED_BY(mutex);

  void add(std::string kind, std::string detail) {
    util::LockGuard lock(mutex);
    violations.push_back({std::move(kind), std::move(detail)});
  }
};

/// Per-(src -> dst) attempted/acked fetch-add sums, exchanged OOB at the
/// end of the run for the counter-conservation oracle.
struct AtomicSums {
  std::uint64_t attempted[kMaxRanks] = {};
  std::uint64_t acked[kMaxRanks] = {};
};

/// Deterministic payload bytes for (schedule, src, phase, idx).
std::vector<std::byte> chaos_pattern(const Schedule& s, fabric::Rank src,
                                     std::uint32_t phase, std::uint32_t idx,
                                     std::size_t len) {
  std::vector<std::byte> out(len);
  util::Xoshiro256 rng(sub_seed(s.seed, s.index,
                                src * 0x10000ULL + phase, idx));
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// Parcel payload: [src u32][phase u32][idx u32][body_len u32][body...].
std::vector<std::byte> make_parcel(const Schedule& s, fabric::Rank src,
                                   std::uint32_t phase, std::uint32_t idx,
                                   std::size_t body_len) {
  std::vector<std::byte> p(kHeader + body_len);
  const std::uint32_t hdr[4] = {src, phase, idx,
                                static_cast<std::uint32_t>(body_len)};
  std::memcpy(p.data(), hdr, kHeader);
  const auto body = chaos_pattern(s, src, phase, idx, body_len);
  std::memcpy(p.data() + kHeader, body.data(), body_len);
  return p;
}

std::uint64_t parcel_key(fabric::Rank src, std::uint32_t phase,
                         std::uint32_t idx) {
  return (static_cast<std::uint64_t>(src) << 48) |
         (static_cast<std::uint64_t>(phase) << 24) | idx;
}

/// dead[phase][rank] derived purely from the schedule's kill/revive events:
/// a rank is dead from its kill phase until (exclusive) its revive phase.
std::vector<std::vector<bool>> dead_map(const Schedule& s) {
  std::vector<std::vector<bool>> dead(s.phases,
                                      std::vector<bool>(s.nranks, false));
  for (const auto& e : s.events) {
    if (e.kind != EventKind::kKill || e.peer >= s.nranks) continue;
    std::uint32_t until = s.phases;  // no revive: dead to the end
    for (const auto& r : s.events)
      if (r.kind == EventKind::kRevive && r.peer == e.peer &&
          r.phase > e.phase)
        until = std::min(until, r.phase);
    for (std::uint32_t p = e.phase; p < until; ++p) dead[p][e.peer] = true;
  }
  return dead;
}

void apply_event(runtime::Env& env, const FaultEvent& e) {
  using fabric::FaultInjector;
  using fabric::WireFault;
  switch (e.kind) {
    case EventKind::kWireDrop:
    case EventKind::kWireAckDrop:
    case EventKind::kWireCorrupt:
    case EventKind::kWireDelay: {
      if (e.actor != env.rank) return;
      FaultInjector::WireFaultSpec spec;
      spec.kind = e.kind == EventKind::kWireDrop      ? WireFault::kDrop
                  : e.kind == EventKind::kWireAckDrop ? WireFault::kAckDrop
                  : e.kind == EventKind::kWireCorrupt ? WireFault::kCorrupt
                                                      : WireFault::kDelay;
      spec.only_op = e.only_op;
      spec.only_peer = e.peer;
      spec.nth = e.nth;
      spec.delay_ns = e.delay_ns;
      env.nic.faults().arm_wire(spec);
      return;
    }
    case EventKind::kWireRandom: {
      if (e.actor != env.rank) return;
      FaultInjector::WireRandomConfig cfg;
      cfg.only_peer = e.peer;
      cfg.drop_p = e.loss_p * 0.4;
      cfg.ack_drop_p = e.loss_p * 0.3;
      cfg.corrupt_p = e.loss_p * 0.2;
      cfg.delay_p = e.loss_p * 0.1;
      cfg.seed = e.rng_salt;
      env.nic.faults().set_wire_random(cfg);
      return;
    }
    case EventKind::kLinkFlap: {
      if (e.actor != env.rank) return;
      const std::uint64_t base = env.clock().now();
      env.nic.faults().set_link_window(
          {e.peer, base + e.offset_ns, base + e.offset_ns + e.width_ns});
      return;
    }
    case EventKind::kKill:
      if (e.actor == env.rank && e.peer < env.size)
        env.cluster.fabric().kill(e.peer);
      return;
    case EventKind::kRevive:
      if (e.actor == env.rank && e.peer < env.size)
        env.cluster.fabric().revive(e.peer);
      return;
  }
}

/// One rank's whole campaign body. Kept as a function (not a lambda) so the
/// phase structure reads top to bottom.
void run_rank(runtime::Env& env, const Schedule& s,
              const std::vector<std::vector<bool>>& dead,
              ViolationSink& sink) {
  const fabric::Rank me = env.rank;
  const std::uint32_t n = env.size;
  core::Photon ph(env.nic, env.bootstrap, core::Config{});
  coll::Communicator comm(ph);

  auto fail = [&](const char* kind, const std::string& detail) {
    sink.add(kind, "rank " + std::to_string(me) + " phase?: " + detail);
  };

  // Landing zone partitioned by initiator: slot (src, i) at a fixed offset,
  // so concurrent initiators never overlap under the race-mode checker.
  std::vector<std::byte> land(
      static_cast<std::size_t>(n) * s.ops_per_phase * kSlot, std::byte{0});
  std::vector<std::byte> stage(kSlot), scratch(kSlot);
  alignas(8) std::uint64_t cell = 0;
  alignas(8) std::uint64_t guard = 0;   // lock-lane shared counter (rank 0's)
  alignas(8) std::uint64_t lk_tmp = 0;  // guard read-modify-write staging

  auto land_d = ph.register_buffer(land.data(), land.size());
  auto stage_d = ph.register_buffer(stage.data(), stage.size());
  auto scratch_d = ph.register_buffer(scratch.data(), scratch.size());
  auto cell_d = ph.register_buffer(&cell, sizeof(cell));
  auto guard_d = ph.register_buffer(&guard, sizeof(guard));
  auto lk_d = ph.register_buffer(&lk_tmp, sizeof(lk_tmp));
  if (!land_d.ok() || !stage_d.ok() || !scratch_d.ok() || !cell_d.ok() ||
      !guard_d.ok() || !lk_d.ok()) {
    fail("setup", "register_buffer failed");
    return;
  }
  auto all_land = ph.exchange_descriptors(land_d.value());
  auto all_cell = ph.exchange_descriptors(cell_d.value());
  auto all_guard = ph.exchange_descriptors(guard_d.value());

  // DDS lane substrate: a pure-RMA distributed hash table — replicated with
  // an MPMC queue and an MCS lock alongside it under an HA schedule — all
  // collectively constructed before any fault fires. The chaos parcel
  // traffic below shares the Service's engine, so exactly one transport
  // polls this Photon instance: the structures' progress loops and the
  // chaos drain dispatch each other's parcels instead of stealing them.
  dds::Service dsvc(ph, env.bootstrap);
  dds::HashTableConfig dht_cfg;
  dht_cfg.backend = dds::Backend::kRma;
  dht_cfg.slots_per_rank = 1u << 12;
  dht_cfg.op_timeout_ns = kWait;
  dht_cfg.scope = "chaos.dds";
  dht_cfg.replicate = s.dds_replicate;
  dds::HashTable dht(dsvc, dht_cfg);
  std::optional<dds::Queue> dq;
  std::optional<dds::Lock> dlk;
  if (s.dds_replicate) {
    dds::QueueConfig qc;
    qc.backend = dds::Backend::kRma;
    qc.home = 1;  // nranks >= 2 always; replica set {1, 2 % n}
    qc.op_timeout_ns = kWait;
    qc.scope = "chaos.dds.q";
    qc.replicate = true;
    dq.emplace(dsvc, qc);
    dds::LockConfig lc;
    lc.backend = dds::Backend::kRma;
    lc.home = 1;
    lc.op_timeout_ns = kWait;
    lc.scope = "chaos.dds.lock";
    lc.replicate = true;
    dlk.emplace(dsvc, lc);
  }
  const bool rep = dht.replicated();

  // Chaos parcel receipt: two registry handlers — ids 2 and 3 on every rank,
  // because the Service's fence handler is 1 and RMA-backed structures
  // register none — stash inbound parcels for the phase drain.
  struct Inbound {
    fabric::Rank src = 0;
    std::vector<std::byte> args;
  };
  std::deque<Inbound> inbox;
  const auto stash = [&inbox](parcels::Context& ctx) {
    inbox.push_back({ctx.src(), {ctx.args().begin(), ctx.args().end()}});
  };
  const parcels::HandlerId h_small = dsvc.registry().add(stash);
  const parcels::HandlerId h_msg = dsvc.registry().add(stash);
  parcels::Transport& tr = dsvc.engine().transport();

  std::vector<std::uint64_t> my_acked;  // inserts acked to me, campaign-wide
  std::vector<std::uint64_t> my_enq;    // queue values I enqueued, acked
  std::vector<std::uint64_t> my_deq;    // queue values I dequeued
  struct LockSums {
    std::uint64_t counted = 0;    // guard increments confirmed under the lock
    std::uint64_t attempted = 0;  // guard increments posted under the lock
  };
  LockSums my_lock;
  // lost[h]: both replicas of shard h were down in the same phase — the
  // strong oracle cannot vouch for h past that point. Never set by generated
  // HA schedules (kills are staggered around revives); guards replayed or
  // hand-written ones.
  std::vector<bool> lost(n, false);
  const auto dht_value = [](std::uint64_t key) {
    return dds::mix64(key) | 1;  // never 0: distinguishes "empty" readback
  };
  env.bootstrap.barrier(me);

  util::Xoshiro256 wrng(sub_seed(s.seed, s.index, 0xA0 + me));
  std::unordered_set<std::uint64_t> seen_parcels;  // exactly-once ledger
  AtomicSums my_sums;

  for (std::uint32_t phase = 0; phase < s.phases; ++phase) {
    const bool was_dead = phase > 0 && dead[phase - 1][me];
    const bool am_dead = dead[phase][me];
    env.note("apply_events");

    // 1. Apply this phase's fault events (each event has one owner).
    for (const auto& e : s.events)
      if (e.phase == phase) apply_event(env, e);
    env.bootstrap.barrier(me);  // everyone observes kills/cuts

    // 2. Membership choreography derived from the shared schedule.
    std::uint32_t newly_dead = 0, members = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      if (dead[phase][r] && (phase == 0 || !dead[phase - 1][r])) ++newly_dead;
      if (!dead[phase][r]) ++members;
    }
    if (newly_dead > 0 && !am_dead) {
      env.note("shrink");
      try {
        const std::uint32_t removed = comm.shrink();
        if (removed != newly_dead)
          fail("choreography", "shrink removed " + std::to_string(removed) +
                                   ", expected " + std::to_string(newly_dead));
      } catch (const std::exception& ex) {
        fail("choreography", std::string("shrink threw: ") + ex.what());
      }
    }
    for (std::uint32_t r = 0; r < n; ++r) {
      if (phase == 0 || !dead[phase - 1][r] || dead[phase][r]) continue;
      // r came back this phase: everyone (survivors and r itself) rejoins.
      env.note("rejoin", r);
      Status st = Status::Ok;
      for (int attempt = 0; attempt < 3; ++attempt) {
        try {
          st = comm.rejoin(r);
        } catch (const std::exception& ex) {
          fail("choreography", std::string("rejoin threw: ") + ex.what());
          st = Status::Timeout;
        }
        if (st == Status::Ok) break;
      }
      if (st != Status::Ok)
        fail("choreography",
             "rejoin(" + std::to_string(r) + ") failed after retries");
      // Re-replication: the rejoiner's memory is stale (it missed every op
      // and promotion while dead), so the current owner of each affected
      // shard pushes state back — directory rows first, then structure
      // payloads — before the phase workload can mirror into it again.
      if (rep && st == Status::Ok && !am_dead) {
        env.note("ha_resync", r);
        if (dsvc.directory().resync(r, kWait) != Status::Ok)
          fail("choreography",
               "directory resync(" + std::to_string(r) + ") failed");
        if (dht.ha_resync(r) != Status::Ok)
          fail("choreography",
               "hash ha_resync(" + std::to_string(r) + ") failed");
        if (dq && dq->ha_resync(r) != Status::Ok)
          fail("choreography",
               "queue ha_resync(" + std::to_string(r) + ") failed");
        if (dlk && dlk->ha_resync(r) != Status::Ok)
          fail("choreography",
               "lock ha_resync(" + std::to_string(r) + ") failed");
      }
    }
    env.bootstrap.barrier(me);

    // 3. Seeded mixed workload (alive ranks only).
    std::array<std::uint32_t, kMaxRanks> sent{};
    if (!am_dead) {
      // Alive peers this phase, excluding me.
      std::vector<fabric::Rank> peers;
      for (std::uint32_t r = 0; r < n; ++r)
        if (r != me && !dead[phase][r]) peers.push_back(r);
      std::vector<fabric::Rank> corpses;
      for (std::uint32_t r = 0; r < n; ++r)
        if (dead[phase][r]) corpses.push_back(r);

      for (std::uint32_t i = 0; i < s.ops_per_phase && !peers.empty(); ++i) {
        const fabric::Rank dst = peers[wrng.below(peers.size())];
        const double pick = wrng.unit();
        if (!corpses.empty() && wrng.unit() < 0.15) {
          // Doomed post: the peer is latched Down everywhere; the probe
          // aborts against the permanent cut and the post must fail fast.
          env.note("doomed_send", corpses[0]);
          const auto st = tr.send(corpses[0], h_small,
                                  make_parcel(s, me, phase, 0xFFFFFF, 32));
          if (st != Status::PeerUnreachable)
            fail("liveness", "send to dead rank returned status " +
                                 std::to_string(static_cast<int>(st)));
        }
        if (pick < 0.45) {
          // One-sided put + get read-back, digest-verified. Local ids only:
          // nothing enters the peer's parcel event stream.
          const std::size_t len = 32 + wrng.below(kSlot - 32 + 1);
          const auto payload = chaos_pattern(s, me, phase, 0x8000 + i, len);
          std::memcpy(stage.data(), payload.data(), len);
          const std::size_t off =
              (static_cast<std::size_t>(me) * s.ops_per_phase + i) * kSlot;
          const std::uint64_t id =
              (static_cast<std::uint64_t>(phase) << 16) | (i << 1);
          env.note("put", dst);
          auto st = ph.put_with_completion(
              dst, core::local_slice(stage_d.value(), 0, len),
              core::slice(all_land[dst], off, len), id, std::nullopt, kWait);
          core::LocalComplete lc;
          if (st != Status::Ok ||
              ph.wait_local(lc, kWait) != Status::Ok) {
            fail("payload", "put failed at phase " + std::to_string(phase));
            continue;
          }
          env.note("get", dst);
          st = ph.get_with_completion(
              dst, core::local_mut_slice(scratch_d.value(), 0, len),
              core::slice(all_land[dst], off, len), id | 1, std::nullopt,
              kWait);
          if (st != Status::Ok ||
              ph.wait_local(lc, kWait) != Status::Ok) {
            fail("payload", "get failed at phase " + std::to_string(phase));
            continue;
          }
          if (std::memcmp(scratch.data(), payload.data(), len) != 0)
            fail("payload", "put/get round-trip mismatch at phase " +
                                std::to_string(phase) + " op " +
                                std::to_string(i) + " dst " +
                                std::to_string(dst));
        } else if (pick < 0.85) {
          // Small parcel ("parcels" class) or msg-class traffic: both ride
          // the eager path with a self-describing header.
          const parcels::HandlerId h = pick < 0.70 ? h_small : h_msg;
          const std::size_t body = 24 + wrng.below(200);
          env.note("parcel_send", dst);
          const auto st =
              tr.send(dst, h, make_parcel(s, me, phase, i, body));
          if (st == Status::Ok) {
            ++sent[dst];
          } else {
            fail("payload", "parcel send failed with status " +
                                std::to_string(static_cast<int>(st)));
          }
        } else {
          // Large parcel: above the eager threshold, exercises the full
          // advert / os_get / FIN rendezvous machinery.
          const std::size_t body = 9000 + wrng.below(2048);
          env.note("parcel_send_large", dst);
          const auto st =
              tr.send(dst, h_small, make_parcel(s, me, phase, i, body));
          if (st == Status::Ok) {
            ++sent[dst];
          } else {
            fail("payload", "large parcel send failed with status " +
                                std::to_string(static_cast<int>(st)));
          }
        }
      }
    }

    // 3b. DDS lane: hash-table inserts of campaign-unique keys against
    // shards reachable this phase — home alive, or (replicated) the backup
    // alive to promote — plus read-back of my own recent acked keys. Only
    // an acked (Status::Ok) insert enters the conservation ledger; an
    // insert that fails under an injected fault is simply not owed to
    // anyone. Under replication an insert with a live replica MUST succeed:
    // kills land at quiesced phase boundaries, so failover is the only
    // obstacle and it is supposed to be transparent.
    if (rep)
      for (std::uint32_t h = 0; h < n; ++h)
        if (dead[phase][h] && dead[phase][(h + 1) % n]) lost[h] = true;
    if (!am_dead) {
      const std::uint32_t dds_ops = s.ops_per_phase / 2 + 1;
      for (std::uint32_t i = 0; i < dds_ops; ++i) {
        const std::uint64_t key = (static_cast<std::uint64_t>(me + 1) << 40) |
                                  (static_cast<std::uint64_t>(phase) << 20) | i;
        const fabric::Rank home = dht.home_of(key);
        const bool home_up = !dead[phase][home];
        const bool backup_up = rep && !dead[phase][(home + 1) % n];
        if (!home_up && !backup_up) continue;  // no replica can serve
        env.note("dds_insert", home);
        if (dht.insert(key, dht_value(key)) == Status::Ok)
          my_acked.push_back(key);
        else if (rep)
          fail("dds-availability",
               "insert with a live replica failed at phase " +
                   std::to_string(phase) + " shard " + std::to_string(home));
      }
      // My own acked inserts must stay visible while a replica is up: a
      // NotFound or a wrong value here is data loss, full stop. Transient
      // failures (a fault in flight) are left to the final oracle.
      for (std::size_t j = my_acked.size() > 8 ? my_acked.size() - 8 : 0;
           j < my_acked.size(); ++j) {
        const std::uint64_t key = my_acked[j];
        const fabric::Rank home = dht.home_of(key);
        const bool home_up = !dead[phase][home];
        const bool backup_up = rep && !dead[phase][(home + 1) % n];
        if (lost[home] || (!home_up && !backup_up)) continue;
        env.note("dds_find", home);
        const auto v = dht.find(key);
        if (v.ok()) {
          if (v.value() != dht_value(key))
            fail("dds-conservation",
                 "acked key " + std::to_string(key) + " holds " +
                     std::to_string(v.value()) + ", expected " +
                     std::to_string(dht_value(key)));
        } else if (v.status() == Status::NotFound) {
          fail("dds-conservation",
               "acked key " + std::to_string(key) + " vanished at phase " +
                   std::to_string(phase));
        }
      }
    }

    // 3c. Replicated queue + lock lanes (HA schedules only). Each alive
    // rank enqueues a batch of campaign-unique values, then — after a
    // barrier, so the ring holds exactly this phase's acked values —
    // dequeues as many as it enqueued successfully: every phase drains the
    // queue completely, a boundary kill never has queue state in flight,
    // and the final multiset oracle catches any value a failover dropped,
    // duplicated, or corrupted. The lock lane increments a shared counter
    // on rank 0 by read-modify-write under the lock: a double-grant across
    // failover surfaces as a lost update (counter < confirmed increments).
    if (s.dds_replicate) {
      std::uint32_t enq_ok = 0;
      if (!am_dead) {
        const std::uint32_t q_ops = s.ops_per_phase / 2 + 1;
        for (std::uint32_t i = 0; i < q_ops; ++i) {
          const std::uint64_t v =
              (1ULL << 56) | (static_cast<std::uint64_t>(me + 1) << 40) |
              (static_cast<std::uint64_t>(phase) << 20) | i;
          env.note("dds_enqueue", dq->home());
          if (dq->enqueue(v) == Status::Ok) {
            my_enq.push_back(v);
            ++enq_ok;
          } else {
            fail("dds-queue-conservation",
                 "enqueue with a live replica failed at phase " +
                     std::to_string(phase));
          }
        }
      }
      env.bootstrap.barrier(me);  // acked enqueues visible before dequeues
      if (!am_dead) {
        for (std::uint32_t i = 0; i < enq_ok; ++i) {
          env.note("dds_dequeue", dq->home());
          const auto v = dq->dequeue();
          if (v.ok())
            my_deq.push_back(v.value());
          else
            fail("dds-queue-conservation",
                 "dequeue failed at phase " + std::to_string(phase) + ": " +
                     std::string(status_name(v.status())));
        }
        for (std::uint32_t c = 0; c < 2; ++c) {
          env.note("dds_lock");
          if (dlk->acquire() != Status::Ok) {
            fail("dds-lock",
                 "acquire failed at phase " + std::to_string(phase));
            continue;
          }
          if (me == 0) {
            // The guard lives in my memory: plain local read-modify-write.
            std::atomic_ref<std::uint64_t> g(guard);
            g.store(g.load(std::memory_order_acquire) + 1,
                    std::memory_order_release);
            ++my_lock.attempted;
            ++my_lock.counted;
          } else {
            const std::uint64_t id =
                (1ULL << 32) | (static_cast<std::uint64_t>(phase) << 8) |
                (c << 1);
            core::LocalComplete lc;
            Status st = ph.get_with_completion(
                0, core::local_mut_slice(lk_d.value(), 0, 8),
                core::slice(all_guard[0], 0, 8), id, std::nullopt, kWait);
            if (st == Status::Ok) st = ph.wait_local(lc, kWait);
            if (st == Status::Ok) {
              ++lk_tmp;
              st = ph.put_with_completion(
                  0, core::local_slice(lk_d.value(), 0, 8),
                  core::slice(all_guard[0], 0, 8), id | 1, std::nullopt,
                  kWait);
              if (st == Status::Ok) {
                ++my_lock.attempted;
                if (ph.wait_local(lc, kWait) == Status::Ok) ++my_lock.counted;
              }
            } else {
              fail("dds-lock", "guard read failed under the lock at phase " +
                                   std::to_string(phase));
            }
          }
          if (dlk->release() != Status::Ok)
            fail("dds-lock",
                 "release failed at phase " + std::to_string(phase));
        }
      }
    }

    // 4. Exactly-once drain: OOB-exchange per-destination sent counts, then
    // poll until every expected parcel arrived. All sends this phase were
    // between ranks alive all phase long, so the expectation is exact —
    // a missing parcel (lost), an extra one (duplicate), or a body
    // mismatch (corruption) is an oracle violation.
    const auto all_sent = env.bootstrap.all_gather(me, sent);
    std::uint32_t expect = 0;
    for (std::uint32_t src = 0; src < n; ++src)
      if (src != me) expect += all_sent[src][me];
    std::uint32_t got = 0;
    const std::uint64_t drain_start = env.clock().now();
    env.note("parcel_drain");
    // No wall budget: the drain is bounded in virtual time instead.
    (void)ph.wait_for(util::kNoDeadline, [&](bool& progressed) -> std::optional<bool> {
      if (got >= expect) return true;
      if (env.clock().now() - drain_start > 10 * kWait) {
        fail("payload", "parcel drain timed out at phase " +
                            std::to_string(phase) + ": got " +
                            std::to_string(got) + "/" + std::to_string(expect));
        return false;
      }
      if (inbox.empty()) {
        dsvc.progress();  // dispatches inbound parcels into the inbox
        return std::nullopt;
      }
      progressed = true;
      const Inbound p = std::move(inbox.front());
      inbox.pop_front();
      ++got;
      if (p.args.size() < kHeader) {
        fail("payload", "parcel shorter than header");
        return std::nullopt;
      }
      std::uint32_t hdr[4];
      std::memcpy(hdr, p.args.data(), kHeader);
      const auto key = parcel_key(hdr[0], hdr[1], hdr[2]);
      if (hdr[0] != p.src) {
        fail("payload", "parcel source mismatch: header says " +
                            std::to_string(hdr[0]) + ", transport says " +
                            std::to_string(p.src));
      } else if (!seen_parcels.insert(key).second) {
        fail("payload", "duplicate parcel src " + std::to_string(hdr[0]) +
                            " phase " + std::to_string(hdr[1]) + " idx " +
                            std::to_string(hdr[2]));
      } else {
        const auto body = chaos_pattern(s, hdr[0], hdr[1], hdr[2], hdr[3]);
        if (p.args.size() != kHeader + body.size() ||
            std::memcmp(p.args.data() + kHeader, body.data(), body.size()) != 0)
          fail("payload", "parcel body mismatch src " +
                              std::to_string(hdr[0]) + " phase " +
                              std::to_string(hdr[1]) + " idx " +
                              std::to_string(hdr[2]));
      }
      return std::nullopt;
    });
    env.note("quiesce");
    if (tr.quiesce(kWait) != Status::Ok)
      fail("liveness", "transport quiesce failed at phase " +
                           std::to_string(phase));
    if (ph.quiesce(kWait) != Status::Ok)
      fail("liveness",
           "photon quiesce failed at phase " + std::to_string(phase));
    env.bootstrap.barrier(me);

    // 5. Remote-atomic burst over the alive ring. Raw NIC ops with wr_id 0,
    // consumed directly off the send CQ while Photon is quiescent (the same
    // discipline as bench_atomics) — Photon never sees these completions.
    if (!am_dead && members >= 2) {
      fabric::Rank target = (me + 1) % n;
      while (dead[phase][target]) target = (target + 1) % n;
      const std::uint32_t burst = 2 + static_cast<std::uint32_t>(wrng.below(5));
      env.note("fetch_add", target);
      for (std::uint32_t i = 0; i < burst; ++i) {
        const std::uint64_t v = 1 + wrng.below(9);
        my_sums.attempted[target] += v;
        if (env.nic.post_fetch_add(
                target, {all_cell[target].addr, all_cell[target].rkey}, v,
                0) != Status::Ok)
          continue;
        fabric::Completion c;
        if (env.nic.wait_send(c, kWait) == Status::Ok &&
            c.status == Status::Ok)
          my_sums.acked[target] += v;
      }
    }
    env.bootstrap.barrier(me);

    // 6. Collective over the alive group: allreduce with a value that makes
    // the expected sum a pure function of (phase, membership).
    if (!am_dead && members >= 2) {
      std::uint64_t expected = 0;
      for (std::uint32_t r = 0; r < n; ++r)
        if (!dead[phase][r]) expected += r + 1 + phase;
      std::vector<std::uint64_t> v{me + 1ull + phase};
      env.note("allreduce");
      try {
        comm.allreduce(std::span(v), coll::ReduceOp::kSum);
        if (v[0] != expected)
          fail("collective", "allreduce sum " + std::to_string(v[0]) +
                                 " != expected " + std::to_string(expected) +
                                 " at phase " + std::to_string(phase));
      } catch (const std::exception& ex) {
        fail("collective", std::string("allreduce threw at phase ") +
                               std::to_string(phase) + ": " + ex.what());
      }
    }
    env.note("phase_barrier");
    env.bootstrap.barrier(me);
    (void)was_dead;
  }

  // Final drain, then the counter-conservation oracle: my cell must hold at
  // least every acked add and at most every attempted add. More than the
  // attempted sum means some add executed twice — the duplicate-application
  // bug the dedup fixture plants.
  env.note("final_quiesce");
  if (tr.quiesce(kWait) != Status::Ok)
    fail("liveness", "final transport quiesce failed");
  if (ph.quiesce(kWait) != Status::Ok)
    fail("liveness", "final photon quiesce failed");
  env.bootstrap.barrier(me);

  const auto all_sums = env.bootstrap.all_gather(me, my_sums);
  std::uint64_t acked_to_me = 0, attempted_to_me = 0;
  for (std::uint32_t src = 0; src < n; ++src) {
    acked_to_me += all_sums[src].acked[me];
    attempted_to_me += all_sums[src].attempted[me];
  }
  const std::uint64_t cell_final =
      std::atomic_ref<std::uint64_t>(cell).load(std::memory_order_acquire);
  if (cell_final < acked_to_me || cell_final > attempted_to_me)
    fail("atomic-conservation",
         "cell holds " + std::to_string(cell_final) + ", acked " +
             std::to_string(acked_to_me) + ", attempted " +
             std::to_string(attempted_to_me));
  env.bootstrap.barrier(me);

  // DDS conservation oracle: gather everyone's acked-insert ledgers (dead
  // ranks contribute what they acked before dying — those inserts live on
  // other ranks' shards), then every survivor must find every acked key
  // whose shard is still checkable, value intact. Unreplicated: checkable
  // means the home outlived the campaign. Replicated (the strong form): at
  // least one replica alive at the end and the shard never lost both
  // replicas at once — NO acked op may be lost under any kill schedule that
  // leaves one replica standing.
  const auto last = s.phases - 1;
  const auto all_acked = env.bootstrap.all_exchange(
      me, std::as_bytes(std::span(my_acked.data(), my_acked.size())));
  if (!dead[last][me]) {
    for (std::uint32_t src = 0; src < n; ++src) {
      const auto* keys =
          reinterpret_cast<const std::uint64_t*>(all_acked[src].data());
      const std::size_t cnt = all_acked[src].size() / sizeof(std::uint64_t);
      for (std::size_t j = 0; j < cnt; ++j) {
        const std::uint64_t key = keys[j];
        const fabric::Rank home = dht.home_of(key);
        const bool home_up = !dead[last][home];
        const bool backup_up = rep && !dead[last][(home + 1) % n];
        if (rep ? (lost[home] || (!home_up && !backup_up)) : !home_up)
          continue;
        const auto v = dht.find(key);
        if (!v.ok())
          fail("dds-conservation",
               "survivor cannot find acked key " + std::to_string(key) +
                   " from rank " + std::to_string(src) + ": " +
                   std::string(status_name(v.status())));
        else if (v.value() != dht_value(key))
          fail("dds-conservation",
               "acked key " + std::to_string(key) + " holds " +
                   std::to_string(v.value()) + ", expected " +
                   std::to_string(dht_value(key)));
      }
    }
  }
  env.bootstrap.barrier(me);

  // Queue and lock conservation (HA schedules). The queue oracle is pure
  // ledger arithmetic: every phase drained, so the acked-enqueue and
  // dequeued-value multisets must match exactly — a mismatch is a value a
  // failover lost, duplicated, or corrupted. The lock oracle bounds the
  // shared guard counter by the increments its holders confirmed and
  // posted; a lost update (mutual-exclusion breach) lands it below the
  // confirmed count. Rank 0 checks alone — the ledgers are identical on
  // every rank and the guard is its memory.
  if (s.dds_replicate) {
    const auto all_enq = env.bootstrap.all_exchange(
        me, std::as_bytes(std::span(my_enq.data(), my_enq.size())));
    const auto all_deq = env.bootstrap.all_exchange(
        me, std::as_bytes(std::span(my_deq.data(), my_deq.size())));
    const auto all_locks = env.bootstrap.all_gather(me, my_lock);
    if (me == 0) {
      std::vector<std::uint64_t> enq_all, deq_all;
      for (std::uint32_t src = 0; src < n; ++src) {
        const auto* ev =
            reinterpret_cast<const std::uint64_t*>(all_enq[src].data());
        enq_all.insert(enq_all.end(), ev,
                       ev + all_enq[src].size() / sizeof(std::uint64_t));
        const auto* dv =
            reinterpret_cast<const std::uint64_t*>(all_deq[src].data());
        deq_all.insert(deq_all.end(), dv,
                       dv + all_deq[src].size() / sizeof(std::uint64_t));
      }
      std::sort(enq_all.begin(), enq_all.end());
      std::sort(deq_all.begin(), deq_all.end());
      if (enq_all != deq_all)
        fail("dds-queue-conservation",
             "acked enqueues (" + std::to_string(enq_all.size()) +
                 ") != dequeues (" + std::to_string(deq_all.size()) +
                 ") as multisets");
      std::uint64_t counted = 0, attempted = 0;
      for (std::uint32_t src = 0; src < n; ++src) {
        counted += all_locks[src].counted;
        attempted += all_locks[src].attempted;
      }
      const std::uint64_t guard_final =
          std::atomic_ref<std::uint64_t>(guard).load(std::memory_order_acquire);
      if (guard_final < counted || guard_final > attempted)
        fail("dds-lock-conservation",
             "guard holds " + std::to_string(guard_final) + ", counted " +
                 std::to_string(counted) + ", attempted " +
                 std::to_string(attempted));
      // Post-campaign liveness: the lock must still be acquirable after
      // every failover the schedule threw at it.
      if (!dead[last][me] && (!dead[last][1] || !dead[last][2 % n])) {
        if (dlk->acquire() != Status::Ok)
          fail("dds-lock", "post-campaign acquire failed");
        else if (dlk->release() != Status::Ok)
          fail("dds-lock", "post-campaign release failed");
      }
    }
    env.bootstrap.barrier(me);
  }

  ph.unregister_buffer(lk_d.value());
  ph.unregister_buffer(guard_d.value());
  ph.unregister_buffer(cell_d.value());
  ph.unregister_buffer(scratch_d.value());
  ph.unregister_buffer(stage_d.value());
  ph.unregister_buffer(land_d.value());
}

}  // namespace

RunResult run_schedule(const Schedule& schedule) {
  RunResult result;
  Schedule s = schedule;
  if (s.nranks < 2) s.nranks = 2;
  if (s.nranks > kMaxRanks) s.nranks = kMaxRanks;
  if (s.phases < 1) s.phases = 1;

  fabric::FabricConfig fc;
  fc.nranks = s.nranks;
  fc.wire.enabled = false;  // quiet wire: the schedule owns all faults
  fc.nic.auto_recover = true;
  fc.nic.chaos_fixture_no_atomic_dedup = s.bug_no_atomic_dedup;

  ViolationSink sink;
  const auto dead = dead_map(s);
  {
    runtime::Cluster cluster(fc);
    runtime::WatchdogConfig wd;
    wd.enabled = true;
    wd.budget_ms = s.watchdog_budget_ms;
    wd.poll_ms = 10;
    cluster.set_watchdog(wd);
    cluster.fabric().checker().set_mode(check::Mode::kCollect);

    try {
      cluster.run([&](runtime::Env& env) { run_rank(env, s, dead, sink); });
    } catch (const std::exception& ex) {
      sink.add("exception", ex.what());
    }

    for (auto& v : cluster.fabric().checker().take_violations())
      sink.add("check", std::string(check::to_string(v.kind)) + ": " +
                            v.message);
    if (runtime::Watchdog* w = cluster.watchdog()) {
      result.watchdog_stalls = w->stalls();
      if (result.watchdog_stalls > 0)
        sink.add("watchdog-stall", w->last_report().to_string());
    }
    result.fired = cluster.fabric().fault_totals();
  }  // ~Cluster folds fabric.* / fault.* metrics into the process registry

  {
    util::LockGuard lock(sink.mutex);
    result.violations = std::move(sink.violations);
  }
  auto& reg = telemetry::MetricsRegistry::process();
  if (reg.enabled()) {
    reg.counter("chaos.schedules_run").add(1);
    if (!result.violations.empty())
      reg.counter("chaos.violations").add(result.violations.size());
    if (result.fired.total() != 0)
      reg.counter("chaos.faults_injected").add(result.fired.total());
  }
  return result;
}

ShrinkResult shrink(const Schedule& failing, std::size_t max_replays) {
  ShrinkResult out;
  Schedule cur = failing;
  std::size_t replays = 0;
  std::size_t chunk =
      cur.events.size() > 1 ? (cur.events.size() + 1) / 2 : 1;
  while (!cur.events.empty() && replays < max_replays) {
    bool reduced = false;
    std::size_t start = 0;
    while (start < cur.events.size() && replays < max_replays) {
      Schedule trial = cur;
      const std::size_t end = std::min(start + chunk, trial.events.size());
      trial.events.erase(trial.events.begin() + start,
                         trial.events.begin() + end);
      ++replays;
      if (!run_schedule(trial).ok()) {
        cur = std::move(trial);  // chunk was irrelevant to the violation
        reduced = true;          // keep start: the next chunk slid into place
      } else {
        start = end;  // chunk is load-bearing; try the next one
      }
    }
    if (!reduced) {
      if (chunk == 1) break;
      chunk = (chunk + 1) / 2;
    }
  }
  out.minimal = cur;
  out.verdict = run_schedule(cur);  // re-verify the minimal schedule
  out.replays = replays;
  return out;
}

}  // namespace photon::chaos
