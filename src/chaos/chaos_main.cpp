// photon_chaos: seeded fault-schedule exploration driver.
//
//   photon_chaos [--seeds N] [--schedules M] [--seed-base S]
//                [--nranks N] [--phases P] [--ops K] [--max-events E]
//                [--artifact-dir DIR] [--bug] [--ha] [--quiet]
//       Run an N-seed x M-schedule campaign. Every schedule must pass the
//       oracle stack; the first violation is shrunk to a minimal schedule,
//       written as DIR/chaos_repro_<seed>_<index>.json, and the process
//       exits 1 with the replay command line. --ha switches to the
//       HA-targeted generator: replicated DDS structures, kill lanes aimed
//       at the replica set, and the strong conservation oracle (no acked
//       DDS op lost while one replica survives).
//
//   photon_chaos --one SEED INDEX [...]
//       Run exactly one generated schedule (verbose).
//
//   photon_chaos --replay FILE
//       Re-execute the schedule in a repro artifact. Exits 0 iff the
//       violation reproduces.
//
//   photon_chaos --selftest [--artifact-dir DIR]
//       Prove the oracle stack works end to end: plant the deliberate
//       duplicate-atomic bug fixture under an ack-drop schedule plus decoy
//       faults, require a violation, shrink it to <= 5 events, round-trip
//       the artifact through JSON, and replay it. Exits 0 iff every step
//       behaves.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/artifact.hpp"
#include "chaos/engine.hpp"
#include "chaos/schedule.hpp"

namespace {

using namespace photon;

struct Options {
  std::uint32_t seeds = 8;
  std::uint32_t schedules = 25;
  std::uint64_t seed_base = 0xC0FFEEULL;
  chaos::CampaignConfig campaign;
  std::string artifact_dir = ".";
  bool quiet = false;
  bool selftest = false;
  bool one = false;
  std::uint64_t one_seed = 0;
  std::uint32_t one_index = 0;
  std::string replay_path;
};

void print_violations(const chaos::RunResult& r) {
  for (const auto& v : r.violations)
    std::fprintf(stderr, "  [%s] %s\n", v.kind.c_str(), v.detail.c_str());
}

std::string artifact_path(const Options& opt, const chaos::Schedule& s) {
  return opt.artifact_dir + "/chaos_repro_" + std::to_string(s.seed) + "_" +
         std::to_string(s.index) + ".json";
}

/// Shrink a failing schedule, persist the artifact, print the replay line.
void report_failure(const Options& opt, const chaos::Schedule& s,
                    const chaos::RunResult& first) {
  std::fprintf(stderr,
               "photon_chaos: seed=%" PRIu64 " index=%u FAILED (%zu violation%s)\n",
               s.seed, s.index, first.violations.size(),
               first.violations.size() == 1 ? "" : "s");
  print_violations(first);
  std::fprintf(stderr, "photon_chaos: shrinking %zu events...\n",
               s.events.size());
  const auto shrunk = chaos::shrink(s);
  std::fprintf(stderr,
               "photon_chaos: minimal schedule has %zu event%s "
               "(%zu replays, still-failing=%s)\n",
               shrunk.minimal.events.size(),
               shrunk.minimal.events.size() == 1 ? "" : "s", shrunk.replays,
               shrunk.verdict.ok() ? "NO" : "yes");
  const std::string path = artifact_path(opt, shrunk.minimal);
  if (chaos::write_artifact(path, shrunk.minimal, shrunk.verdict.violations))
    std::fprintf(stderr,
                 "photon_chaos: wrote %s\n"
                 "photon_chaos: replay with: photon_chaos --replay %s\n",
                 path.c_str(), path.c_str());
  else
    std::fprintf(stderr, "photon_chaos: FAILED to write %s\n", path.c_str());
}

int run_campaign(const Options& opt) {
  std::uint64_t total_faults = 0;
  std::uint64_t total_stalls = 0;
  for (std::uint32_t si = 0; si < opt.seeds; ++si) {
    const std::uint64_t seed = opt.seed_base + si;
    for (std::uint32_t idx = 0; idx < opt.schedules; ++idx) {
      const auto s = chaos::generate_schedule(seed, idx, opt.campaign);
      const auto r = chaos::run_schedule(s);
      total_faults += r.fired.decisions();
      total_stalls += r.fired.link_down_stalls;
      if (!opt.quiet)
        std::fprintf(stderr,
                     "photon_chaos: seed=%" PRIu64
                     " index=%u nranks=%u events=%zu faults=%" PRIu64
                     " link_down_stalls=%" PRIu64 " %s\n",
                     seed, idx, s.nranks, s.events.size(), r.fired.decisions(),
                     r.fired.link_down_stalls, r.ok() ? "ok" : "VIOLATION");
      if (!r.ok()) {
        report_failure(opt, s, r);
        return 1;
      }
    }
  }
  std::fprintf(stderr,
               "photon_chaos: %u seeds x %u schedules green, %" PRIu64
               " faults injected, %" PRIu64 " link-down stalls\n",
               opt.seeds, opt.schedules, total_faults, total_stalls);
  return 0;
}

int run_one(const Options& opt) {
  const auto s =
      chaos::generate_schedule(opt.one_seed, opt.one_index, opt.campaign);
  std::fprintf(stderr,
               "photon_chaos: schedule seed=%" PRIu64
               " index=%u nranks=%u phases=%u events=%zu\n",
               s.seed, s.index, s.nranks, s.phases, s.events.size());
  for (const auto& e : s.events)
    std::fprintf(stderr, "  phase %u: %s actor=%u peer=%u nth=%u\n", e.phase,
                 chaos::event_kind_name(e.kind), e.actor, e.peer, e.nth);
  const auto r = chaos::run_schedule(s);
  std::fprintf(stderr,
               "photon_chaos: %s (faults=%" PRIu64 " link_down_stalls=%" PRIu64
               ")\n",
               r.ok() ? "ok" : "VIOLATION", r.fired.decisions(),
               r.fired.link_down_stalls);
  if (!r.ok()) {
    report_failure(opt, s, r);
    return 1;
  }
  return 0;
}

int run_replay(const Options& opt) {
  std::string err;
  const auto s = chaos::read_artifact(opt.replay_path, &err);
  if (!s) {
    std::fprintf(stderr, "photon_chaos: %s\n", err.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "photon_chaos: replaying seed=%" PRIu64
               " index=%u nranks=%u events=%zu bug=%d\n",
               s->seed, s->index, s->nranks, s->events.size(),
               s->bug_no_atomic_dedup ? 1 : 0);
  const auto r = chaos::run_schedule(*s);
  if (r.ok()) {
    std::fprintf(stderr, "photon_chaos: replay did NOT reproduce\n");
    return 1;
  }
  std::fprintf(stderr, "photon_chaos: replay reproduced %zu violation%s\n",
               r.violations.size(), r.violations.size() == 1 ? "" : "s");
  print_violations(r);
  return 0;
}

/// The deliberately seeded bug fixture: duplicate atomic application under
/// an ack-drop aimed at FetchAdd, buried in recoverable decoy faults.
chaos::Schedule fixture_schedule() {
  chaos::Schedule s;
  s.seed = 0xF1C;
  s.index = 0;
  s.nranks = 2;
  s.phases = 2;
  s.ops_per_phase = 4;
  s.bug_no_atomic_dedup = true;

  chaos::FaultEvent trigger;
  trigger.kind = chaos::EventKind::kWireAckDrop;
  trigger.only_op = fabric::OpCode::FetchAdd;
  trigger.phase = 0;
  trigger.actor = 0;
  trigger.peer = 1;
  trigger.nth = 1;

  // Decoys: all fully recoverable, so shrinking must strip every one.
  chaos::FaultEvent d1;  // payload drop, retransmitted
  d1.kind = chaos::EventKind::kWireDrop;
  d1.phase = 0;
  d1.actor = 1;
  d1.peer = 0;
  chaos::FaultEvent d2 = d1;  // CRC-rejected corruption
  d2.kind = chaos::EventKind::kWireCorrupt;
  d2.actor = 0;
  d2.peer = 1;
  d2.nth = 2;
  chaos::FaultEvent d3 = d1;  // latency spike
  d3.kind = chaos::EventKind::kWireDelay;
  d3.phase = 1;
  d3.delay_ns = 40'000;
  chaos::FaultEvent d4 = d1;  // ack drop on the eager path (dedup works)
  d4.kind = chaos::EventKind::kWireAckDrop;
  d4.phase = 1;
  d4.actor = 0;
  d4.peer = 1;
  chaos::FaultEvent d5 = d1;  // short link flap, inside the retry deadline
  d5.kind = chaos::EventKind::kLinkFlap;
  d5.phase = 1;
  d5.offset_ns = 1'000'000;
  d5.width_ns = 5'000'000;

  s.events = {d1, trigger, d2, d3, d4, d5};
  return s;
}

int run_selftest(const Options& opt) {
  const auto s = fixture_schedule();
  std::fprintf(stderr, "photon_chaos: selftest schedule has %zu events\n",
               s.events.size());
  const auto first = chaos::run_schedule(s);
  if (first.ok()) {
    std::fprintf(stderr,
                 "photon_chaos: selftest FAILED: fixture bug not caught\n");
    return 1;
  }
  print_violations(first);

  const auto shrunk = chaos::shrink(s);
  if (shrunk.verdict.ok() || shrunk.minimal.events.size() > 5) {
    std::fprintf(stderr,
                 "photon_chaos: selftest FAILED: shrink left %zu events, "
                 "still-failing=%s\n",
                 shrunk.minimal.events.size(),
                 shrunk.verdict.ok() ? "NO" : "yes");
    return 1;
  }
  std::fprintf(stderr,
               "photon_chaos: selftest shrunk %zu -> %zu events in %zu "
               "replays\n",
               s.events.size(), shrunk.minimal.events.size(), shrunk.replays);

  const std::string path = artifact_path(opt, shrunk.minimal);
  if (!chaos::write_artifact(path, shrunk.minimal,
                             shrunk.verdict.violations)) {
    std::fprintf(stderr, "photon_chaos: selftest FAILED: cannot write %s\n",
                 path.c_str());
    return 1;
  }
  std::string err;
  const auto back = chaos::read_artifact(path, &err);
  if (!back || back->events.size() != shrunk.minimal.events.size() ||
      !back->bug_no_atomic_dedup) {
    std::fprintf(stderr,
                 "photon_chaos: selftest FAILED: artifact round-trip (%s)\n",
                 err.c_str());
    return 1;
  }
  const auto replayed = chaos::run_schedule(*back);
  if (replayed.ok()) {
    std::fprintf(
        stderr,
        "photon_chaos: selftest FAILED: replayed artifact did not fail\n");
    return 1;
  }
  std::fprintf(stderr, "photon_chaos: selftest ok (artifact %s)\n",
               path.c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: photon_chaos [--seeds N] [--schedules M] [--seed-base S]\n"
      "                    [--nranks N] [--phases P] [--ops K]\n"
      "                    [--max-events E] [--artifact-dir DIR] [--bug]\n"
      "                    [--ha] [--quiet] | --one SEED INDEX |\n"
      "                    --replay FILE | --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_u64 = [&](std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      out = std::strtoull(argv[++i], nullptr, 0);
      return true;
    };
    auto next_u32 = [&](std::uint32_t& out) {
      std::uint64_t v = 0;
      if (!next_u64(v)) return false;
      out = static_cast<std::uint32_t>(v);
      return true;
    };
    if (a == "--seeds") {
      if (!next_u32(opt.seeds)) return usage();
    } else if (a == "--schedules") {
      if (!next_u32(opt.schedules)) return usage();
    } else if (a == "--seed-base") {
      if (!next_u64(opt.seed_base)) return usage();
    } else if (a == "--nranks") {
      if (!next_u32(opt.campaign.nranks)) return usage();
    } else if (a == "--phases") {
      if (!next_u32(opt.campaign.phases)) return usage();
    } else if (a == "--ops") {
      if (!next_u32(opt.campaign.ops_per_phase)) return usage();
    } else if (a == "--max-events") {
      if (!next_u32(opt.campaign.max_events)) return usage();
    } else if (a == "--artifact-dir") {
      if (i + 1 >= argc) return usage();
      opt.artifact_dir = argv[++i];
    } else if (a == "--bug") {
      opt.campaign.bug_no_atomic_dedup = true;
    } else if (a == "--ha") {
      opt.campaign.ha_targeted = true;
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else if (a == "--one") {
      opt.one = true;
      if (!next_u64(opt.one_seed) || !next_u32(opt.one_index)) return usage();
    } else if (a == "--replay") {
      if (i + 1 >= argc) return usage();
      opt.replay_path = argv[++i];
    } else if (a == "--selftest") {
      opt.selftest = true;
    } else {
      return usage();
    }
  }
  if (opt.selftest) return run_selftest(opt);
  if (!opt.replay_path.empty()) return run_replay(opt);
  if (opt.one) return run_one(opt);
  return run_campaign(opt);
}
