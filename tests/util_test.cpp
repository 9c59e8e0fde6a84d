#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "benchsupport/harness.hpp"
#include "benchsupport/report.hpp"
#include "core/photon.hpp"
#include "test_helpers.hpp"
#include "util/expected.hpp"
#include "util/idle_wait.hpp"
#include "util/json.hpp"
#include "util/op_table.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/timing.hpp"

namespace photon {
namespace {

TEST(Status, NamesAreDistinctAndStable) {
  // Round-trip every enumerator: each code in [0, kStatusCount) must have a
  // distinct real name, and the first code past the end must not.
  std::set<std::string_view> names;
  for (int i = 0; i < kStatusCount; ++i) {
    const std::string_view n = status_name(static_cast<Status>(i));
    EXPECT_FALSE(n.empty()) << "code " << i;
    EXPECT_NE(n, "UnknownStatus") << "code " << i;
    names.insert(n);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kStatusCount));
  EXPECT_EQ(status_name(Status::Ok), "Ok");
  EXPECT_EQ(status_name(Status::Timeout), "Timeout");
  EXPECT_EQ(status_name(Status::PeerUnreachable), "PeerUnreachable");
  EXPECT_EQ(status_name(static_cast<Status>(kStatusCount)), "UnknownStatus");
}

TEST(Status, TransientClassification) {
  EXPECT_TRUE(transient(Status::Retry));
  EXPECT_TRUE(transient(Status::QueueFull));
  EXPECT_TRUE(transient(Status::NotFound));
  EXPECT_FALSE(transient(Status::Ok));
  EXPECT_FALSE(transient(Status::InvalidKey));
  EXPECT_FALSE(transient(Status::OutOfBounds));
  // Reliable-delivery verdicts are hard errors: retrying without a
  // reconnect/fence protocol cannot clear them.
  EXPECT_FALSE(transient(Status::Timeout));
  EXPECT_FALSE(transient(Status::PeerUnreachable));
}

TEST(Result, ValueAndStatusPaths) {
  util::Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  util::Result<int> bad(Status::InvalidKey);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status(), Status::InvalidKey);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(good.value_or(-1), 42);
}

TEST(Rng, DeterministicAcrossInstances) {
  util::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  util::Xoshiro256 r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  util::Xoshiro256 r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Deadline, BudgetCountsFromTheFirstCheck) {
  util::Deadline zero(0);
  EXPECT_TRUE(zero.expired());  // a zero budget fails the first check
  util::Deadline lazy(20'000'000);  // 20 ms
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(lazy.expired());  // armed here, not at construction
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(lazy.expired());
}

// Op ids never collide with the unsignaled wr_id 0, and a released id is
// dead until the table hands it out again.
TEST(OpTable, IdsSkipZeroAndReleasedIdsAreReused) {
  util::OpTable<int> t;
  EXPECT_EQ(t.live(0), nullptr);
  const std::uint64_t a = t.alloc(10);
  const std::uint64_t b = t.alloc(20);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_NE(t.live(b), nullptr);
  EXPECT_EQ(*t.live(b), 20);
  t.release(a);
  EXPECT_EQ(t.live(a), nullptr);
  EXPECT_EQ(t.live(3), nullptr);
  EXPECT_EQ(t.alloc(30), a);
  EXPECT_EQ(*t.live(a), 30);
}

// The idle-wait rule: on a thread that may share its CPU (the default for
// any thread Cluster::run did not start), yield first, jump only on the
// second empty step, start over after a successful jump, back off
// otherwise. A thread marked dedicated jumps on the first step.
TEST(IdleWait, FirstStepYieldsWithoutJumping) {
  int jumps = 0;
  auto jump = [&] { ++jumps; return false; };
  std::uint32_t spins = 0;
  util::idle_step(spins, jump);
  EXPECT_EQ(jumps, 0);
  EXPECT_EQ(spins, 1u);
  util::idle_step(spins, jump);
  EXPECT_EQ(jumps, 1);
  EXPECT_EQ(spins, 2u);  // a failed jump falls through to the back-off
}

TEST(IdleWait, SuccessfulJumpStartsOver) {
  int jumps = 0;
  auto jump = [&] { ++jumps; return true; };
  std::uint32_t spins = 0;
  util::idle_step(spins, jump);
  util::idle_step(spins, jump);
  EXPECT_EQ(jumps, 1);
  EXPECT_EQ(spins, 0u);
  util::idle_step(spins, jump);  // yields again before the next jump
  EXPECT_EQ(jumps, 1);
  EXPECT_EQ(spins, 1u);
}

/// Marks the calling thread shared or dedicated for one scope, then
/// restores the previous verdict.
class CpuSharedScope {
 public:
  explicit CpuSharedScope(bool shared) : saved_(util::t_cpu_shared) {
    util::t_cpu_shared = shared;
  }
  ~CpuSharedScope() { util::t_cpu_shared = saved_; }
  CpuSharedScope(const CpuSharedScope&) = delete;
  CpuSharedScope& operator=(const CpuSharedScope&) = delete;

 private:
  bool saved_;
};

TEST(IdleWait, DedicatedThreadJumpsOnTheFirstStep) {
  const CpuSharedScope dedicated(false);
  int jumps = 0;
  auto jump = [&] { ++jumps; return true; };
  std::uint32_t spins = 0;
  util::idle_step(spins, jump);
  EXPECT_EQ(jumps, 1);
  EXPECT_EQ(spins, 0u);
}

TEST(IdleWait, SharedThreadDoesNotJumpOnTheFirstStep) {
  const CpuSharedScope shared(true);
  int jumps = 0;
  auto jump = [&] { ++jumps; return true; };
  std::uint32_t spins = 0;
  util::idle_step(spins, jump);
  EXPECT_EQ(jumps, 0);
  EXPECT_EQ(spins, 1u);
}

// A jump that never succeeds reaches the sleep threshold after the same
// number of steps whether or not the first step yielded.
TEST(IdleWait, FailingJumpBacksOffAlikeOnSharedAndDedicatedThreads) {
  auto spins_after_64_steps = [](bool shared) {
    const CpuSharedScope scope(shared);
    std::uint32_t spins = 0;
    for (int i = 0; i < 64; ++i) util::idle_step(spins, [] { return false; });
    return spins;
  };
  const std::uint32_t shared = spins_after_64_steps(true);
  EXPECT_EQ(shared, 64u);
  EXPECT_EQ(spins_after_64_steps(false), shared);
}

TEST(IdleWait, BackoffCountsThroughTheSleepThreshold) {
  std::uint32_t spins = 0;
  for (std::uint32_t i = 1; i <= 64; ++i) {
    util::idle_backoff(spins);
    EXPECT_EQ(spins, i);
  }
}

// wait_until: poll first, idle_step between empty polls. The log records
// each poll ('P') and each jump ('J'); an idle step that logs no 'J' yielded.
TEST(WaitUntil, FirstPollSuccessReturnsAtOnce) {
  std::string log;
  const auto r = util::wait_until(
      util::kNoDeadline,
      [&] {
        log += 'P';
        return std::optional<int>(7);
      },
      [&] {
        log += 'J';
        return true;
      });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(log, "P");  // no jump, no idle step
}

TEST(WaitUntil, ZeroBudgetPollsOnceThenGivesUp) {
  std::string log;
  const auto r = util::wait_until(
      0,
      [&] {
        log += 'P';
        return std::optional<int>();
      },
      [&] {
        log += 'J';
        return true;
      });
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(log, "P");
}

TEST(WaitUntil, ReportedProgressRestartsTheIdleSequence) {
  std::string log;
  int polls = 0;
  const auto r = util::wait_until(
      util::kNoDeadline,
      [&](bool& progressed) -> std::optional<int> {
        log += 'P';
        ++polls;
        if (polls == 6) return polls;
        progressed = polls == 3;
        return std::nullopt;
      },
      [&] {
        log += 'J';
        return false;
      });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 6);
  // Empty, yield, empty, jump, progress (no step), empty, yield (not a
  // jump: the sequence started over), empty, jump, success.
  EXPECT_EQ(log, "PPJPPPJP");
}

// ---- minimal JSON well-formedness validator ---------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (eat('.')) {
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) return false;
    if (s_[start] == '-' && pos_ == start + 1) return false;  // bare minus
    return std::isdigit(static_cast<unsigned char>(s_[start])) ||
           s_[start] == '-';
  }

  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (!std::isxdigit(static_cast<unsigned char>(peek())))
              return false;
            else
              ++pos_;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;  // unterminated
  }

  bool object() {
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }
};

bool valid_json(const std::string& s) { return JsonValidator(s).valid(); }

// ---- validator sanity -------------------------------------------------------

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(valid_json(R"({"a":[1,2.5,-3e4],"b":"x\n","c":null})"));
  EXPECT_TRUE(valid_json("[]"));
  EXPECT_FALSE(valid_json(R"({"a":1,})"));
  EXPECT_FALSE(valid_json(R"({"a" 1})"));
  EXPECT_FALSE(valid_json("{\"a\":\"unterminated}"));
  EXPECT_FALSE(valid_json(R"({"a":1} trailing)"));
  EXPECT_FALSE(valid_json("{\"a\":\"raw\ncontrol\"}"));
}

// ---- JsonWriter -------------------------------------------------------------

TEST(JsonWriter, EscapesQuotesBackslashAndControlCharacters) {
  util::JsonWriter w;
  w.begin_object();
  w.key("k\"ey").value("quote\" back\\slash \nnewline\ttab\x01");
  w.end_object();
  EXPECT_TRUE(valid_json(w.str())) << w.str();
  EXPECT_EQ(w.str(),
            R"({"k\"ey":"quote\" back\\slash \nnewline\ttab\u0001"})");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  util::JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_TRUE(valid_json(w.str())) << w.str();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(JsonWriter, RawSplicesPreRenderedJsonAsOneValue) {
  util::JsonWriter inner;
  inner.begin_object();
  inner.key("peer").value(7);
  inner.key("bytes").value(4096);
  inner.end_object();
  util::JsonWriter w;
  w.begin_object();
  w.key("args").raw(inner.str());
  w.key("next").value(true);
  w.end_object();
  EXPECT_TRUE(valid_json(w.str())) << w.str();
  EXPECT_EQ(w.str(), R"({"args":{"peer":7,"bytes":4096},"next":true})");
}

// ---- BenchReport --------------------------------------------------------------

/// Value of `"key":<integer>` inside the named top-level section of a report.
std::uint64_t section_value(const std::string& json, std::string_view section,
                            std::string_view key) {
  const std::size_t sec = json.find("\"" + std::string(section) + "\":{");
  if (sec == std::string::npos) return ~0ULL;
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = json.find(needle, sec);
  if (at == std::string::npos) return ~0ULL;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

TEST(BenchReport, ResilienceSectionReadsTheFabricCounters) {
  using fabric::OpCode;
  using fabric::Rank;
  using fabric::WireFault;
  constexpr std::uint64_t kWait = 2'000'000'000ULL;
  benchsupport::BenchReport report("util_test_resilience");
  std::uint64_t retransmits = 0;
  std::uint64_t faults_fired = 0;
  benchsupport::run_spmd_vtime(
      benchsupport::bench_fabric(2),
      testing::abort_on_fatal_failure([&](runtime::Env& env) {
        core::Photon ph(env.nic, env.bootstrap, core::Config{});
        std::vector<std::byte> buf(256);
        auto desc = ph.register_buffer(buf.data(), buf.size());
        ASSERT_TRUE(desc.ok());
        auto all = ph.exchange_descriptors(desc.value());
        if (env.rank == 0) {
          env.nic.faults().arm_wire({WireFault::kDrop, OpCode::Put, Rank{1}});
          ASSERT_EQ(
              ph.put_with_completion(1, core::local_slice(desc.value(), 0, 64),
                                     core::slice(all[1], 0, 64), 1, 2),
              Status::Ok);
          core::LocalComplete lc;
          ASSERT_EQ(ph.wait_local(lc, kWait), Status::Ok);
        } else {
          core::ProbeEvent ev;
          ASSERT_EQ(ph.wait_event(ev, kWait), Status::Ok);
        }
        env.bootstrap.barrier(env.rank);
        if (env.rank == 0) {
          for (Rank r = 0; r < env.cluster.size(); ++r) {
            fabric::Nic& nic = env.cluster.fabric().nic(r);
            retransmits += nic.counters().retransmits.load();
            faults_fired += nic.faults().fired();
          }
        }
        env.bootstrap.barrier(env.rank);
        ph.unregister_buffer(desc.value());
      }));
  ASSERT_GE(retransmits, 1u);
  ASSERT_GE(faults_fired, 1u);

  const std::string j = report.to_json();
  EXPECT_TRUE(valid_json(j)) << j;
  EXPECT_EQ(section_value(j, "resilience", "retransmits"), retransmits) << j;
  EXPECT_EQ(section_value(j, "resilience", "wire_faults_fired"), faults_fired)
      << j;
  EXPECT_EQ(section_value(j, "resilience", "op_timeouts"), 0u) << j;

  // Write here rather than from the destructor into the working directory.
  ::setenv("PHOTON_BENCH_DIR", ::testing::TempDir().c_str(), 1);
  EXPECT_TRUE(report.write());
  std::remove(report.path().c_str());
}

}  // namespace
}  // namespace photon
