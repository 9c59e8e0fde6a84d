#include "check/checker.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "util/log.hpp"

namespace photon::check {

namespace {

bool is_wire_span(SpanKind kind) {
  return kind == SpanKind::kSrcPinned || kind == SpanKind::kDstPinned ||
         kind == SpanKind::kLanding || kind == SpanKind::kWireRead;
}

bool env_disables_check() {
  const char* v = std::getenv("PHOTON_CHECK");
  if (v == nullptr) return false;
  return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "OFF") == 0 || std::strcmp(v, "false") == 0;
}

bool env_enables_race() {
  const char* v = std::getenv("PHOTON_CHECK_RACE");
  if (v == nullptr) return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0 &&
         std::strcmp(v, "OFF") != 0 && std::strcmp(v, "false") != 0;
}

Mode env_mode() {
  const char* v = std::getenv("PHOTON_CHECK_MODE");
  if (v == nullptr) return Mode::kAbort;
  if (std::strcmp(v, "log") == 0) return Mode::kLog;
  if (std::strcmp(v, "collect") == 0) return Mode::kCollect;
  return Mode::kAbort;
}

}  // namespace

const char* to_string(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kUseAfterPut: return "use-after-put";
    case ViolationKind::kReadOfUnlanded: return "read-of-unlanded";
    case ViolationKind::kRmaRace: return "rma-race";
    case ViolationKind::kBadSlice: return "bad-slice";
    case ViolationKind::kIdHygiene: return "id-hygiene";
    case ViolationKind::kVtRaceUnordered: return "vt-race-unordered-landing";
    case ViolationKind::kVtRaceOrder: return "vt-race-completion-order";
  }
  return "unknown";
}

const char* to_string(CheckOpKind kind) noexcept {
  switch (kind) {
    case CheckOpKind::kPut: return "put";
    case CheckOpKind::kEagerSend: return "send";
    case CheckOpKind::kGet: return "get";
    case CheckOpKind::kSignal: return "signal";
    case CheckOpKind::kOsPut: return "os_put";
    case CheckOpKind::kOsGet: return "os_get";
    case CheckOpKind::kRndvGet: return "rndv_get";
    case CheckOpKind::kAtomic: return "atomic";
    case CheckOpKind::kAdvert: return "advert";
    case CheckOpKind::kUserAccess: return "user-access";
    case CheckOpKind::kRegister: return "register";
    case CheckOpKind::kFinalize: return "finalize";
  }
  return "unknown";
}

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kSrcPinned: return "src-pinned";
    case SpanKind::kDstPinned: return "dst-pinned";
    case SpanKind::kLanding: return "landing";
    case SpanKind::kWireRead: return "wire-read";
    case SpanKind::kAdvertRecv: return "advert-recv";
    case SpanKind::kAdvertSend: return "advert-send";
  }
  return "unknown";
}

std::string describe(const OpRef& op) {
  std::ostringstream os;
  os << to_string(op.kind) << '#' << op.serial << " rank" << op.initiator
     << "->rank" << op.target << " [0x" << std::hex << op.addr << std::dec
     << "+" << op.len << ")";
  if (op.has_local_id) os << " local_id=" << op.local_id;
  if (op.has_remote_id) os << " remote_id=" << op.remote_id;
  return os.str();
}

Checker::Checker() {
  // relaxed-ok: construction precedes any concurrent use of the checker.
  enabled_.store(!env_disables_check(), std::memory_order_relaxed);
  race_.store(env_enables_race(), std::memory_order_relaxed);
  util::LockGuard lock(mutex_);
  mode_ = env_mode();
}

void Checker::set_mode(Mode m) {
  util::LockGuard lock(mutex_);
  mode_ = m;
}

Mode Checker::mode() const {
  util::LockGuard lock(mutex_);
  return mode_;
}

std::vector<Violation> Checker::take_violations() {
  util::LockGuard lock(mutex_);
  std::vector<Violation> out;
  out.swap(collected_);
  return out;
}

// ---- reporting ---------------------------------------------------------------

void Checker::report(Violation v) {
  // relaxed-ok: monotonic statistic; readers only report it.
  violation_count_.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream os;
  os << "photoncheck: " << to_string(v.kind) << ": " << v.message
     << " | op: " << describe(v.op);
  if (v.prior) os << " | conflicts with: " << describe(*v.prior);
  const std::string line = os.str();
  switch (mode_) {
    case Mode::kCollect:
      collected_.push_back(std::move(v));
      break;
    case Mode::kLog:
      log::error(line);
      break;
    case Mode::kAbort:
      log::error(line);
      std::fprintf(stderr, "%s\n", line.c_str());
      std::abort();
  }
}

OpRef Checker::make_ref(const OpState& st, std::uint64_t addr,
                        std::size_t len) const {
  OpRef r;
  r.serial = st.serial;
  r.kind = st.info.kind;
  r.initiator = st.info.initiator;
  r.target = st.info.target;
  r.addr = addr;
  r.len = len;
  r.has_local_id = st.info.local_id.has_value();
  r.local_id = st.info.local_id.value_or(0);
  r.has_remote_id = st.info.remote_id.has_value();
  r.remote_id = st.info.remote_id.value_or(0);
  return r;
}

// ---- regions -----------------------------------------------------------------

Checker::ShadowRegion* Checker::find_region(RegionKey key) {
  auto it = regions_.find(key);
  return it == regions_.end() ? nullptr : &it->second;
}

Checker::ShadowRegion* Checker::resolve_rkey(fabric::Rank owner,
                                             fabric::MrKey rkey,
                                             RegionKey* key_out) {
  auto it = rkey_index_.find({owner, rkey});
  if (it == rkey_index_.end()) return nullptr;
  const RegionKey key{owner, it->second};
  if (key_out != nullptr) *key_out = key;
  return find_region(key);
}

void Checker::on_mr_register(fabric::Rank owner, const void* addr,
                             std::size_t len, fabric::MrKey lkey,
                             fabric::MrKey rkey) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  ShadowRegion region;
  region.base = reinterpret_cast<std::uint64_t>(addr);
  region.len = len;
  region.rkey = rkey;
  regions_[RegionKey{owner, lkey}] = std::move(region);
  rkey_index_[{owner, rkey}] = lkey;
}

void Checker::on_mr_deregister(fabric::Rank owner, fabric::MrKey lkey) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  auto it = regions_.find(RegionKey{owner, lkey});
  if (it == regions_.end()) {
    Violation v;
    v.kind = ViolationKind::kIdHygiene;
    v.op.kind = CheckOpKind::kRegister;
    v.op.initiator = owner;
    v.op.target = owner;
    std::ostringstream os;
    os << "rank" << owner << " deregistered unknown lkey " << lkey
       << " (double unregister?)";
    v.message = os.str();
    report(std::move(v));
    return;
  }
  ShadowRegion& region = it->second;
  if (!region.spans.empty()) {
    // Tearing down a registration with in-flight claims: report once, on
    // behalf of the oldest claim.
    const auto all = region.spans.all();
    const Span* oldest = &all.front();
    for (const Span& s : all)
      if (s.serial < oldest->serial) oldest = &s;
    Violation v;
    v.kind = (oldest->kind == SpanKind::kSrcPinned ||
              oldest->kind == SpanKind::kDstPinned)
                 ? ViolationKind::kUseAfterPut
                 : ViolationKind::kReadOfUnlanded;
    v.op.kind = CheckOpKind::kRegister;
    v.op.initiator = owner;
    v.op.target = owner;
    v.op.addr = region.base;
    v.op.len = region.len;
    auto oit = ops_.find(oldest->serial);
    if (oit != ops_.end())
      v.prior = make_ref(oit->second, oldest->begin,
                         static_cast<std::size_t>(oldest->end - oldest->begin));
    std::ostringstream os;
    os << "rank" << owner << " unregistered lkey " << lkey << " with "
       << region.spans.size() << " in-flight span(s) (" << to_string(oldest->kind)
       << " still live)";
    v.message = os.str();
    report(std::move(v));
    // Detach the dying region's spans from their ops so release paths don't
    // dangle.
    for (const Span& s : all) {
      auto op = ops_.find(s.serial);
      if (op == ops_.end()) continue;
      auto detach = [&](std::vector<SpanLoc>& group) {
        for (auto git = group.begin(); git != group.end();) {
          if (git->region.owner == owner && git->region.lkey == lkey &&
              git->begin == s.begin)
            git = group.erase(git);
          else
            ++git;
        }
      };
      detach(op->second.local_spans);
      detach(op->second.remote_spans);
    }
  }
  rkey_index_.erase({owner, region.rkey});
  // Race mode: landings inside the dying region can no longer be consumed
  // through it; the teardown conflict (if any) was reported above.
  auto lit = landings_.find(owner);
  if (lit != landings_.end()) {
    auto& v = lit->second;
    std::erase_if(v, [&](const Landing& l) {
      return l.begin < region.base + region.len && l.end > region.base;
    });
    if (v.empty()) landings_.erase(lit);
  }
  regions_.erase(it);
}

// ---- conflict matrix ---------------------------------------------------------

std::optional<ViolationKind> Checker::classify(AccessClass access,
                                               SpanKind prior,
                                               fabric::Rank access_initiator,
                                               std::uint64_t prior_serial) {
  const bool access_is_wire =
      access == AccessClass::kWireWrite || access == AccessClass::kWireRead;
  if (access_is_wire && is_wire_span(prior)) {
    // Same-initiator wire ops are serialized (one thread posts them, and the
    // RC connection orders same-pair traffic): never a race with each other.
    auto pit = ops_.find(prior_serial);
    if (pit != ops_.end() && pit->second.info.initiator == access_initiator)
      return std::nullopt;
  }
  switch (access) {
    case AccessClass::kWireWrite:
      switch (prior) {
        case SpanKind::kSrcPinned: return ViolationKind::kUseAfterPut;
        case SpanKind::kDstPinned: return ViolationKind::kRmaRace;
        case SpanKind::kLanding: return ViolationKind::kRmaRace;
        case SpanKind::kWireRead: return ViolationKind::kRmaRace;
        case SpanKind::kAdvertRecv: return std::nullopt;  // expected landing
        case SpanKind::kAdvertSend: return ViolationKind::kRmaRace;
      }
      break;
    case AccessClass::kWireRead:
      switch (prior) {
        case SpanKind::kSrcPinned: return std::nullopt;  // concurrent reads ok
        case SpanKind::kDstPinned: return ViolationKind::kRmaRace;
        case SpanKind::kLanding: return ViolationKind::kRmaRace;
        case SpanKind::kWireRead: return std::nullopt;
        case SpanKind::kAdvertRecv: return ViolationKind::kRmaRace;
        case SpanKind::kAdvertSend: return std::nullopt;  // expected read
      }
      break;
    case AccessClass::kUserWrite:
      switch (prior) {
        case SpanKind::kSrcPinned: return ViolationKind::kUseAfterPut;
        case SpanKind::kDstPinned: return ViolationKind::kUseAfterPut;
        case SpanKind::kLanding: return ViolationKind::kReadOfUnlanded;
        case SpanKind::kWireRead: return ViolationKind::kRmaRace;
        case SpanKind::kAdvertRecv: return ViolationKind::kReadOfUnlanded;
        case SpanKind::kAdvertSend: return ViolationKind::kRmaRace;
      }
      break;
    case AccessClass::kUserRead:
      switch (prior) {
        case SpanKind::kSrcPinned: return std::nullopt;
        case SpanKind::kDstPinned: return ViolationKind::kUseAfterPut;
        case SpanKind::kLanding: return ViolationKind::kReadOfUnlanded;
        case SpanKind::kWireRead: return std::nullopt;
        case SpanKind::kAdvertRecv: return ViolationKind::kReadOfUnlanded;
        case SpanKind::kAdvertSend: return std::nullopt;
      }
      break;
  }
  return std::nullopt;
}

bool Checker::check_access(fabric::Rank owner, std::uint64_t addr,
                           std::size_t len, AccessClass access,
                           const OpRef& who, std::uint64_t self_serial) {
  if (len == 0) return false;
  const std::uint64_t end = addr + len;
  for (auto it = regions_.lower_bound(RegionKey{owner, 0});
       it != regions_.end() && it->first.owner == owner; ++it) {
    const ShadowRegion& region = it->second;
    if (region.base >= end || region.base + region.len <= addr) continue;
    for (const Span& s : region.spans.overlapping(addr, end)) {
      if (s.serial == self_serial) continue;
      const auto kind = classify(access, s.kind, who.initiator, s.serial);
      if (!kind) continue;
      Violation v;
      v.kind = *kind;
      v.op = who;
      auto oit = ops_.find(s.serial);
      if (oit != ops_.end())
        v.prior = make_ref(oit->second, s.begin,
                           static_cast<std::size_t>(s.end - s.begin));
      std::ostringstream os;
      os << (access == AccessClass::kWireWrite   ? "wire write"
             : access == AccessClass::kWireRead  ? "wire read"
             : access == AccessClass::kUserWrite ? "application write"
                                                 : "application read")
         << " of [0x" << std::hex << addr << std::dec << "+" << len
         << ") on rank" << owner << " overlaps in-flight " << to_string(s.kind)
         << " span with no intervening completion";
      v.message = os.str();
      report(std::move(v));
      return true;
    }
  }
  if (race_mode())
    return race_check_access(owner, addr, len, who.initiator, who, self_serial);
  return false;
}

// ---- span bookkeeping --------------------------------------------------------

void Checker::claim_span(OpState& st, RegionKey region, std::uint64_t begin,
                         std::uint64_t end, SpanKind kind, bool remote_group) {
  ShadowRegion* r = find_region(region);
  if (r == nullptr) return;
  r->spans.insert(begin, end, kind, st.serial);
  (remote_group ? st.remote_spans : st.local_spans)
      .push_back(SpanLoc{region, begin});
}

void Checker::release_group(OpState& st, std::vector<SpanLoc>& group) {
  for (const SpanLoc& loc : group) {
    ShadowRegion* r = find_region(loc.region);
    if (r != nullptr) r->spans.erase(loc.begin, st.serial);
  }
  group.clear();
}

void Checker::fire_anchor(OpState& st, Anchor which) {
  if (st.local_anchor == which) release_group(st, st.local_spans);
  if (st.remote_anchor == which) release_group(st, st.remote_spans);
}

void Checker::maybe_retire(std::uint64_t serial) {
  auto it = ops_.find(serial);
  if (it == ops_.end()) return;
  const OpState& st = it->second;
  if (st.wait_local || st.wait_remote || st.wait_request) return;
  if (!st.local_spans.empty() || !st.remote_spans.empty()) return;
  ops_.erase(it);
}

void Checker::drop_op(std::uint64_t serial) {
  auto it = ops_.find(serial);
  if (it == ops_.end()) return;
  OpState& st = it->second;
  release_group(st, st.local_spans);
  release_group(st, st.remote_spans);
  if (st.info.local_id) {
    auto lit = local_ids_.find({st.info.initiator, *st.info.local_id});
    if (lit != local_ids_.end() && lit->second == serial) local_ids_.erase(lit);
  }
  if (st.info.remote_id) {
    auto [first, last] =
        remote_ids_.equal_range({st.info.target, *st.info.remote_id});
    for (auto rit = first; rit != last; ++rit) {
      if (rit->second == serial) {
        remote_ids_.erase(rit);
        break;
      }
    }
  }
  if (st.info.request) {
    requests_.erase({st.info.initiator,
                     static_cast<std::uint8_t>(st.info.request_ns),
                     *st.info.request});
  }
  ops_.erase(it);
}

// ---- race mode ---------------------------------------------------------------
//
// Component space: (initiator, target) RC streams, not bare initiators —
// in-order delivery is a per-connection guarantee, so knowledge of index k on
// a stream implies delivery of indices <= k on that stream only. Each rank
// carries a knowledge vector (stream -> highest index known delivered); ops
// are stamped with the initiator's vector at post time, and observing an op's
// *remote* completion joins the stamp plus the op's own stream prefix. Local
// completions deliberately contribute nothing: a put's local id only means
// the source buffer is reusable, which is exactly the assumption race mode
// exists to check.

void Checker::race_on_commit(OpState& st, bool claims_remote_write) {
  const PostInfo& info = st.info;
  st.race_stream = StreamKey{info.initiator, info.target};
  st.race_index = ++stream_issue_[st.race_stream];
  st.race_stamp = know_[info.initiator];
  if (!claims_remote_write || info.remote_len == 0) return;
  Landing l;
  l.begin = info.remote_addr;
  l.end = info.remote_addr + info.remote_len;
  l.stream = st.race_stream;
  l.index = st.race_index;
  l.serial = st.serial;
  l.ref = make_ref(st, info.remote_addr, info.remote_len);
  l.remote_anchor = st.remote_anchor;
  landings_[info.target].push_back(std::move(l));
}

void Checker::race_observe(fabric::Rank rank, const OpState& st) {
  if (st.race_index == 0) return;  // committed while race mode was off
  VtClock& know = know_[rank];
  for (const auto& [stream, idx] : st.race_stamp) {
    std::uint64_t& have = know[stream];
    if (idx > have) have = idx;
  }
  // RC in-order delivery: observing this op implies every earlier op on the
  // same stream has been delivered too.
  std::uint64_t& own = know[st.race_stream];
  if (st.race_index > own) own = st.race_index;
  race_prune(rank);
}

bool Checker::race_covered(fabric::Rank rank, StreamKey stream,
                           std::uint64_t index) const {
  // The initiator's own later ops on a stream are ordered behind the landing
  // by the RC connection plus program order.
  if (stream.first == rank) return true;
  auto kit = know_.find(rank);
  if (kit == know_.end()) return false;
  auto sit = kit->second.find(stream);
  return sit != kit->second.end() && sit->second >= index;
}

bool Checker::race_check_access(fabric::Rank owner, std::uint64_t addr,
                                std::size_t len, fabric::Rank accessor,
                                const OpRef& who, std::uint64_t self_serial) {
  auto lit = landings_.find(owner);
  if (lit == landings_.end()) return false;
  const std::uint64_t end = addr + len;
  for (Landing& l : lit->second) {
    if (l.reported || l.serial == self_serial) continue;
    if (l.begin >= end || l.end <= addr) continue;
    if (race_covered(accessor, l.stream, l.index)) continue;
    // While the landing span is still claimed (remote id undelivered), the
    // span checker owns the report; racing on top of it would double-count.
    auto oit = ops_.find(l.serial);
    if (oit != ops_.end() && oit->second.wait_remote) continue;
    l.reported = true;
    Violation v;
    v.op = who;
    v.prior = l.ref;
    std::ostringstream os;
    if (l.remote_anchor != Anchor::kRemote) {
      v.kind = ViolationKind::kVtRaceUnordered;
      os << "rank" << accessor << " consumed [0x" << std::hex << addr
         << std::dec << "+" << len << ") in rank" << owner
         << "'s memory, but the landing was released by an initiator-side "
            "anchor ("
         << (l.remote_anchor == Anchor::kLocal     ? "local id"
             : l.remote_anchor == Anchor::kRequest ? "request"
                                                   : "flush")
         << ") that orders nothing at the consumer";
    } else {
      v.kind = ViolationKind::kVtRaceOrder;
      os << "rank" << accessor << " consumed [0x" << std::hex << addr
         << std::dec << "+" << len << ") in rank" << owner
         << "'s memory ordered only by the global drain's completion order; "
            "no happens-before edge (same-stream completion, request, flush, "
            "or relayed message) makes the landing visible to rank"
         << accessor;
    }
    v.message = os.str();
    report(std::move(v));
    return true;
  }
  return false;
}

void Checker::race_drop_stream(fabric::Rank initiator, fabric::Rank peer) {
  auto lit = landings_.find(peer);
  if (lit == landings_.end()) return;
  std::erase_if(lit->second, [&](const Landing& l) {
    return l.stream == StreamKey{initiator, peer};
  });
  if (lit->second.empty()) landings_.erase(lit);
}

void Checker::race_prune(fabric::Rank owner) {
  auto lit = landings_.find(owner);
  if (lit == landings_.end()) return;
  std::erase_if(lit->second, [&](const Landing& l) {
    if (l.reported) return true;
    // Safe to forget once the memory's owner is ordered after the landing
    // and the op itself has retired: the owner's knowledge is the only
    // channel through which later consumers become ordered, and keeping the
    // record past that point can only re-report an already-covered landing.
    return race_covered(owner, l.stream, l.index) &&
           ops_.find(l.serial) == ops_.end();
  });
  if (lit->second.empty()) landings_.erase(lit);
}

// ---- post lifecycle ----------------------------------------------------------

std::uint64_t Checker::begin_op(const PostInfo& info) {
  if (!enabled()) return 0;
  util::LockGuard lock(mutex_);
  const std::uint64_t serial = next_serial_++;
  OpState st;
  st.info = info;
  st.serial = serial;
  // The remote id must be outstanding before the nic post: the simulated
  // fabric delivers synchronously, so the target can pop the id before the
  // initiator's post call even returns.
  if (info.remote_id) {
    remote_ids_.emplace(std::make_pair(info.target, *info.remote_id), serial);
    st.wait_remote = true;
  }
  ops_.emplace(serial, std::move(st));
  return serial;
}

void Checker::abort_post(std::uint64_t serial) {
  if (serial == 0 || !enabled()) return;
  util::LockGuard lock(mutex_);
  auto it = ops_.find(serial);
  if (it == ops_.end()) return;
  OpState& st = it->second;
  // A post the nic rejected synchronously for slice validation *is* the
  // class-4 violation; transient rejections (Retry/QueueFull/credits) and
  // everything else stay silent (the caller will retry or surface an error).
  bool reported = false;
  if (st.info.local_lkey != fabric::kInvalidKey && st.info.local_len > 0) {
    ShadowRegion* r =
        find_region(RegionKey{st.info.initiator, st.info.local_lkey});
    const auto a = reinterpret_cast<std::uint64_t>(st.info.local_addr);
    if (r == nullptr || a < r->base || a + st.info.local_len > r->base + r->len) {
      Violation v;
      v.kind = ViolationKind::kBadSlice;
      v.op = make_ref(st, a, st.info.local_len);
      v.message = r == nullptr
                      ? "local slice lkey is not a registered region"
                      : "local slice out of bounds of its registered region";
      report(std::move(v));
      reported = true;
    }
  }
  (void)reported;
  drop_op(serial);
}

void Checker::commit(std::uint64_t serial) {
  if (serial == 0 || !enabled()) return;
  util::LockGuard lock(mutex_);
  auto it = ops_.find(serial);
  if (it == ops_.end()) return;
  OpState& st = it->second;
  st.committed = true;
  const PostInfo& info = st.info;

  const bool has_local = info.local_id.has_value();
  const bool has_remote = info.remote_id.has_value();
  const bool has_req = info.request.has_value();
  st.local_anchor = has_local   ? Anchor::kLocal
                    : has_req   ? Anchor::kRequest
                    : has_remote ? Anchor::kRemote
                                 : Anchor::kFlush;
  st.remote_anchor = has_remote ? Anchor::kRemote
                     : has_req  ? Anchor::kRequest
                     : has_local ? Anchor::kLocal
                                 : Anchor::kFlush;

  // ---- class 4: slice validation -------------------------------------------
  bool slices_ok = true;
  RegionKey local_key{info.initiator, info.local_lkey};
  RegionKey remote_key{};
  ShadowRegion* local_region = nullptr;
  ShadowRegion* remote_region = nullptr;
  const auto laddr = reinterpret_cast<std::uint64_t>(info.local_addr);
  if (info.local_lkey != fabric::kInvalidKey) {
    local_region = find_region(local_key);
    if (local_region == nullptr || laddr < local_region->base ||
        laddr + info.local_len > local_region->base + local_region->len) {
      Violation v;
      v.kind = ViolationKind::kBadSlice;
      v.op = make_ref(st, laddr, info.local_len);
      v.message = local_region == nullptr
                      ? "local slice lkey is not a registered region"
                      : "local slice out of bounds of its registered region";
      report(std::move(v));
      slices_ok = false;
    }
  }
  if (slices_ok && info.remote_rkey != fabric::kInvalidKey) {
    remote_region = resolve_rkey(info.target, info.remote_rkey, &remote_key);
    if (remote_region == nullptr || info.remote_addr < remote_region->base ||
        info.remote_addr + info.remote_len >
            remote_region->base + remote_region->len) {
      Violation v;
      v.kind = ViolationKind::kBadSlice;
      v.op = make_ref(st, info.remote_addr, info.remote_len);
      v.message = remote_region == nullptr
                      ? "remote slice rkey is not registered on the target"
                      : "remote slice out of bounds of the target region";
      report(std::move(v));
      slices_ok = false;
    }
  }

  // ---- conflict checks + span claims ---------------------------------------
  if (slices_ok) {
    std::optional<SpanKind> local_claim;
    std::optional<SpanKind> remote_claim;
    AccessClass local_access = AccessClass::kWireRead;
    AccessClass remote_access = AccessClass::kWireWrite;
    bool has_local_side = info.local_lkey != fabric::kInvalidKey;
    bool has_remote_side = info.remote_rkey != fabric::kInvalidKey;
    switch (info.kind) {
      case CheckOpKind::kPut:
        local_access = AccessClass::kWireRead;
        local_claim = SpanKind::kSrcPinned;
        remote_access = AccessClass::kWireWrite;
        remote_claim = SpanKind::kLanding;
        break;
      case CheckOpKind::kGet:
        local_access = AccessClass::kWireWrite;
        local_claim = SpanKind::kDstPinned;
        remote_access = AccessClass::kWireRead;
        remote_claim = SpanKind::kWireRead;
        break;
      case CheckOpKind::kOsPut:
        // The remote window belongs to the peer's advert claim; checked but
        // not re-claimed.
        local_access = AccessClass::kWireRead;
        local_claim = SpanKind::kSrcPinned;
        remote_access = AccessClass::kWireWrite;
        break;
      case CheckOpKind::kOsGet:
      case CheckOpKind::kRndvGet:
        local_access = AccessClass::kWireWrite;
        local_claim = SpanKind::kDstPinned;
        remote_access = AccessClass::kWireRead;
        break;
      case CheckOpKind::kAdvert:
        local_access = info.advert_is_send ? AccessClass::kUserRead
                                           : AccessClass::kUserWrite;
        local_claim = info.advert_is_send ? SpanKind::kAdvertSend
                                          : SpanKind::kAdvertRecv;
        has_remote_side = false;
        break;
      case CheckOpKind::kEagerSend:  // payload copied out at post time
      case CheckOpKind::kSignal:
      case CheckOpKind::kAtomic:  // cell bounds validated above; concurrent
                                  // cell ops are legal, so nothing is claimed
      case CheckOpKind::kUserAccess:
      case CheckOpKind::kRegister:
      case CheckOpKind::kFinalize:
        has_local_side = false;
        has_remote_side = false;
        break;
    }
    if (race_mode()) {
      bool wire_op = false;
      bool remote_write = false;
      switch (info.kind) {
        case CheckOpKind::kPut:
        case CheckOpKind::kOsPut:
          wire_op = true;
          remote_write = remote_region != nullptr;
          break;
        case CheckOpKind::kEagerSend:
        case CheckOpKind::kGet:
        case CheckOpKind::kSignal:
        case CheckOpKind::kOsGet:
        case CheckOpKind::kRndvGet:
        case CheckOpKind::kAtomic:
          wire_op = true;  // traverses the stream; carries knowledge
          break;
        case CheckOpKind::kAdvert:
        case CheckOpKind::kUserAccess:
        case CheckOpKind::kRegister:
        case CheckOpKind::kFinalize:
          break;
      }
      if (wire_op && info.initiator != info.target)
        race_on_commit(st, remote_write);
    }
    bool reported = false;
    if (has_local_side) {
      reported = check_access(info.initiator, laddr, info.local_len,
                              local_access, make_ref(st, laddr, info.local_len),
                              serial);
      if (local_claim && info.local_len > 0)
        claim_span(st, local_key, laddr, laddr + info.local_len, *local_claim,
                   /*remote_group=*/false);
    }
    if (has_remote_side && !reported) {
      reported = check_access(
          info.target, info.remote_addr, info.remote_len, remote_access,
          make_ref(st, info.remote_addr, info.remote_len), serial);
    }
    if (has_remote_side && remote_claim && info.remote_len > 0)
      claim_span(st, remote_key, info.remote_addr,
                 info.remote_addr + info.remote_len, *remote_claim,
                 /*remote_group=*/true);
  }

  // ---- class 5: duplicate outstanding local ids ----------------------------
  if (has_local) {
    const auto key = std::make_pair(info.initiator, *info.local_id);
    auto lit = local_ids_.find(key);
    if (lit != local_ids_.end()) {
      Violation v;
      v.kind = ViolationKind::kIdHygiene;
      v.op = make_ref(st, laddr, info.local_len);
      auto oit = ops_.find(lit->second);
      if (oit != ops_.end())
        v.prior = make_ref(oit->second,
                           reinterpret_cast<std::uint64_t>(
                               oit->second.info.local_addr),
                           oit->second.info.local_len);
      std::ostringstream os;
      os << "local id " << *info.local_id
         << " posted while still outstanding on rank" << info.initiator;
      v.message = os.str();
      report(std::move(v));
      // Rebind to the newest op; the older one will never see its pop.
      auto old = ops_.find(lit->second);
      if (old != ops_.end()) {
        old->second.wait_local = false;
        fire_anchor(old->second, Anchor::kLocal);
        const std::uint64_t old_serial = lit->second;
        local_ids_.erase(lit);
        maybe_retire(old_serial);
      } else {
        local_ids_.erase(lit);
      }
    }
    local_ids_[key] = serial;
    st.wait_local = true;
  }
  if (has_req) {
    requests_[{info.initiator, static_cast<std::uint8_t>(info.request_ns),
               *info.request}] = serial;
    st.wait_request = true;
  }
  maybe_retire(serial);
}

// ---- completion-side events --------------------------------------------------

void Checker::on_local_id_popped(fabric::Rank initiator, std::uint64_t id) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  auto it = local_ids_.find({initiator, id});
  if (it == local_ids_.end()) return;  // posted while disabled, or rebound
  const std::uint64_t serial = it->second;
  local_ids_.erase(it);
  auto oit = ops_.find(serial);
  if (oit == ops_.end()) return;
  oit->second.wait_local = false;
  fire_anchor(oit->second, Anchor::kLocal);
  maybe_retire(serial);
}

std::optional<std::uint64_t> Checker::take_remote_id(fabric::Rank target,
                                                     fabric::Rank initiator,
                                                     std::uint64_t id) {
  // Oldest first: ledger slots and ring entries deliver FIFO per initiator,
  // and equal keys in a multimap preserve insertion order. Another rank's
  // post of the same id — possibly not on the wire yet, or about to be
  // aborted and retried — must never absorb this delivery.
  auto [first, last] = remote_ids_.equal_range({target, id});
  for (auto it = first; it != last; ++it) {
    auto oit = ops_.find(it->second);
    if (oit != ops_.end() && oit->second.info.initiator != initiator) continue;
    const std::uint64_t serial = it->second;
    remote_ids_.erase(it);
    return serial;
  }
  return std::nullopt;
}

void Checker::on_remote_id_popped(fabric::Rank target, fabric::Rank initiator,
                                  std::uint64_t id) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  const std::optional<std::uint64_t> taken = take_remote_id(target, initiator, id);
  if (!taken && take_orphaned_remote_id(target, initiator, id)) return;
  if (!taken) {
    Violation v;
    v.kind = ViolationKind::kIdHygiene;
    v.op.kind = CheckOpKind::kSignal;
    v.op.initiator = target;
    v.op.target = target;
    v.op.has_remote_id = true;
    v.op.remote_id = id;
    std::ostringstream os;
    os << "remote id " << id << " delivered on rank" << target << " from rank"
       << initiator << " with no matching outstanding post";
    v.message = os.str();
    report(std::move(v));
    return;
  }
  const std::uint64_t serial = *taken;
  auto oit = ops_.find(serial);
  if (oit == ops_.end()) return;
  oit->second.wait_remote = false;
  if (race_mode()) race_observe(target, oit->second);
  fire_anchor(oit->second, Anchor::kRemote);
  maybe_retire(serial);
}

void Checker::on_request_done(fabric::Rank owner, RequestNs ns,
                              std::uint64_t request) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  auto it = requests_.find({owner, static_cast<std::uint8_t>(ns), request});
  if (it == requests_.end()) return;
  const std::uint64_t serial = it->second;
  requests_.erase(it);
  auto oit = ops_.find(serial);
  if (oit == ops_.end()) return;
  oit->second.wait_request = false;
  // A request completes only once the remote side is fully delivered, so the
  // *initiator* (the rank that waited) becomes ordered after the landing.
  if (race_mode()) race_observe(owner, oit->second);
  fire_anchor(oit->second, Anchor::kRequest);
  maybe_retire(serial);
}

void Checker::on_op_error(std::uint64_t serial, bool remote_id_sent) {
  if (serial == 0 || !enabled()) return;
  util::LockGuard lock(mutex_);
  auto it = ops_.find(serial);
  if (it == ops_.end()) return;
  OpState& st = it->second;
  release_group(st, st.local_spans);
  release_group(st, st.remote_spans);
  if (st.wait_local && st.info.local_id) {
    auto lit = local_ids_.find({st.info.initiator, *st.info.local_id});
    if (lit != local_ids_.end() && lit->second == serial) local_ids_.erase(lit);
    st.wait_local = false;
  }
  if (st.wait_request && st.info.request) {
    requests_.erase({st.info.initiator,
                     static_cast<std::uint8_t>(st.info.request_ns),
                     *st.info.request});
    st.wait_request = false;
  }
  if (st.wait_remote && !remote_id_sent && st.info.remote_id) {
    auto [first, last] =
        remote_ids_.equal_range({st.info.target, *st.info.remote_id});
    for (auto rit = first; rit != last; ++rit) {
      if (rit->second == serial) {
        remote_ids_.erase(rit);
        break;
      }
    }
    st.wait_remote = false;
  }
  maybe_retire(serial);
}

void Checker::on_remote_id_lost(fabric::Rank target, fabric::Rank initiator,
                                std::uint64_t id) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  const std::optional<std::uint64_t> taken = take_remote_id(target, initiator, id);
  if (!taken) return;
  const std::uint64_t serial = *taken;
  auto oit = ops_.find(serial);
  if (oit == ops_.end()) return;
  oit->second.wait_remote = false;
  fire_anchor(oit->second, Anchor::kRemote);
  maybe_retire(serial);
}

bool Checker::take_orphaned_remote_id(fabric::Rank target,
                                      fabric::Rank initiator,
                                      std::uint64_t id) {
  auto [first, last] = orphaned_remote_ids_.equal_range({target, id});
  for (auto it = first; it != last; ++it) {
    if (it->second != initiator) continue;
    orphaned_remote_ids_.erase(it);
    return true;
  }
  return false;
}

void Checker::drop_stream(fabric::Rank initiator, fabric::Rank peer,
                          bool orphan_remote_ids) {
  std::vector<std::uint64_t> serials;
  for (auto& [serial, st] : ops_) {
    if (st.info.initiator != initiator || st.info.target != peer) continue;
    serials.push_back(serial);
    if (orphan_remote_ids && st.wait_remote && st.info.remote_id)
      orphaned_remote_ids_.emplace(std::make_pair(peer, *st.info.remote_id),
                                   initiator);
  }
  for (const std::uint64_t serial : serials) drop_op(serial);
  race_drop_stream(initiator, peer);
}

void Checker::on_peer_dead(fabric::Rank initiator, fabric::Rank peer) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  // The peer may still pop deposits that landed before the initiator gave
  // up on it (Fabric::kill leaves the killed rank's thread running).
  drop_stream(initiator, peer, /*orphan_remote_ids=*/true);
}

void Checker::on_peer_recovered(fabric::Rank initiator, fabric::Rank peer) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  // Completions of pre-fence ops can never arrive in the new epoch, and
  // that is expected rather than a violation. Residue of the dead
  // incarnation must be discarded, never popped, so its orphans go too.
  drop_stream(initiator, peer, /*orphan_remote_ids=*/false);
  for (auto it = orphaned_remote_ids_.begin(); it != orphaned_remote_ids_.end();) {
    if (it->first.first == peer && it->second == initiator) {
      it = orphaned_remote_ids_.erase(it);
    } else {
      ++it;
    }
  }
}

void Checker::on_flush(fabric::Rank initiator, fabric::Rank peer) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  std::vector<std::uint64_t> serials;
  for (auto& [serial, st] : ops_) {
    if (st.committed && st.info.initiator == initiator &&
        st.info.target == peer)
      serials.push_back(serial);
  }
  for (const std::uint64_t serial : serials) {
    auto it = ops_.find(serial);
    if (it == ops_.end()) continue;
    fire_anchor(it->second, Anchor::kFlush);
    maybe_retire(serial);
  }
  if (race_mode()) {
    // flush(peer) returns only after every op on the stream is delivered
    // remotely: the initiator's knowledge jumps to the stream head, and later
    // messages it sends relay that knowledge through their stamps.
    const StreamKey stream{initiator, peer};
    auto sit = stream_issue_.find(stream);
    if (sit != stream_issue_.end()) {
      std::uint64_t& have = know_[initiator][stream];
      if (sit->second > have) have = sit->second;
      race_prune(initiator);
    }
  }
}

void Checker::on_finalize(fabric::Rank rank) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  std::vector<std::uint64_t> serials;
  for (auto& [serial, st] : ops_) {
    if (st.info.initiator == rank) serials.push_back(serial);
  }
  for (const std::uint64_t serial : serials) {
    auto it = ops_.find(serial);
    if (it == ops_.end()) continue;
    OpState& st = it->second;
    if (st.committed && (st.wait_local || st.wait_remote || st.wait_request)) {
      Violation v;
      v.kind = ViolationKind::kIdHygiene;
      v.op = make_ref(st, reinterpret_cast<std::uint64_t>(st.info.local_addr),
                      st.info.local_len);
      std::ostringstream os;
      os << "op still in flight at rank" << rank << " finalize (";
      const char* sep = "";
      if (st.wait_local) { os << sep << "local id undelivered"; sep = ", "; }
      if (st.wait_remote) { os << sep << "remote id undelivered"; sep = ", "; }
      if (st.wait_request) { os << sep << "request incomplete"; }
      os << ")";
      v.message = os.str();
      report(std::move(v));
    }
    drop_op(serial);
  }
  // Race state for the finalizing rank: its memory is going away, and its
  // knowledge vector has no further readers.
  landings_.erase(rank);
  know_.erase(rank);
}

// ---- application accesses ----------------------------------------------------

void Checker::note_user_read(fabric::Rank rank, const void* addr,
                             std::size_t len) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  OpRef who;
  who.kind = CheckOpKind::kUserAccess;
  who.initiator = rank;
  who.target = rank;
  who.addr = reinterpret_cast<std::uint64_t>(addr);
  who.len = len;
  check_access(rank, who.addr, len, AccessClass::kUserRead, who, 0);
}

void Checker::note_user_write(fabric::Rank rank, const void* addr,
                              std::size_t len) {
  if (!enabled()) return;
  util::LockGuard lock(mutex_);
  OpRef who;
  who.kind = CheckOpKind::kUserAccess;
  who.initiator = rank;
  who.target = rank;
  who.addr = reinterpret_cast<std::uint64_t>(addr);
  who.len = len;
  check_access(rank, who.addr, len, AccessClass::kUserWrite, who, 0);
}

}  // namespace photon::check
