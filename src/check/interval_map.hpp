// Interval map of in-flight RMA spans over one registered memory region.
//
// Spans are half-open byte ranges [begin, end) tagged with the kind of claim
// an in-flight operation holds on them (pinned source, landing range, ...)
// and the serial of the owning op record. Lookups are linear in the number of
// spans whose begin precedes the query end — in-flight depth per region is
// small (bounded by NIC slots and ledger size), so no tree balancing is
// needed; a std::multimap keyed by begin keeps insert/erase cheap and scans
// ordered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace photon::check {

/// What claim an in-flight op holds over a span.
enum class SpanKind : std::uint8_t {
  kSrcPinned,   // put/send source: read-pinned until local id delivery
  kDstPinned,   // get destination: write-pinned until local id delivery
  kLanding,     // put landing range at the target until remote id delivery
  kWireRead,    // get source at the target until remote id delivery
  kAdvertRecv,  // advertised receive window (rendezvous put target) until FIN
  kAdvertSend,  // advertised send window (rendezvous get source) until FIN
};

const char* to_string(SpanKind kind) noexcept;

/// True if the claim means the wire (or its owner) will WRITE the range.
inline bool span_is_write(SpanKind kind) noexcept {
  return kind == SpanKind::kDstPinned || kind == SpanKind::kLanding ||
         kind == SpanKind::kAdvertRecv;
}

struct Span {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // half-open
  SpanKind kind = SpanKind::kSrcPinned;
  std::uint64_t serial = 0;  // owning op record
};

/// Interval map for one registered region.
class IntervalMap {
 public:
  void insert(std::uint64_t begin, std::uint64_t end, SpanKind kind,
              std::uint64_t serial) {
    spans_.emplace(begin, Span{begin, end, kind, serial});
  }

  /// Remove the span owned by `serial` starting at `begin`; returns whether
  /// one was found. (An op never owns two spans with the same begin in the
  /// same region, so the pair is unique.)
  bool erase(std::uint64_t begin, std::uint64_t serial) {
    auto [first, last] = spans_.equal_range(begin);
    for (auto it = first; it != last; ++it) {
      if (it->second.serial == serial) {
        spans_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Remove every span owned by `serial`; returns how many were removed.
  // test-only-ok: interval-map unit tests; the checker erases by span.
  std::size_t erase_all(std::uint64_t serial) {
    std::size_t n = 0;
    for (auto it = spans_.begin(); it != spans_.end();) {
      if (it->second.serial == serial) {
        it = spans_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

  /// All spans overlapping [begin, end). Empty query ranges overlap nothing.
  std::vector<Span> overlapping(std::uint64_t begin, std::uint64_t end) const {
    std::vector<Span> out;
    if (begin >= end) return out;
    // Every candidate has span.begin < end; scan that prefix.
    for (auto it = spans_.begin(), stop = spans_.lower_bound(end); it != stop;
         ++it) {
      if (it->second.end > begin) out.push_back(it->second);
    }
    return out;
  }

  bool empty() const noexcept { return spans_.empty(); }
  std::size_t size() const noexcept { return spans_.size(); }

  /// Snapshot of all live spans (finalize-leak reporting).
  std::vector<Span> all() const {
    std::vector<Span> out;
    out.reserve(spans_.size());
    for (const auto& [_, span] : spans_) out.push_back(span);
    return out;
  }

 private:
  std::multimap<std::uint64_t, Span> spans_;
};

}  // namespace photon::check
