// Violation vocabulary for the PhotonCheck shadow-state validator.
//
// A Violation names a protocol rule that was broken, the operation that broke
// it, and (when the rule is a conflict between two operations) the prior
// operation it collided with. Op records are small value types so reports stay
// meaningful after the offending op has completed or been recycled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "fabric/types.hpp"

namespace photon::check {

/// The protocol rule classes the checker enforces (ISSUE 2 classes 1-5).
enum class ViolationKind : std::uint8_t {
  /// Source buffer of a put was touched, re-posted, or unregistered before
  /// the local completion id was delivered (class 1).
  kUseAfterPut,
  /// A landing range was read, written, or re-advertised at the target before
  /// the remote completion id was delivered (class 2).
  kReadOfUnlanded,
  /// Overlapping concurrent puts/gets to the same remote range with no
  /// intervening completion (class 3).
  kRmaRace,
  /// Unregistered or out-of-bounds slice passed to a post (class 4).
  kBadSlice,
  /// Completion-id hygiene: duplicate outstanding local ids, orphan remote
  /// ids, double unregister, ops leaked at finalize (class 5).
  kIdHygiene,
  /// Race mode (class 6): a rank consumed a remotely-written region whose
  /// landing is not ordered-before any completion that rank observed — the
  /// release the code relied on was an initiator-side event (local id,
  /// request, flush) that orders nothing at the consumer. Invisible to TSan
  /// (the simulated fabric memcpy is host-synchronous) and legal under
  /// today's single-initiator drain, but a real race on concurrent NICs.
  kVtRaceUnordered,
  /// Race mode (class 7): a completion-order assumption across independent
  /// streams — the landing was ordered only by virtual-time coincidence of
  /// the global drain, not by any happens-before edge (completion pop,
  /// fence, or relayed message) visible to the accessing rank.
  kVtRaceOrder,
};

/// What kind of user-facing operation an OpRef describes.
enum class CheckOpKind : std::uint8_t {
  kPut,        // put_with_completion, direct path
  kEagerSend,  // send_with_completion via eager ring
  kGet,        // get_with_completion
  kSignal,     // bare completion-id deposit
  kOsPut,      // rendezvous one-sided put against an advertised buffer
  kOsGet,      // rendezvous one-sided get against an advertised buffer
  kRndvGet,    // msg-engine rendezvous get
  kAtomic,     // atomic-cell op (fetch_add/cas/swap/put_u64/get_u64/x2):
               // remote bounds are validated but no spans are claimed —
               // concurrent cell ops are the point of remote atomics
  kAdvert,     // rendezvous buffer advertisement (recv or send side)
  kUserAccess, // application touch of a buffer (note_user_read/write)
  kRegister,   // memory registration / deregistration
  kFinalize,   // teardown scan
};

const char* to_string(ViolationKind kind) noexcept;
const char* to_string(CheckOpKind kind) noexcept;

/// Compact record of one operation, kept alive in violation reports even
/// after the op itself retires.
struct OpRef {
  std::uint64_t serial = 0;  ///< checker-assigned, unique per fabric
  CheckOpKind kind = CheckOpKind::kUserAccess;
  fabric::Rank initiator = 0;
  fabric::Rank target = 0;
  std::uint64_t addr = 0;  ///< the span this record refers to (local or remote)
  std::size_t len = 0;
  bool has_local_id = false;
  std::uint64_t local_id = 0;
  bool has_remote_id = false;
  std::uint64_t remote_id = 0;
};

struct Violation {
  ViolationKind kind = ViolationKind::kIdHygiene;
  OpRef op;                      ///< the op that tripped the rule
  std::optional<OpRef> prior;    ///< the earlier op it conflicts with, if any
  std::string message;           ///< one-line human-readable report
};

/// Render "put#12 rank0->rank2 [0x...+128) local_id=5" style op summaries.
std::string describe(const OpRef& op);

}  // namespace photon::check
