// Completion events surfaced by probing.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/types.hpp"
#include "util/status.hpp"

namespace photon::core {

/// Initiator-side completion: one of this rank's puts/gets/sends finished
/// (its source buffer is reusable / its destination buffer is filled).
struct LocalComplete {
  std::uint64_t id = 0;   ///< the local_id passed at post time
  fabric::Rank peer = 0;
  /// Atomic-cell ops (fetch_add/compare_swap/swap/get_u64): the 64-bit value
  /// the remote cell held before the op executed (the fetched value for
  /// get_u64, the first cell for get_u64x2). Zero for every other op class.
  std::uint64_t result = 0;
  /// Ok for ordinary completions. Internal-id atomic ops deliver their
  /// failure here (instead of probe_error) so the blocking wrapper that
  /// posted them can consume the verdict in-line.
  Status status = Status::Ok;
  /// get_u64x2: the second cell (the slice's address + 8). Zero otherwise.
  std::uint64_t result2 = 0;
};

/// Target-side event: a peer's operation delivered a remote completion id
/// here. Eager messages carry their payload (copied out of the ring).
struct ProbeEvent {
  std::uint64_t id = 0;   ///< the remote_id chosen by the initiator
  fabric::Rank peer = 0;  ///< initiating rank
  bool from_get = false;  ///< true when raised by a get_with_completion
  /// Receive-stream incarnation this event was delivered under. After an
  /// epoch fence (Nic::try_recover) the NIC's rx_epoch(peer) moves past
  /// this value for events that predate the fence — recovery protocols use
  /// the comparison to tell residue addressed to a dead incarnation from
  /// fresh post-fence traffic (see Communicator::rejoin).
  std::uint32_t epoch = 0;
  std::vector<std::byte> payload;  ///< eager data; empty for direct PWC/GWC
};

/// Remote ids with this bit set are *keyed*: delivery files them by
/// (peer, id), and only Photon::take_event(peer, id) returns them —
/// probe_event()/wait_event() never do. Every other id (application ids,
/// parcel handler ids) goes to the one FIFO those probes drain, so no
/// consumer filters another's events.
inline constexpr std::uint64_t kKeyedEventBit = 1ULL << 63;
/// Splits the keyed space between its two users so their ids cannot
/// collide: DDS service handoffs set it (dds::Service::alloc_handoff_id),
/// collective blocks keep it clear (coll::Communicator::block_id).
inline constexpr std::uint64_t kKeyedServiceBit = 1ULL << 62;

/// A shard-epoch NAK received on the completion-ledger path: `peer` tells us
/// the ownership of DDS shard `shard` has moved to `epoch`. Routed to a
/// dedicated queue (Photon::take_shard_nak) instead of the probe-event
/// stream: it is ledger control, not a ProbeEvent.
struct ShardNak {
  fabric::Rank peer = 0;
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
};

/// Handle for rendezvous requests (test/wait).
using RequestId = std::uint64_t;
inline constexpr RequestId kInvalidRequest = 0;

/// A peer's advertised rendezvous buffer, as seen by the transfer initiator.
struct RendezvousBuffer {
  fabric::Rank peer = 0;
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  fabric::MrKey rkey = fabric::kInvalidKey;
  std::uint64_t tag = 0;
  std::uint64_t remote_request = 0;  ///< advertiser's request id (for FIN)
  bool get_side = false;             ///< advertiser is the data source
};

}  // namespace photon::core
