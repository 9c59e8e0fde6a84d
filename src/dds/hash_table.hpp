// DDS distributed hash table: open addressing sharded across ranks.
//
// RMA engine — each rank hosts a registered shard of `slots_per_rank` slots,
// each slot an 8-byte tag cell plus an 8-byte value cell:
//
//   tag = 0                  empty
//   tag = (key << 2) | 1     reserved: a claimant won the CAS, value in flight
//   tag = (key << 2) | 3     published: value cell is valid
//
// insert() probes the owner's shard linearly from the key's hash slot,
// claiming empties with remote CAS(0 -> reserved), writing the value with an
// 8-byte put, then publishing with CAS(reserved -> published). A probe that
// finds its own key (reserved or published) updates the value in place and
// help-publishes, so an insert acked anywhere is findable everywhere — the
// chaos conservation oracle leans on exactly that. find() walks the same
// chain with one two-word read per slot (Photon::get_u64x2: tag, then
// value, in one round trip); an empty tag terminates (inserts never move a
// slot once claimed, there is no deletion). The NIC reads the tag before
// the value, so a published tag carries the value put that preceded the
// publish CAS.
//
// RPC engine — the owner keeps a plain hash map; insert/find are parcels to
// the owner's handler, which replies to the requester. Identical interface,
// identical sharding, opposite cost model (owner CPU on every op).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dds/service.hpp"
#include "util/expected.hpp"

namespace photon::dds {

struct HashTableConfig {
  Backend backend = Backend::kRma;
  std::uint32_t slots_per_rank = 1u << 12;  ///< slots per shard (RMA)
  std::uint32_t probe_limit = 128;          ///< max linear-probe chain length
  std::uint64_t op_timeout_ns = 10'000'000'000ULL;
  std::string scope;  ///< telemetry prefix override ("" = dds.hash.<backend>)
  /// High availability: mirror every write to the shard's partner replica
  /// behind a replication fence before acking, serve through the ownership
  /// directory (dds/ha.hpp) so clients fail over when the owner dies. Must
  /// be identical on every rank (construction is collective).
  bool replicate = false;
};

class HashTable {
 public:
  /// Keys must fit beside the 2-bit slot state in a tag cell.
  static constexpr std::uint64_t kMaxKey = (std::uint64_t{1} << 61) - 1;

  /// Collective: registers the shard (RMA) / the handlers (RPC) on every
  /// rank in the same order.
  HashTable(Service& svc, const HashTableConfig& cfg);
  ~HashTable();

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  /// Blocking insert-or-update. QueueFull when the probe chain is exhausted
  /// (shard region full), PeerUnreachable / Timeout on failure.
  Status insert(std::uint64_t key, std::uint64_t value);
  /// Blocking lookup. NotFound when the key was never published.
  util::Result<std::uint64_t> find(std::uint64_t key);

  fabric::Rank home_of(std::uint64_t key) const noexcept {
    return static_cast<fabric::Rank>(mix64(key) % svc_.size());
  }
  Backend backend() const noexcept { return cfg_.backend; }
  /// True when writes are mirrored to a second replica (cfg.replicate on a
  /// fabric with >= 2 ranks).
  bool replicated() const noexcept {
    return cfg_.replicate && svc_.directory().enabled();
  }

  /// Re-replication after rank `r` rejoined: the current owner of each
  /// shard whose replica set contains `r` pushes its full region (RMA) /
  /// live entries (RPC) back to `r`. Call on every rank (non-owners no-op);
  /// the caller provides the closing barrier. RPC state transfer is parcel
  /// based, so `r` must be draining its engine while survivors push.
  Status ha_resync(fabric::Rank r);

 private:
  static constexpr std::uint64_t kReserved = 1;
  static constexpr std::uint64_t kPublished = 3;

  std::uint32_t start_slot(std::uint64_t key) const noexcept {
    return static_cast<std::uint32_t>((mix64(key) >> 20) % cfg_.slots_per_rank);
  }
  /// Cells of shard `shard`'s region as hosted at `host` — the primary
  /// array when host == shard, the partner's replica array otherwise.
  core::RemoteSlice slot_slice(fabric::Rank shard, fabric::Rank host,
                               std::uint32_t slot, std::size_t off,
                               std::size_t len) const;
  core::RemoteSlice tag_cell(fabric::Rank shard, fabric::Rank host,
                             std::uint32_t slot) const {
    return slot_slice(shard, host, slot, 0, 8);
  }
  core::RemoteSlice value_cell(fabric::Rank shard, fabric::Rank host,
                               std::uint32_t slot) const {
    return slot_slice(shard, host, slot, 8, 8);
  }
  /// The slot's tag and value cells as one 16-byte slice.
  core::RemoteSlice slot_cells(fabric::Rank shard, fabric::Rank host,
                               std::uint32_t slot) const {
    return slot_slice(shard, host, slot, 0, 16);
  }

  /// One owner-side insert attempt against shard's region at `host`;
  /// reports the claimed slot for mirroring.
  Status probe_insert(fabric::Rank shard, fabric::Rank host, std::uint64_t key,
                      std::uint64_t value, std::uint32_t* slot_out);
  util::Result<std::uint64_t> probe_find(fabric::Rank shard, fabric::Rank host,
                                         std::uint64_t key);

  Status insert_rma(std::uint64_t key, std::uint64_t value);
  util::Result<std::uint64_t> find_rma(std::uint64_t key);
  Status insert_rpc(std::uint64_t key, std::uint64_t value);
  util::Result<std::uint64_t> find_rpc(std::uint64_t key);

  /// RPC owner store for a shard this rank serves: its own map for its home
  /// shard, the backup map for its partner's shard.
  std::unordered_map<std::uint64_t, std::uint64_t>& store_for(
      fabric::Rank shard) {
    return shard == svc_.rank() ? owned_ : backup_owned_;
  }

  Service& svc_;
  HashTableConfig cfg_;

  // RMA shard (one per rank; zero-initialised = all slots empty), plus the
  // replica region this rank hosts for its partner's shard when replicated.
  std::vector<std::uint64_t> shard_;
  core::BufferDescriptor shard_desc_;
  std::vector<core::BufferDescriptor> peer_shards_;
  std::vector<std::uint64_t> replica_;
  core::BufferDescriptor replica_desc_;
  std::vector<core::BufferDescriptor> peer_replicas_;

  // RPC owner state + request plumbing.
  struct Pending {
    bool done = false;
    bool found = false;
    bool nak = false;
    std::uint64_t value = 0;
    std::uint64_t entry = 0;  ///< directory entry carried by a NAK
  };
  std::unordered_map<std::uint64_t, std::uint64_t> owned_;
  std::unordered_map<std::uint64_t, std::uint64_t> backup_owned_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_token_ = 1;
  parcels::HandlerId h_insert_ = parcels::kInvalidHandler;
  parcels::HandlerId h_insert_ack_ = parcels::kInvalidHandler;
  parcels::HandlerId h_find_ = parcels::kInvalidHandler;
  parcels::HandlerId h_find_ack_ = parcels::kInvalidHandler;
  parcels::HandlerId h_mirror_ = parcels::kInvalidHandler;

  OpMetrics m_insert_;
  OpMetrics m_find_;
};

}  // namespace photon::dds
