// Per-NIC memory-registration table with lkey/rkey validation.
//
// Locking: registrations happen at setup time and around rendezvous
// transfers; lookups happen on every data path op and may be issued by
// *remote* rank threads (a put validates the target's rkey in the initiating
// thread). Registration and deregistration take the writer side of a
// shared_mutex and move the registry to a fresh registration generation,
// drawn from a process-wide counter so that no two registry states — even of
// registries that reuse one address — ever share a value.
//
// Lookups are lock-free when they hit: every thread keeps a small
// direct-mapped cache of (registry, generation, key) -> region, and a hit is
// one acquire load of the generation plus the bounds and access checks. A
// miss (first use of a key by a thread, or any lookup after a registration
// changed the generation) reads the table under the shared lock and refills
// the entry. A region deregistered before a lookup is never found, cached or
// not: the deregistration already moved the generation.
#pragma once

#include <atomic>
#include <unordered_map>

#include "fabric/memory_region.hpp"
#include "util/expected.hpp"
#include "util/mutex.hpp"

namespace photon::check {
class Checker;
}  // namespace photon::check

namespace photon::fabric {

class MemoryRegistry {
 public:
  MemoryRegistry();

  /// Attach the fabric's shadow-state validator; registrations and
  /// deregistrations are mirrored into its region table. `owner` is the rank
  /// this registry belongs to.
  void bind_checker(check::Checker* checker, Rank owner) {
    checker_ = checker;
    owner_ = owner;
  }

  /// Register [addr, addr+len). Keys are unique per registry and never
  /// reused. Zero-length registration is rejected (BadArgument).
  util::Result<MemoryRegion> register_memory(void* addr, std::size_t len,
                                             std::uint32_t access);

  /// Remove by lkey. InvalidKey if unknown.
  Status deregister(MrKey lkey);

  /// Validate a local access: lkey known, range in bounds, rights present.
  util::Result<MemoryRegion> check_local(const void* addr, std::size_t len,
                                         MrKey lkey, std::uint32_t required) const;

  /// Validate a remote access by rkey (used by the target side of put/get).
  util::Result<MemoryRegion> check_remote(std::uint64_t addr, std::size_t len,
                                          MrKey rkey, std::uint32_t required) const;

  std::size_t count() const;

 private:
  /// The region registered under `key` (an lkey, or an rkey when `remote`),
  /// from the calling thread's cache when the generation still matches.
  bool lookup(MrKey key, bool remote, MemoryRegion& out) const;

  mutable util::SharedMutex mutex_;
  std::unordered_map<MrKey, MemoryRegion> by_lkey_ GUARDED_BY(mutex_);
  std::unordered_map<MrKey, MrKey> rkey_to_lkey_ GUARDED_BY(mutex_);
  MrKey next_key_ GUARDED_BY(mutex_) = 1;
  /// Changes (under the writer lock) whenever the table does.
  std::atomic<std::uint64_t> generation_;
  /// Set once at NIC construction, before any concurrent use.
  check::Checker* checker_ = nullptr;
  Rank owner_ = 0;
};

}  // namespace photon::fabric
