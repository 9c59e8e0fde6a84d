#include "fabric/registry.hpp"

#include "check/hooks.hpp"

namespace photon::fabric {

namespace {

std::uint64_t fresh_generation() {
  static std::atomic<std::uint64_t> next{0};
  // relaxed-ok: only uniqueness matters; the value is published by the
  // release store into the registry's generation_.
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// One thread's lookup cache, shared by every registry the thread touches:
/// direct-mapped on a hash of (registry, key).
struct LookupCache {
  struct Slot {
    const void* registry = nullptr;
    std::uint64_t generation = 0;
    MrKey key = kInvalidKey;
    bool remote = false;
    MemoryRegion mr;
  };
  static constexpr unsigned kSlotBits = 6;
  Slot slots[1u << kSlotBits];

  Slot& slot(const void* registry, MrKey key) {
    const std::uint64_t h =
        (reinterpret_cast<std::uintptr_t>(registry) ^ key) *
        0x9E3779B97F4A7C15ull;
    return slots[h >> (64 - kSlotBits)];
  }
};

thread_local LookupCache t_cache;

}  // namespace

MemoryRegistry::MemoryRegistry() : generation_(fresh_generation()) {}

util::Result<MemoryRegion> MemoryRegistry::register_memory(void* addr,
                                                           std::size_t len,
                                                           std::uint32_t access) {
  if (addr == nullptr || len == 0) return Status::BadArgument;
  MemoryRegion mr;
  {
    util::WriterLock lock(mutex_);
    mr.addr = addr;
    mr.length = len;
    mr.lkey = next_key_++;
    mr.rkey = next_key_++;
    mr.access = access;
    by_lkey_.emplace(mr.lkey, mr);
    rkey_to_lkey_.emplace(mr.rkey, mr.lkey);
    generation_.store(fresh_generation(), std::memory_order_release);
  }
  PHOTON_CHECK_HOOK(if (checker_ != nullptr) checker_->on_mr_register(
      owner_, addr, len, mr.lkey, mr.rkey));
  return mr;
}

Status MemoryRegistry::deregister(MrKey lkey) {
  // The checker hook runs before our lock (it takes only its own mutex, so
  // the ordering stays one-way); its shadow table decides whether this is a
  // double unregister or tears down a region with live spans.
  PHOTON_CHECK_HOOK(
      if (checker_ != nullptr) checker_->on_mr_deregister(owner_, lkey));
  util::WriterLock lock(mutex_);
  auto it = by_lkey_.find(lkey);
  if (it == by_lkey_.end()) return Status::InvalidKey;
  rkey_to_lkey_.erase(it->second.rkey);
  by_lkey_.erase(it);
  generation_.store(fresh_generation(), std::memory_order_release);
  return Status::Ok;
}

bool MemoryRegistry::lookup(MrKey key, bool remote, MemoryRegion& out) const {
  LookupCache::Slot& slot = t_cache.slot(this, key);
  if (slot.registry == this && slot.key == key && slot.remote == remote &&
      slot.generation == generation_.load(std::memory_order_acquire)) {
    out = slot.mr;
    return true;
  }
  util::SharedLock lock(mutex_);
  MrKey lkey = key;
  if (remote) {
    auto rit = rkey_to_lkey_.find(key);
    if (rit == rkey_to_lkey_.end()) return false;
    lkey = rit->second;
  }
  auto it = by_lkey_.find(lkey);
  if (it == by_lkey_.end()) return false;
  out = it->second;
  // Stable under the shared lock: writers move it only under the writer lock.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  slot = {this, gen, key, remote, out};
  return true;
}

util::Result<MemoryRegion> MemoryRegistry::check_local(const void* addr,
                                                       std::size_t len, MrKey lkey,
                                                       std::uint32_t required) const {
  MemoryRegion mr;
  if (!lookup(lkey, /*remote=*/false, mr)) return Status::InvalidKey;
  if (!mr.contains(reinterpret_cast<std::uint64_t>(addr), len))
    return Status::OutOfBounds;
  if (!mr.allows(required)) return Status::AccessDenied;
  return mr;
}

util::Result<MemoryRegion> MemoryRegistry::check_remote(std::uint64_t addr,
                                                        std::size_t len, MrKey rkey,
                                                        std::uint32_t required) const {
  MemoryRegion mr;
  if (!lookup(rkey, /*remote=*/true, mr)) return Status::InvalidKey;
  if (!mr.contains(addr, len)) return Status::OutOfBounds;
  if (!mr.allows(required)) return Status::AccessDenied;
  return mr;
}

std::size_t MemoryRegistry::count() const {
  util::SharedLock lock(mutex_);
  return by_lkey_.size();
}

}  // namespace photon::fabric
