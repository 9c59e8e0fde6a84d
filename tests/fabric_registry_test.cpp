#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <new>
#include <thread>
#include <vector>

#include "fabric/registry.hpp"

namespace photon::fabric {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  MemoryRegistry reg;
  std::array<std::byte, 1024> buf{};
};

TEST_F(RegistryTest, RegisterReturnsDistinctKeys) {
  auto a = reg.register_memory(buf.data(), buf.size(), kAccessAll);
  ASSERT_TRUE(a.ok());
  EXPECT_NE(a.value().lkey, a.value().rkey);
  EXPECT_NE(a.value().lkey, kInvalidKey);
  EXPECT_EQ(reg.count(), 1u);
}

TEST_F(RegistryTest, RejectsNullAndZeroLength) {
  EXPECT_EQ(reg.register_memory(nullptr, 16, kAccessAll).status(),
            Status::BadArgument);
  EXPECT_EQ(reg.register_memory(buf.data(), 0, kAccessAll).status(),
            Status::BadArgument);
}

TEST_F(RegistryTest, LocalCheckValidatesKeyBoundsAccess) {
  auto mr = reg.register_memory(buf.data(), buf.size(), kLocalRead);
  ASSERT_TRUE(mr.ok());
  const MrKey lkey = mr.value().lkey;

  EXPECT_TRUE(reg.check_local(buf.data(), 1024, lkey, kLocalRead).ok());
  EXPECT_TRUE(reg.check_local(buf.data() + 512, 512, lkey, kLocalRead).ok());
  EXPECT_EQ(reg.check_local(buf.data(), 16, lkey + 999, kLocalRead).status(),
            Status::InvalidKey);
  EXPECT_EQ(reg.check_local(buf.data() + 1, 1024, lkey, kLocalRead).status(),
            Status::OutOfBounds);
  EXPECT_EQ(reg.check_local(buf.data(), 16, lkey, kLocalWrite).status(),
            Status::AccessDenied);
}

TEST_F(RegistryTest, RemoteCheckUsesRkeyNamespace) {
  auto mr = reg.register_memory(buf.data(), buf.size(), kRemoteWrite);
  ASSERT_TRUE(mr.ok());
  const std::uint64_t addr = mr.value().begin();

  EXPECT_TRUE(reg.check_remote(addr, 64, mr.value().rkey, kRemoteWrite).ok());
  // The lkey must NOT resolve in the remote namespace.
  EXPECT_EQ(reg.check_remote(addr, 64, mr.value().lkey, kRemoteWrite).status(),
            Status::InvalidKey);
  EXPECT_EQ(
      reg.check_remote(addr + 1020, 16, mr.value().rkey, kRemoteWrite).status(),
      Status::OutOfBounds);
  EXPECT_EQ(
      reg.check_remote(addr, 64, mr.value().rkey, kRemoteAtomic).status(),
      Status::AccessDenied);
}

TEST_F(RegistryTest, DeregisterInvalidatesBothKeys) {
  auto mr = reg.register_memory(buf.data(), buf.size(), kAccessAll);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(reg.deregister(mr.value().lkey), Status::Ok);
  EXPECT_EQ(reg.count(), 0u);
  EXPECT_EQ(
      reg.check_local(buf.data(), 16, mr.value().lkey, kLocalRead).status(),
      Status::InvalidKey);
  EXPECT_EQ(reg.check_remote(mr.value().begin(), 16, mr.value().rkey,
                             kRemoteWrite)
                .status(),
            Status::InvalidKey);
  EXPECT_EQ(reg.deregister(mr.value().lkey), Status::InvalidKey);
}

TEST_F(RegistryTest, OverlappingRegionsCoexist) {
  auto a = reg.register_memory(buf.data(), 1024, kAccessAll);
  auto b = reg.register_memory(buf.data() + 256, 512, kAccessAll);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(reg.check_local(buf.data() + 256, 512, a.value().lkey,
                              kLocalRead)
                  .ok());
  EXPECT_TRUE(reg.check_local(buf.data() + 256, 512, b.value().lkey,
                              kLocalRead)
                  .ok());
  // b's key does not extend to a's full range.
  EXPECT_EQ(reg.check_local(buf.data(), 1024, b.value().lkey, kLocalRead)
                .status(),
            Status::OutOfBounds);
}

TEST_F(RegistryTest, ZeroLengthAccessInsideRegionIsValid) {
  auto mr = reg.register_memory(buf.data(), 1024, kAccessAll);
  ASSERT_TRUE(mr.ok());
  EXPECT_TRUE(reg.check_local(buf.data() + 1024, 0, mr.value().lkey,
                              kLocalRead)
                  .ok());
}

// ---- lock-free lookups against concurrent (de)registration -------------------

// Readers hammer a stable region and a churned one while a writer registers
// and deregisters regions. The stable region must always validate; the
// churned key is either live (Ok) or gone (InvalidKey), never a stale or
// torn region.
TEST(RegistryConcurrency, LookupsRaceRegisterAndDeregister) {
  MemoryRegistry reg;
  std::array<std::byte, 256> stable{};
  std::array<std::byte, 512> churn{};
  const MemoryRegion s = reg.register_memory(stable.data(), stable.size(),
                                             kAccessAll).value();
  std::atomic<MrKey> churn_rkey{kInvalidKey};
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (!reg.check_remote(s.begin() + 8, 64, s.rkey, kRemoteWrite).ok() ||
            !reg.check_local(stable.data(), stable.size(), s.lkey, kLocalRead)
                 .ok())
          bad.fetch_add(1);
        const MrKey rk = churn_rkey.load(std::memory_order_acquire);
        if (rk == kInvalidKey) continue;
        auto r = reg.check_remote(reinterpret_cast<std::uint64_t>(churn.data()),
                                  churn.size(), rk, kRemoteRead);
        if (r.ok() ? r.value().rkey != rk || r.value().addr != churn.data()
                   : r.status() != Status::InvalidKey)
          bad.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 400; ++i) {
    auto mr = reg.register_memory(churn.data(), churn.size(), kAccessAll);
    ASSERT_TRUE(mr.ok());
    churn_rkey.store(mr.value().rkey, std::memory_order_release);
    std::this_thread::yield();
    ASSERT_EQ(reg.deregister(mr.value().lkey), Status::Ok);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(reg.count(), 1u);
}

// A thread that validated a key (and so holds it in its lookup cache) must
// see InvalidKey once the region is deregistered.
TEST(RegistryConcurrency, LookupAfterDeregisterIsInvalidKey) {
  MemoryRegistry reg;
  std::array<std::byte, 128> buf{};
  const MemoryRegion mr =
      reg.register_memory(buf.data(), buf.size(), kAccessAll).value();
  std::atomic<int> phase{0};
  Status after_remote = Status::Ok;
  Status after_local = Status::Ok;
  std::thread reader([&] {
    EXPECT_TRUE(reg.check_remote(mr.begin(), 16, mr.rkey, kRemoteRead).ok());
    EXPECT_TRUE(reg.check_local(buf.data(), 16, mr.lkey, kLocalRead).ok());
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) std::this_thread::yield();
    after_remote = reg.check_remote(mr.begin(), 16, mr.rkey, kRemoteRead).status();
    after_local = reg.check_local(buf.data(), 16, mr.lkey, kLocalRead).status();
  });
  while (phase.load(std::memory_order_acquire) != 1) std::this_thread::yield();
  ASSERT_EQ(reg.deregister(mr.lkey), Status::Ok);
  phase.store(2, std::memory_order_release);
  reader.join();
  EXPECT_EQ(after_remote, Status::InvalidKey);
  EXPECT_EQ(after_local, Status::InvalidKey);
}

// Keys restart at the same values in a fresh registry, and a registry
// rebuilt in the same storage has the same address: the lookup cache must
// still never answer from the old registry's regions.
TEST(RegistryConcurrency, RegistryRecreatedAtSameAddressGetsNoStaleHit) {
  alignas(MemoryRegistry) std::byte storage[sizeof(MemoryRegistry)];
  std::array<std::byte, 64> old_buf{};
  std::array<std::byte, 64> new_buf{};
  auto* reg = new (storage) MemoryRegistry;
  const MemoryRegion old_mr =
      reg->register_memory(old_buf.data(), old_buf.size(), kAccessAll).value();
  ASSERT_TRUE(reg->check_remote(old_mr.begin(), 8, old_mr.rkey, kRemoteRead).ok());
  ASSERT_TRUE(reg->check_local(old_buf.data(), 8, old_mr.lkey, kLocalRead).ok());

  reg->~MemoryRegistry();
  reg = new (storage) MemoryRegistry;
  EXPECT_EQ(reg->check_remote(old_mr.begin(), 8, old_mr.rkey, kRemoteRead).status(),
            Status::InvalidKey);
  EXPECT_EQ(reg->check_local(old_buf.data(), 8, old_mr.lkey, kLocalRead).status(),
            Status::InvalidKey);

  // Same keys, different memory: the old region must not be returned.
  const MemoryRegion new_mr =
      reg->register_memory(new_buf.data(), new_buf.size(), kRemoteRead).value();
  ASSERT_EQ(new_mr.rkey, old_mr.rkey);
  EXPECT_EQ(reg->check_remote(old_mr.begin(), 8, new_mr.rkey, kRemoteRead).status(),
            Status::OutOfBounds);
  auto hit = reg->check_remote(new_mr.begin(), 8, new_mr.rkey, kRemoteRead);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().addr, new_buf.data());
  EXPECT_EQ(reg->check_remote(new_mr.begin(), 8, new_mr.rkey, kRemoteWrite).status(),
            Status::AccessDenied);
  reg->~MemoryRegistry();
}

}  // namespace
}  // namespace photon::fabric
