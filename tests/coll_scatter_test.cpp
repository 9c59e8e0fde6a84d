// scatter: the root's blocks reach every rank, chunked when large.
#include <gtest/gtest.h>

#include <cstring>

#include "coll/communicator.hpp"
#include "runtime/cluster.hpp"
#include "test_helpers.hpp"

namespace photon::coll {
namespace {

using photon::testing::pattern;
using photon::testing::quiet_fabric;
using runtime::Cluster;
using runtime::Env;

void with_comm(std::uint32_t nranks,
               const std::function<void(Env&, core::Photon&, Communicator&)>& body) {
  Cluster cluster(quiet_fabric(nranks));
  cluster.run([&](Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    Communicator comm(ph);
    body(env, ph, comm);
    env.bootstrap.barrier(env.rank);
  });
}

TEST(Scatter, EveryRankGetsItsBlock) {
  with_comm(4, [](Env& env, core::Photon&, Communicator& comm) {
    std::vector<std::uint64_t> all(4), mine(1, ~0ull);
    if (env.rank == 1)
      for (std::uint32_t r = 0; r < 4; ++r) all[r] = 500 + r;
    comm.scatter(std::as_bytes(std::span(all)),
                 std::as_writable_bytes(std::span(mine)), /*root=*/1);
    EXPECT_EQ(mine[0], 500 + env.rank);
  });
}

TEST(Scatter, LargeBlocksChunkCorrectly) {
  with_comm(3, [](Env& env, core::Photon&, Communicator& comm) {
    constexpr std::size_t kBlock = 25'000;
    std::vector<std::byte> all(kBlock * 3), mine(kBlock);
    if (env.rank == 0) {
      for (std::uint32_t r = 0; r < 3; ++r) {
        auto p = pattern(kBlock, static_cast<std::uint8_t>(r + 40));
        std::memcpy(all.data() + kBlock * r, p.data(), kBlock);
      }
    }
    comm.scatter(all, mine, 0);
    auto expect = pattern(kBlock, static_cast<std::uint8_t>(env.rank + 40));
    EXPECT_EQ(std::memcmp(mine.data(), expect.data(), kBlock), 0);
  });
}

}  // namespace
}  // namespace photon::coll
