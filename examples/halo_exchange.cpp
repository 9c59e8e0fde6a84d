// Halo exchange: the motivating stencil workload for one-sided RMA.
//
// A 2-D Jacobi heat iteration on a Px x Py rank grid. Each iteration, every
// rank writes its boundary rows/columns directly into its neighbors' ghost
// regions with put_with_completion — the classic "neighbor update without
// receiver involvement" pattern — then waits for the four matching remote
// ids before computing. Numerics are verified against a single-rank
// reference at the end.
//
//   $ ./halo_exchange [iters]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "coll/communicator.hpp"
#include "core/photon.hpp"
#include "runtime/cluster.hpp"

using namespace photon;

namespace {

constexpr std::uint32_t kPx = 2, kPy = 2;
constexpr std::size_t kNx = 32, kNy = 32;  // interior cells per rank

// Local grid with a one-cell ghost border: (kNx+2) x (kNy+2), row-major.
struct Grid {
  std::vector<double> cells;
  Grid() : cells((kNx + 2) * (kNy + 2), 0.0) {}
  double& at(std::size_t x, std::size_t y) { return cells[y * (kNx + 2) + x]; }
  double at(std::size_t x, std::size_t y) const {
    return cells[y * (kNx + 2) + x];
  }
};

double initial(std::size_t gx, std::size_t gy) {
  // A smooth bump plus a hot corner.
  const double fx = static_cast<double>(gx) / (kPx * kNx);
  const double fy = static_cast<double>(gy) / (kPy * kNy);
  return std::sin(3.1 * fx) * std::cos(2.7 * fy) + (gx < 4 && gy < 4 ? 5.0 : 0.0);
}

/// Serial reference: whole domain on one grid.
std::vector<double> reference(int iters) {
  const std::size_t W = kPx * kNx + 2, H = kPy * kNy + 2;
  std::vector<double> a(W * H, 0.0), b(W * H, 0.0);
  for (std::size_t y = 1; y + 1 < H; ++y)
    for (std::size_t x = 1; x + 1 < W; ++x)
      a[y * W + x] = initial(x - 1, y - 1);
  for (int it = 0; it < iters; ++it) {
    for (std::size_t y = 1; y + 1 < H; ++y)
      for (std::size_t x = 1; x + 1 < W; ++x)
        b[y * W + x] = 0.25 * (a[y * W + x - 1] + a[y * W + x + 1] +
                               a[(y - 1) * W + x] + a[(y + 1) * W + x]);
    std::swap(a, b);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 50;

  fabric::FabricConfig fcfg;
  fcfg.nranks = kPx * kPy;
  runtime::Cluster cluster(fcfg);

  std::vector<double> max_err_per_rank(fcfg.nranks, 0.0);

  cluster.run([&](runtime::Env& env) {
    core::Photon ph(env.nic, env.bootstrap, core::Config{});
    coll::Communicator comm(ph);

    const std::uint32_t cx = env.rank % kPx, cy = env.rank / kPx;
    Grid cur, nxt;
    for (std::size_t y = 1; y <= kNy; ++y)
      for (std::size_t x = 1; x <= kNx; ++x)
        cur.at(x, y) = initial(cx * kNx + x - 1, cy * kNy + y - 1);

    // Ghost staging: contiguous registered strips per direction — outgoing
    // boundary copies plus parity-double-buffered landing slots (a neighbor
    // may run one iteration ahead; even/odd iterations land in different
    // slots so an un-read strip is never overwritten).
    // Layout: [4 out][4 in (even iters)][4 in (odd iters)]
    const std::size_t strip = std::max(kNx, kNy);
    std::vector<double> halo(12 * strip, 0.0);
    auto hdesc = ph.register_buffer(halo.data(), halo.size() * sizeof(double))
                     .value();
    auto peers = ph.exchange_descriptors(hdesc);

    const std::uint32_t west = cx == 0 ? UINT32_MAX : env.rank - 1;
    const std::uint32_t east = cx == kPx - 1 ? UINT32_MAX : env.rank + 1;
    const std::uint32_t north = cy == 0 ? UINT32_MAX : env.rank - kPx;
    const std::uint32_t south = cy == kPy - 1 ? UINT32_MAX : env.rank + kPx;

    auto out_off = [&](int dir) { return dir * strip * sizeof(double); };
    auto in_off = [&](int dir, int it) {
      return (4 + 4 * (it & 1) + dir) * strip * sizeof(double);
    };
    enum { W, E, N, S };
    std::unordered_map<int, int> arrived;  // iteration -> strips seen

    // A fast neighbor's first push may race the barrier; it stays in the
    // event FIFO for the halo wait below.
    comm.barrier();

    for (int it = 0; it < iters; ++it) {
      // Pack boundaries into outgoing strips.
      for (std::size_t y = 1; y <= kNy; ++y) {
        halo[W * strip + y - 1] = cur.at(1, y);
        halo[E * strip + y - 1] = cur.at(kNx, y);
      }
      for (std::size_t x = 1; x <= kNx; ++x) {
        halo[N * strip + x - 1] = cur.at(x, 1);
        halo[S * strip + x - 1] = cur.at(x, kNy);
      }

      // One-sided pushes: my W strip lands in my west neighbor's E-in slot.
      struct Push {
        std::uint32_t nbr;
        int out_dir, in_dir;
      } pushes[] = {{west, W, E}, {east, E, W}, {north, N, S}, {south, S, N}};
      int expected = 0;
      for (const Push& p : pushes) {
        if (p.nbr == UINT32_MAX) continue;
        const std::uint64_t rid =
            (static_cast<std::uint64_t>(it) << 8) | p.in_dir;
        ph.put_with_completion(
            p.nbr,
            core::local_slice(hdesc, out_off(p.out_dir), strip * sizeof(double)),
            core::slice(peers[p.nbr], in_off(p.in_dir, it),
                        strip * sizeof(double)),
            std::nullopt, rid);
        ++expected;
      }
      // Wait for the neighbors' strips for *this* iteration (ids carry the
      // iteration); a fast neighbor may already deliver it+1 strips, which
      // are stashed for the next round.
      while (arrived[it] < expected) {
        core::ProbeEvent ev;
        if (ph.wait_event(ev) != Status::Ok)
          throw std::runtime_error("halo wait failed");
        ++arrived[static_cast<int>(ev.id >> 8)];
      }
      arrived.erase(it);

      // Unpack ghosts.
      const std::size_t inb = (4 + 4 * (it & 1)) * strip;
      for (std::size_t y = 1; y <= kNy; ++y) {
        if (west != UINT32_MAX) cur.at(0, y) = halo[inb + W * strip + y - 1];
        if (east != UINT32_MAX)
          cur.at(kNx + 1, y) = halo[inb + E * strip + y - 1];
      }
      for (std::size_t x = 1; x <= kNx; ++x) {
        if (north != UINT32_MAX) cur.at(x, 0) = halo[inb + N * strip + x - 1];
        if (south != UINT32_MAX)
          cur.at(x, kNy + 1) = halo[inb + S * strip + x - 1];
      }

      // Jacobi sweep; charge the compute to virtual time (2 ns/cell-op).
      for (std::size_t y = 1; y <= kNy; ++y)
        for (std::size_t x = 1; x <= kNx; ++x)
          nxt.at(x, y) = 0.25 * (cur.at(x - 1, y) + cur.at(x + 1, y) +
                                 cur.at(x, y - 1) + cur.at(x, y + 1));
      env.clock().add(kNx * kNy * 2);
      std::swap(cur, nxt);
      // Neighbor-synchronized by the halo waits; no global barrier needed.
    }

    comm.barrier();

    // Verify against the serial reference.
    auto ref = reference(iters);
    const std::size_t W2 = kPx * kNx + 2;
    double max_err = 0.0;
    for (std::size_t y = 1; y <= kNy; ++y)
      for (std::size_t x = 1; x <= kNx; ++x) {
        const std::size_t gx = cx * kNx + x, gy = cy * kNy + y;
        max_err = std::max(max_err,
                           std::abs(cur.at(x, y) - ref[gy * W2 + gx]));
      }
    max_err_per_rank[env.rank] = max_err;
    std::printf("[rank %u] %d iters, max |err| vs serial = %.3e, vtime=%llu ns\n",
                env.rank, iters, max_err,
                static_cast<unsigned long long>(env.clock().now()));
    env.bootstrap.barrier(env.rank);
  });

  double worst = 0.0;
  for (double e : max_err_per_rank) worst = std::max(worst, e);
  if (worst > 1e-12) {
    std::printf("halo_exchange: FAILED (err=%.3e)\n", worst);
    return 1;
  }
  std::puts("halo_exchange: OK (bitwise-matching Jacobi across 4 ranks)");
  return 0;
}
