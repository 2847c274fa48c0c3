// Heterogeneous device lane: cost-model placement + device residency.
//
// The load-bearing contract: device=Off IS the pre-device runtime — same
// makespans, same message counts, same numerics — even for TTs that
// registered a device op, and even though the collective tuning now derives
// from the machine model instead of per-backend constants. The StealEquiv
// goldens in test_steal.cpp pin that (device=Off is the default there). On
// top: derived-tuning pins, deterministic greedy placement (serial, sharded,
// faulty), placement-invariant numerics, residency/eviction counters, and
// the fence-time residency reconciliation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/cholesky/cholesky_ttg.hpp"
#include "linalg/matrix_gen.hpp"
#include "runtime/collective.hpp"
#include "support/rng.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;

// ---------------------------------------------------------------------------
// machine-derived collective tuning (the constants the goldens ride on)
// ---------------------------------------------------------------------------

TEST(DerivedTuning, HawkAndSeawulfReproduceHistoricalConstants) {
  // The PaRSEC collective defaults used to be hard-coded {arity 4, window
  // 1 us, coalesce 4096 B}. They now derive from NIC bandwidth x AM CPU
  // (bandwidth-delay product) and must land on the exact same values for
  // both preset machines — bit-identical baselines depend on it.
  for (const auto& m : {sim::hawk(), sim::seawulf()}) {
    const auto t = rt::collective::derive_tuning(m);
    EXPECT_EQ(t.arity, 4) << m.name;
    EXPECT_EQ(t.window, 1.0e-6) << m.name;
    EXPECT_EQ(t.am_coalesce_max, 4096u) << m.name;
  }
}

TEST(DerivedTuning, ParsecPolicyUsesDerivedValues) {
  for (const auto& m : {sim::hawk(), sim::seawulf()}) {
    rt::WorldConfig cfg;
    cfg.machine = m;
    cfg.nranks = 2;
    rt::World world(cfg);
    const auto& pol = world.comm().collective();
    const auto t = rt::collective::derive_tuning(m);
    EXPECT_EQ(pol.tree_arity, t.arity);
    EXPECT_EQ(pol.am_flush_window, t.window);
    EXPECT_EQ(pol.reduce_arity, t.arity);
    EXPECT_EQ(pol.am_coalesce_max, t.am_coalesce_max);
  }
}

TEST(DerivedTuning, TracksTheMachineModel) {
  // A faster NIC (bigger bandwidth-delay product) must widen coalescing and
  // the tree arity; the derivation is monotone in nic_bw up to the
  // eager-threshold cap.
  sim::MachineModel m = sim::hawk();
  m.eager_threshold = 1 << 20;
  m.nic_bw = 200e9;  // bdp = 80 KB -> coalesce 128 KB capped at 512 KB
  const auto fat = rt::collective::derive_tuning(m);
  EXPECT_GT(fat.am_coalesce_max, 4096u);
  EXPECT_EQ(fat.arity, 8);  // clamped at the top
  m.nic_bw = 1e9;  // bdp = 400 B -> coalesce 512 B, arity clamped at 2
  const auto thin = rt::collective::derive_tuning(m);
  EXPECT_EQ(thin.am_coalesce_max, 512u);
  EXPECT_EQ(thin.arity, 2);
}

// ---------------------------------------------------------------------------
// greedy placement: determinism, numerics, counters
// ---------------------------------------------------------------------------

struct DeviceRun {
  double makespan = 0.0;
  std::uint64_t tasks = 0;
  double checksum = 0.0;
  rt::DeviceStats stats;
  double device_busy = 0.0;
};

DeviceRun potrf_device_run(rt::WorldConfig cfg, int dim = 1024) {
  // 4x4 tiles of the bench's 256-wide device character: big enough that
  // greedy offloads every TRSM/SYRK/GEMM with residency reuse, small enough
  // to keep the suite's dozen runs cheap.
  support::Rng rng(5);
  auto a = linalg::random_spd(rng, dim, 256);
  rt::World world(cfg);
  auto res = apps::cholesky::run(world, a);
  DeviceRun r;
  r.makespan = res.makespan;
  r.tasks = res.tasks;
  for (int m = 0; m < res.matrix.ntiles(); ++m)
    for (int n = 0; n <= m; ++n) r.checksum += res.matrix.tile(m, n).norm();
  for (int rank = 0; rank < world.nranks(); ++rank) {
    const auto& s = world.scheduler(rank).device_stats();
    r.stats.device_tasks += s.device_tasks;
    r.stats.host_tasks += s.host_tasks;
    r.stats.h2d_transfers += s.h2d_transfers;
    r.stats.h2d_bytes += s.h2d_bytes;
    r.stats.d2h_transfers += s.d2h_transfers;
    r.stats.d2h_bytes += s.d2h_bytes;
    r.stats.residency_hits += s.residency_hits;
    r.stats.residency_misses += s.residency_misses;
    r.stats.evictions += s.evictions;
    r.device_busy += world.scheduler(rank).device_busy();
  }
  return r;
}

rt::WorldConfig device_world(rt::DevicePlacement p) {
  rt::WorldConfig cfg;
  cfg.nranks = 4;
  cfg.device = p;
  return cfg;
}

TEST(DeviceDeterminism, GreedyRerunIsBitIdentical) {
  const DeviceRun a = potrf_device_run(device_world(rt::DevicePlacement::Greedy));
  const DeviceRun b = potrf_device_run(device_world(rt::DevicePlacement::Greedy));
  EXPECT_GT(a.stats.device_tasks, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.stats.device_tasks, b.stats.device_tasks);
  EXPECT_EQ(a.stats.h2d_bytes, b.stats.h2d_bytes);
  EXPECT_EQ(a.stats.residency_hits, b.stats.residency_hits);
  EXPECT_EQ(a.stats.evictions, b.stats.evictions);
  EXPECT_EQ(a.device_busy, b.device_busy);
}

// Own suite (not DeviceDeterminism) so the TSan CI leg can run exactly the
// thread-bearing device path, like StealSharded; 2x2 tiles keep it cheap
// under the sanitizer's slowdown.
TEST(DeviceSharded, SerialAndShardedAgree) {
  // Device lanes and residency maps are rank-local scheduler state, so the
  // sharded engine must replay identical placement decisions.
  rt::WorldConfig serial = device_world(rt::DevicePlacement::Greedy);
  rt::WorldConfig sharded = device_world(rt::DevicePlacement::Greedy);
  sharded.engine_lanes = 4;
  const DeviceRun a = potrf_device_run(serial, 512);
  const DeviceRun b = potrf_device_run(sharded, 512);
  EXPECT_GT(a.stats.device_tasks, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.stats.device_tasks, b.stats.device_tasks);
  EXPECT_EQ(a.stats.h2d_bytes, b.stats.h2d_bytes);
  EXPECT_EQ(a.stats.residency_hits, b.stats.residency_hits);
}

TEST(DeviceDeterminism, FaultyGreedyRerunIsBitIdentical) {
  // Stragglers scale host compute (and thus the host side of the placement
  // comparison); the decision stays deterministic under a seeded plan.
  rt::WorldConfig cfg = device_world(rt::DevicePlacement::Greedy);
  cfg.faults = sim::FaultPlan::parse("straggler=0:2", 42);
  const DeviceRun a = potrf_device_run(cfg);
  const DeviceRun b = potrf_device_run(cfg);
  EXPECT_GT(a.stats.device_tasks, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stats.device_tasks, b.stats.device_tasks);
  EXPECT_EQ(a.stats.h2d_bytes, b.stats.h2d_bytes);
}

TEST(DeviceNumerics, PlacementInvariantAcrossAllPolicies) {
  const DeviceRun off = potrf_device_run(device_world(rt::DevicePlacement::Off));
  const DeviceRun greedy =
      potrf_device_run(device_world(rt::DevicePlacement::Greedy));
  const DeviceRun always =
      potrf_device_run(device_world(rt::DevicePlacement::Always));
  // Same factorization, same task count, bit-identical checksum: placement
  // moves kernels between planes, never changes the math.
  EXPECT_EQ(off.tasks, greedy.tasks);
  EXPECT_EQ(off.tasks, always.tasks);
  EXPECT_EQ(off.checksum, greedy.checksum);
  EXPECT_EQ(off.checksum, always.checksum);
  // Off must not touch the device plane.
  EXPECT_EQ(off.stats.device_tasks, 0u);
  EXPECT_EQ(off.stats.h2d_transfers, 0u);
  EXPECT_EQ(off.device_busy, 0.0);
  // The 512-tile kernels are device-worthy: greedy offloads and wins.
  EXPECT_GT(greedy.stats.device_tasks, 0u);
  EXPECT_GT(greedy.stats.residency_hits, 0u);
  EXPECT_LT(greedy.makespan, off.makespan);
}

TEST(DeviceCounters, ZeroWhenOffEverywhere) {
  support::Rng rng(5);
  auto a = linalg::random_spd(rng, 512, 128);
  rt::WorldConfig cfg;
  cfg.nranks = 4;
  rt::World world(cfg);
  apps::cholesky::run(world, a);
  for (int r = 0; r < world.nranks(); ++r) {
    const auto& s = world.scheduler(r).device_stats();
    EXPECT_EQ(s.device_tasks, 0u);
    EXPECT_EQ(s.host_tasks, 0u);
    EXPECT_EQ(s.h2d_transfers, 0u);
    EXPECT_EQ(world.scheduler(r).device_busy(), 0.0);
    EXPECT_EQ(world.scheduler(r).device_resident_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// HBM pressure: LRU eviction + dirty writebacks
// ---------------------------------------------------------------------------

TEST(DeviceResidency, SmallHbmForcesEvictionsAndWritebacks) {
  // Each 256-tile is 512 KB; a GEMM dispatch pins three of them. 1.25 MB of
  // HBM can't hold two dispatches' working sets, so residents thrash — and
  // evicted factor tiles were written on device, so writebacks (d2h) must
  // appear.
  rt::WorldConfig cfg = device_world(rt::DevicePlacement::Always);
  cfg.machine.hbm_bytes = 1.25e6;
  const DeviceRun r = potrf_device_run(cfg);
  EXPECT_GT(r.stats.device_tasks, 0u);
  EXPECT_GT(r.stats.evictions, 0u);
  EXPECT_GT(r.stats.d2h_transfers, 0u);
  EXPECT_GT(r.stats.d2h_bytes, 0u);
  // Pressure can only lose reuse relative to the roomy-HBM run.
  const DeviceRun roomy =
      potrf_device_run(device_world(rt::DevicePlacement::Always));
  EXPECT_EQ(roomy.stats.evictions, 0u);
  EXPECT_GT(roomy.stats.residency_hits, 0u);
  EXPECT_LE(r.stats.residency_hits, roomy.stats.residency_hits);
  EXPECT_GT(r.stats.h2d_bytes, roomy.stats.h2d_bytes);
  // Numerics are immune to eviction thrash.
  EXPECT_EQ(r.checksum, roomy.checksum);
}

// ---------------------------------------------------------------------------
// fence-time residency reconciliation
// ---------------------------------------------------------------------------

TEST(DeviceResidency, FenceCatchesUnbalancedAccounting) {
  support::Rng rng(5);
  auto a = linalg::random_spd(rng, 512, 128);
  rt::WorldConfig cfg = device_world(rt::DevicePlacement::Greedy);
  rt::World world(cfg);
  apps::cholesky::run(world, a);  // fences internally: books balance
  // Poke a phantom staging into the tracker: the next fence must see the
  // tracker and the schedulers disagree and throw.
  world.data_tracker().on_stage_h2d(0, 123);
  EXPECT_THROW(world.fence(), support::ApiError);
}

TEST(DeviceOff, SubmitDeviceForwardsToHostPath) {
  // A task carrying a device variant on a device-less scheduler takes the
  // host path, verbatim: runs on a worker, leaves every device counter
  // untouched.
  rt::WorldConfig cfg;
  cfg.machine.cores_per_node = 1;
  cfg.nranks = 1;
  rt::World w(cfg);
  std::vector<int> order;
  rt::DeviceCall dev;
  dev.cost = 1e-9;  // would be absurdly fast on a device, but there is none
  dev.datums = {{/*tag=*/1, /*bytes=*/64, /*write=*/false}};
  auto& s = w.scheduler(0);
  s.submit({.priority = 1, .cost = 1.0, .body = [&] { order.push_back(1); }});
  s.submit({.priority = 2, .cost = 1.0, .device = dev,
            .body = [&] { order.push_back(2); }});
  s.submit({.priority = 3, .cost = 1.0, .body = [&] { order.push_back(3); }});
  w.fence();
  // Priority order preserved: the device-eligible task is an ordinary task.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(w.scheduler(0).device_stats().device_tasks, 0u);
  EXPECT_EQ(w.scheduler(0).device_stats().host_tasks, 0u);
  EXPECT_EQ(w.scheduler(0).device_resident_bytes(), 0u);
}

}  // namespace
