// Work-stealing scheduler substrate + process-map-aware keymaps.
//
// The load-bearing contract: steal=off IS the historical single-queue
// scheduler — same pop order, same makespans, same message counts, same
// numerics — so every checked-in CI baseline survives the refactor. The
// golden rows below were captured on the pre-refactor scheduler and pin
// that equivalence end-to-end for all four apps on both backends. They run
// with steal=off and device=Off together (both defaults), so they are also
// the goldens of the device plane's Off path. On top:
// seeded steal-on determinism, steal counters, cap compliance under
// stealing, socket-distance costs, and the keymap placement rules.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/bspmm/bspmm_ttg.hpp"
#include "apps/cholesky/cholesky_ttg.hpp"
#include "apps/fw_apsp/fw_ttg.hpp"
#include "apps/mra/mra_ttg.hpp"
#include "linalg/matrix_gen.hpp"
#include "sparse/yukawa_gen.hpp"
#include "support/rng.hpp"
#include "ttg/keymaps.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;

// ---------------------------------------------------------------------------
// steal=off equivalence with the pre-refactor scheduler (golden rows)
// ---------------------------------------------------------------------------

struct Golden {
  const char* app;
  const char* backend;
  double makespan;
  std::uint64_t messages;
  std::uint64_t splitmd_sends;
  std::uint64_t tasks;
  double checksum;
  std::uint64_t reduce_forwards;
  std::uint64_t reduce_combines;
};

// The first eight rows were captured by running the exact configurations
// below on the single-queue scheduler as of the commit before the deque
// substrate landed. The last four pin send paths those rows do not reach
// (per-dependence sends, remote stream control, tree-reduced streams); they
// were captured on the runtime that still had separate flat senders.
constexpr Golden kGolden[] = {
    {"potrf", "parsec", 0.011019046033279654, 0ull, 38ull, 56ull,
     5341.2622308796535, 0ull, 0ull},
    {"fw", "parsec", 0.010114634948240147, 0ull, 128ull, 512ull,
     25938.648754752114, 0ull, 0ull},
    {"bspmm", "parsec", 0.0014136615217391184, 847ull, 1640ull, 18586ull,
     3.0506868746361206, 0ull, 0ull},
    {"mra", "parsec", 0.00034552836521739105, 1367ull, 352ull, 6272ull,
     6.0620249749848053e-06, 236ull, 236ull},
    {"potrf", "madness", 0.012440797165861498, 38ull, 0ull, 56ull,
     5341.2622308796535, 0ull, 0ull},
    {"fw", "madness", 0.011743691938095222, 128ull, 0ull, 512ull,
     25938.648754752114, 0ull, 0ull},
    {"bspmm", "madness", 0.0038405752449275398, 2487ull, 0ull, 18586ull,
     3.0506868746361206, 0ull, 0ull},
    {"mra", "madness", 0.00050195266086956421, 1064ull, 0ull, 6272ull,
     6.0620249749848036e-06, 0ull, 0ull},
    {"potrf-perdep", "parsec", 0.001460211145464305, 0ull, 49ull, 56ull,
     2670.591430021097, 0ull, 0ull},
    {"potrf-perdep", "madness", 0.0019556391471819631, 49ull, 0ull, 56ull,
     2670.591430021097, 0ull, 0ull},
    {"reduce-setsize", "parsec", 1.8265742351046701e-05, 42ull, 0ull, 11ull, 108.0,
     8ull, 8ull},
    {"reduce-finalize", "parsec", 2.7986469082125613e-05, 70ull, 0ull, 12ull, 108.0,
     16ull, 16ull},
};

const Golden& golden(const std::string& app, rt::BackendKind b) {
  for (const auto& g : kGolden)
    if (app == g.app && std::string(rt::to_string(b)) == g.backend) return g;
  ADD_FAILURE() << "no golden row for " << app;
  return kGolden[0];
}

void expect_golden(const Golden& g, double makespan, const rt::CommStats& cs,
                   std::uint64_t tasks, double checksum) {
  // Bit-identical, not near: steal=off must BE the old scheduler.
  EXPECT_EQ(makespan, g.makespan) << g.app << "/" << g.backend;
  EXPECT_EQ(cs.messages, g.messages) << g.app << "/" << g.backend;
  EXPECT_EQ(cs.splitmd_sends, g.splitmd_sends) << g.app << "/" << g.backend;
  EXPECT_EQ(tasks, g.tasks) << g.app << "/" << g.backend;
  EXPECT_EQ(checksum, g.checksum) << g.app << "/" << g.backend;
  EXPECT_EQ(cs.reduce_forwards, g.reduce_forwards) << g.app << "/" << g.backend;
  EXPECT_EQ(cs.reduce_combines, g.reduce_combines) << g.app << "/" << g.backend;
}

TEST(StealEquiv, PotrfOffMatchesPreRefactorGolden) {
  for (auto b : {rt::BackendKind::Parsec, rt::BackendKind::Madness}) {
    support::Rng rng(5);
    auto a = linalg::random_spd(rng, 1536, 256);
    rt::WorldConfig cfg;
    cfg.nranks = 4;
    cfg.backend = b;
    rt::World world(cfg);
    auto res = apps::cholesky::run(world, a);
    double cs = 0.0;
    for (int m = 0; m < res.matrix.ntiles(); ++m)
      for (int n = 0; n <= m; ++n) cs += res.matrix.tile(m, n).norm();
    expect_golden(golden("potrf", b), res.makespan, world.comm().stats(), res.tasks, cs);
  }
}

TEST(StealEquiv, FwOffMatchesPreRefactorGolden) {
  for (auto b : {rt::BackendKind::Parsec, rt::BackendKind::Madness}) {
    support::Rng rng(11);
    auto w0 = linalg::random_adjacency(rng, 1024, 128, 0.25);
    rt::WorldConfig cfg;
    cfg.nranks = 4;
    cfg.backend = b;
    rt::World world(cfg);
    auto res = apps::fw::run(world, w0);
    double cs = 0.0;
    for (int i = 0; i < res.matrix.ntiles(); ++i)
      for (int j = 0; j < res.matrix.ntiles(); ++j)
        cs += res.matrix.tile(i, j).norm();
    expect_golden(golden("fw", b), res.makespan, world.comm().stats(), res.tasks, cs);
  }
}

sparse::BlockSparseMatrix small_yukawa() {
  sparse::YukawaParams p;
  p.natoms = 40;
  p.max_tile = 64;
  p.box = 60.0;
  p.screening_length = 5.0;
  p.threshold = 1e-3;
  p.seed = 7;
  return sparse::yukawa_matrix(p);
}

TEST(StealEquiv, BspmmOffMatchesPreRefactorGolden) {
  auto a = small_yukawa();
  for (auto b : {rt::BackendKind::Parsec, rt::BackendKind::Madness}) {
    rt::WorldConfig cfg;
    cfg.nranks = 4;
    cfg.backend = b;
    rt::World world(cfg);
    auto res = apps::bspmm::run(world, a, a, {});
    double cs = 0.0;
    for (auto [i, j] : res.c.nonzeros()) cs += res.c.at(i, j).norm();
    expect_golden(golden("bspmm", b), res.makespan, world.comm().stats(), res.tasks, cs);
  }
}

TEST(StealEquiv, MraOffMatchesPreRefactorGolden) {
  auto fns = ttg::mra::random_gaussians(8, 3.0e4, 2022);
  ttg::mra::MraContext ctx(6, fns);
  for (auto b : {rt::BackendKind::Parsec, rt::BackendKind::Madness}) {
    rt::WorldConfig cfg;
    cfg.nranks = 8;
    cfg.backend = b;
    rt::World world(cfg);
    apps::mra::Options opt;
    opt.tol = 1e-4;
    opt.rand_level = 2;
    auto res = apps::mra::run(world, ctx, opt);
    double cs = 0.0;
    for (const auto& [fid, n2] : res.norm2_compressed) cs += n2;
    for (const auto& [fid, n2] : res.norm2_reconstructed) cs += n2;
    expect_golden(golden("mra", b), res.makespan, world.comm().stats(), res.tasks, cs);
  }
}

// Per-dependence sends: with optimized_broadcast off, every key of a
// broadcast is its own remote message (the ablation / Chameleon profile).
TEST(StealEquiv, PotrfPerDependenceMatchesGolden) {
  for (auto b : {rt::BackendKind::Parsec, rt::BackendKind::Madness}) {
    support::Rng rng(5);
    auto a = linalg::random_spd(rng, 768, 128);
    rt::WorldConfig cfg;
    cfg.nranks = 4;
    cfg.backend = b;
    cfg.optimized_broadcast = false;
    rt::World world(cfg);
    auto res = apps::cholesky::run(world, a);
    double cs = 0.0;
    for (int m = 0; m < res.matrix.ntiles(); ++m)
      for (int n = 0; n <= m; ++n) cs += res.matrix.tile(m, n).norm();
    expect_golden(golden("potrf-perdep", b), res.makespan, world.comm().stats(),
                  res.tasks, cs);
  }
}

/// A tree-reduced stream on 9 PaRSEC ranks (8 contributors exceed the
/// reduce arity of 4): every rank streams two values into one key owned by
/// rank 3, and rank 5 completes the stream remotely — by ttg::set_size, or
/// by ttg::finalize from a gate that has seen every producer. Both control
/// messages travel as stream-control AMs; the partials climb the tree.
void expect_reduce_stream_golden(const char* app, bool finalize) {
  constexpr int kOwner = 3;
  constexpr int kCloser = 5;
  rt::WorldConfig cfg;
  cfg.nranks = 9;
  rt::World w(cfg);
  const int nranks = cfg.nranks;
  Edge<Int1, Void> start("start"), gate_e("gate");
  Edge<Int1, double> stream("stream"), out_e("out");
  auto prod = make_tt(
      w,
      [finalize, nranks](const Int1& k, Void&,
                         std::tuple<Out<Int1, double>, Out<Int1, Void>>& out) {
        if (!finalize && k.i == kCloser) ttg::set_size<0>(Int1{0}, 2 * nranks, out);
        for (int i = 0; i < 2; ++i) ttg::send<0>(Int1{0}, 0.5 + 1.25 * k.i + i, out);
        if (finalize) ttg::send<1>(Int1{0}, Void{}, out);
      },
      edges(start), edges(stream, gate_e), "produce");
  prod->set_keymap([](const Int1& k) { return k.i; });
  auto gate = make_tt(
      w,
      [](const Int1& k, Void&, std::tuple<Out<Int1, double>>& out) {
        ttg::finalize<0>(k, out);
      },
      edges(gate_e), edges(stream), "gate");
  gate->set_input_reducer<0>([](Void&, Void&&) {}, nranks);
  gate->set_keymap([](const Int1&) { return kCloser; });
  auto red = make_tt(
      w,
      [](const Int1& k, double& sum, std::tuple<Out<Int1, double>>& out) {
        ttg::send<0>(k, sum, out);
      },
      edges(stream), edges(out_e), "reduce");
  red->set_input_reducer<0>([](double& acc, double&& v) { acc += v; });
  red->set_keymap([](const Int1&) { return kOwner; });
  double result = 0.0;
  auto sink = make_sink(w, out_e, [&](const Int1&, double& v) { result = v; });
  sink->set_keymap([](const Int1&) { return 0; });
  make_graph_executable(*prod);
  make_graph_executable(*gate);
  make_graph_executable(*red);
  make_graph_executable(*sink);
  for (int r = 0; r < nranks; ++r) prod->invoke(Int1{r}, Void{});
  const double makespan = w.fence();
  EXPECT_EQ(w.unfinished(), 0u);
  const std::uint64_t tasks = prod->tasks_executed() + gate->tasks_executed() +
                              red->tasks_executed() + sink->tasks_executed();
  expect_golden(golden(app, rt::BackendKind::Parsec), makespan, w.comm().stats(), tasks,
                result);
}

TEST(StealEquiv, TreeReduceSizedByRemoteSetSizeMatchesGolden) {
  expect_reduce_stream_golden("reduce-setsize", /*finalize=*/false);
}

TEST(StealEquiv, TreeReduceClosedByRemoteFinalizeMatchesGolden) {
  expect_reduce_stream_golden("reduce-finalize", /*finalize=*/true);
}

// The off-mode pop order itself, pinned directly: priority desc, FIFO ties —
// regardless of whether configure_steal({enabled=false}) was ever called.
TEST(StealEquiv, OffPopOrderIsPriorityThenFifo) {
  rt::WorldConfig cfg;
  cfg.machine.cores_per_node = 1;
  cfg.nranks = 1;
  rt::World w(cfg);
  auto& s = w.scheduler(0);
  std::vector<int> order;
  s.submit({.cost = 1.0, .body = [&] { order.push_back(-1); }});  // blocker
  s.submit({.priority = 1, .cost = 1.0, .body = [&] { order.push_back(10); }});
  s.submit({.priority = 3, .cost = 1.0, .body = [&] { order.push_back(30); }});
  s.submit({.priority = 3, .cost = 1.0, .body = [&] { order.push_back(31); }});
  s.submit({.priority = 2, .cost = 1.0, .body = [&] { order.push_back(20); }});
  w.fence();
  EXPECT_EQ(order, (std::vector<int>{-1, 30, 31, 20, 10}));
}

// ---------------------------------------------------------------------------
// steal-on: seeded determinism, counters, caps, socket distances
// ---------------------------------------------------------------------------

rt::WorldConfig steal_world(int workers, std::uint64_t seed = 1) {
  rt::WorldConfig cfg;
  cfg.nranks = 4;
  cfg.workers_per_rank = workers;
  cfg.work_stealing = true;
  cfg.seed = seed;
  return cfg;
}

struct StealRun {
  double makespan = 0.0;
  std::uint64_t tasks = 0;
  double checksum = 0.0;
  rt::StealStats stats;
};

StealRun bspmm_steal_run(rt::WorldConfig cfg) {
  auto a = small_yukawa();
  rt::World world(cfg);
  auto res = apps::bspmm::run(world, a, a, {});
  StealRun r;
  r.makespan = res.makespan;
  r.tasks = res.tasks;
  for (auto [i, j] : res.c.nonzeros()) r.checksum += res.c.at(i, j).norm();
  for (int rank = 0; rank < world.nranks(); ++rank) {
    const auto& s = world.scheduler(rank).steal_stats();
    r.stats.steals_local += s.steals_local;
    r.stats.steals_remote += s.steals_remote;
    r.stats.steal_fail += s.steal_fail;
    r.stats.tasks_stolen += s.tasks_stolen;
  }
  return r;
}

TEST(StealDeterminism, SeededRerunIsBitIdentical) {
  const StealRun a = bspmm_steal_run(steal_world(4));
  const StealRun b = bspmm_steal_run(steal_world(4));
  EXPECT_GT(a.stats.steals_local + a.stats.steals_remote, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.stats.steals_local, b.stats.steals_local);
  EXPECT_EQ(a.stats.steals_remote, b.stats.steals_remote);
  EXPECT_EQ(a.stats.steal_fail, b.stats.steal_fail);
  EXPECT_EQ(a.stats.tasks_stolen, b.stats.tasks_stolen);
}

TEST(StealDeterminism, NumericsAreScheduleInvariant) {
  // Stealing reorders execution but must not change results or task counts.
  rt::WorldConfig off;
  off.nranks = 4;
  off.workers_per_rank = 4;
  const StealRun with_steal = bspmm_steal_run(steal_world(4));
  const StealRun without = bspmm_steal_run(off);
  EXPECT_EQ(without.stats.steals_local + without.stats.steals_remote +
                without.stats.steal_fail,
            0u);
  EXPECT_EQ(with_steal.tasks, without.tasks);
  EXPECT_EQ(with_steal.checksum, without.checksum);
}

TEST(StealCounters, ZeroWhenOffEverywhere) {
  auto fns = ttg::mra::random_gaussians(4, 3.0e4, 2022);
  ttg::mra::MraContext ctx(6, fns);
  rt::WorldConfig cfg;
  cfg.nranks = 4;
  cfg.workers_per_rank = 2;
  rt::World world(cfg);
  apps::mra::Options opt;
  opt.tol = 1e-3;
  opt.light_math = true;
  apps::mra::run(world, ctx, opt);
  for (int r = 0; r < world.nranks(); ++r) {
    const auto& s = world.scheduler(r).steal_stats();
    EXPECT_EQ(s.steals_local, 0u);
    EXPECT_EQ(s.steals_remote, 0u);
    EXPECT_EQ(s.steal_fail, 0u);
  }
}

TEST(StealCounters, PerCoreBusySumsToRankBusy) {
  rt::WorldConfig cfg = steal_world(4);
  auto a = small_yukawa();
  rt::World world(cfg);
  apps::bspmm::run(world, a, a, {});
  // Per-core busy accounting covers all workers' busy time, steal distances
  // included (up to re-association error: busy_ accumulates in execution
  // order, the per-core slices re-add in core order).
  std::uint64_t steals = 0;
  for (int r = 0; r < world.nranks(); ++r) {
    const auto& s = world.scheduler(r).steal_stats();
    steals += s.steals_local + s.steals_remote;
    double sum = 0.0;
    for (int c = 0; c < world.workers_per_rank(); ++c)
      sum += world.scheduler(r).core_busy(c);
    EXPECT_NEAR(sum, world.scheduler(r).busy_time(), 1e-12);
  }
  EXPECT_GT(steals, 0u);
}

TEST(StealCaps, InflightCapHoldsUnderStealing) {
  // A capped job's tasks never enter the deques, so the cap holds even when
  // every other core is stealing. 1 rank x 4 workers, cap 2, plus an
  // uncapped job generating deque churn.
  rt::WorldConfig cfg;
  cfg.nranks = 1;
  cfg.workers_per_rank = 4;
  cfg.work_stealing = true;
  rt::World w(cfg);
  auto& sched = w.scheduler(0);
  sched.configure_job(rt::JobId{7}, 1, 2);
  for (int i = 0; i < 24; ++i) {
    auto body = [&sched, i] {
      if (i % 2 == 0) {
        // In-body submissions land on the producing core's deque.
        sched.submit({.cost = 0.5, .body = [] {}});
        sched.submit({.cost = 0.5, .body = [] {}});
      }
    };
    sched.submit({.job = rt::JobId{7}, .priority = 1, .cost = 1.0, .body = body});
  }
  w.fence();
  const auto& jc = sched.job_counters(rt::JobId{7});
  EXPECT_EQ(jc.tasks_run, 24u);
  EXPECT_LE(jc.max_inflight, 2);
}

TEST(StealSocket, CoresSplitEvenlyAcrossSockets) {
  rt::WorldConfig cfg;
  cfg.nranks = 1;
  cfg.workers_per_rank = 4;
  cfg.work_stealing = true;
  cfg.machine.sockets_per_node = 2;
  rt::World w(cfg);
  const auto& s = w.scheduler(0);
  EXPECT_EQ(s.socket_of(0), 0);
  EXPECT_EQ(s.socket_of(1), 0);
  EXPECT_EQ(s.socket_of(2), 1);
  EXPECT_EQ(s.socket_of(3), 1);
}

TEST(StealSocket, StealDistanceExtendsBusyTime) {
  // Two identical worlds, one with zero steal latencies and one with large
  // ones: same schedule structure, strictly more busy time (the thief pays
  // the distance) when steals happened.
  auto run = [](double lat_local, double lat_remote) {
    rt::WorldConfig cfg;
    cfg.nranks = 4;
    cfg.workers_per_rank = 4;
    cfg.work_stealing = true;
    cfg.machine.steal_latency_local = lat_local;
    cfg.machine.steal_latency_remote = lat_remote;
    auto a = small_yukawa();
    rt::World world(cfg);
    apps::bspmm::run(world, a, a, {});
    double busy = world.total_busy_time();
    std::uint64_t steals = 0;
    for (int r = 0; r < world.nranks(); ++r) {
      const auto& s = world.scheduler(r).steal_stats();
      steals += s.steals_local + s.steals_remote;
    }
    return std::pair<double, std::uint64_t>{busy, steals};
  };
  const auto [busy_free, steals_free] = run(0.0, 0.0);
  const auto [busy_paid, steals_paid] = run(1e-5, 1e-4);
  EXPECT_GT(steals_free, 0u);
  EXPECT_GT(steals_paid, 0u);
  EXPECT_GT(busy_paid, busy_free);
}

TEST(StealSharded, SerialAndShardedAgreeWithStealOn) {
  // Scheduler state is lane-local (one lane owns a rank's scheduler), so
  // the sharded engine must replay the same steal decisions bit-identically.
  rt::WorldConfig serial = steal_world(4);
  rt::WorldConfig sharded = steal_world(4);
  sharded.engine_lanes = 4;
  const StealRun a = bspmm_steal_run(serial);
  const StealRun b = bspmm_steal_run(sharded);
  EXPECT_GT(a.stats.steals_local + a.stats.steals_remote, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.stats.steals_local, b.stats.steals_local);
  EXPECT_EQ(a.stats.steals_remote, b.stats.steals_remote);
  EXPECT_EQ(a.stats.steal_fail, b.stats.steal_fail);
}

// ---------------------------------------------------------------------------
// keymaps
// ---------------------------------------------------------------------------

TEST(StealKeymap, CyclicEqualsBlockCyclic2D) {
  for (int nranks : {1, 2, 4, 6, 8, 12, 16}) {
    const auto km = make_keymap2d(KeymapKind::Cyclic, nranks, 4);
    const auto bc = linalg::BlockCyclic2D::make(nranks);
    for (int i = 0; i < 12; ++i)
      for (int j = 0; j < 12; ++j)
        EXPECT_EQ(km.owner(i, j), bc.owner(i, j)) << nranks;
  }
}

TEST(StealKeymap, DegeneratesToCyclicAtOneRankPerNode) {
  for (auto kind : {KeymapKind::Node2D, KeymapKind::NodeAware}) {
    const auto km = make_keymap2d(kind, 8, 1);
    const auto bc = linalg::BlockCyclic2D::make(8);
    EXPECT_EQ(km.kind, KeymapKind::Cyclic);
    for (int i = 0; i < 12; ++i)
      for (int j = 0; j < 12; ++j) EXPECT_EQ(km.owner(i, j), bc.owner(i, j));
  }
}

TEST(StealKeymap, OwnersStayInRange) {
  for (auto kind :
       {KeymapKind::Cyclic, KeymapKind::Node2D, KeymapKind::NodeAware}) {
    for (int nranks : {4, 8, 16}) {
      for (int rpn : {1, 2, 4}) {
        const auto km = make_keymap2d(kind, nranks, rpn);
        for (int i = 0; i < 20; ++i)
          for (int j = 0; j < 20; ++j) {
            const int o = km.owner(i, j);
            EXPECT_GE(o, 0);
            EXPECT_LT(o, nranks);
          }
      }
    }
  }
}

TEST(StealKeymap, NodeAwareKeepsSupertilesOnOneNode) {
  // 16 ranks, 4 per node: the ri x rj supertile of adjacent tiles shares a
  // node, and its tiles land on distinct ranks of that node.
  const int nranks = 16, rpn = 4;
  const auto km = make_keymap2d(KeymapKind::NodeAware, nranks, rpn);
  ASSERT_EQ(km.ri * km.rj, rpn);
  for (int si = 0; si < 4; ++si)
    for (int sj = 0; sj < 4; ++sj) {
      std::vector<int> owners;
      for (int di = 0; di < km.ri; ++di)
        for (int dj = 0; dj < km.rj; ++dj)
          owners.push_back(km.owner(si * km.ri + di, sj * km.rj + dj));
      const int node = owners[0] / rpn;
      for (std::size_t t = 0; t < owners.size(); ++t) {
        EXPECT_EQ(owners[t] / rpn, node) << "supertile split across nodes";
        for (std::size_t u = t + 1; u < owners.size(); ++u)
          EXPECT_NE(owners[t], owners[u]) << "two tiles on one rank";
      }
    }
}

TEST(StealKeymap, Node2DUsesEveryRank) {
  const int nranks = 8, rpn = 4;
  const auto km = make_keymap2d(KeymapKind::Node2D, nranks, rpn);
  std::vector<int> hits(nranks, 0);
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j) hits[static_cast<std::size_t>(km.owner(i, j))]++;
  for (int r = 0; r < nranks; ++r) EXPECT_GT(hits[r], 0) << "rank " << r << " unused";
}

TEST(StealKeymap, StringRoundTrip) {
  EXPECT_EQ(keymap_from_string("cyclic"), KeymapKind::Cyclic);
  EXPECT_EQ(keymap_from_string("node2d"), KeymapKind::Node2D);
  EXPECT_EQ(keymap_from_string("node-aware"), KeymapKind::NodeAware);
  for (auto k : {KeymapKind::Cyclic, KeymapKind::Node2D, KeymapKind::NodeAware})
    EXPECT_EQ(keymap_from_string(to_string(k)), k);
  EXPECT_THROW(static_cast<void>(keymap_from_string("bogus")), support::ApiError);
}

TEST(StealKeymap, TreeNodeAwareOwnerRoutesSubtreesToNodes) {
  const int nranks = 8, rpn = 4;
  // Same coarse hash -> same node regardless of the fine hash.
  for (std::uint64_t coarse : {7ull, 123456789ull, 0xdeadbeefull}) {
    const int node0 = node_aware_owner(coarse, 0, nranks, rpn) / rpn;
    for (std::uint64_t fine = 0; fine < 32; ++fine) {
      const int o = node_aware_owner(coarse, fine, nranks, rpn);
      EXPECT_EQ(o / rpn, node0);
      EXPECT_GE(o, 0);
      EXPECT_LT(o, nranks);
    }
  }
  // Degenerate node structure falls back to the flat hash scatter.
  EXPECT_EQ(node_aware_owner(99, 13, 8, 1), 13 % 8);
  EXPECT_EQ(node_aware_owner(99, 13, 7, 4), 13 % 7);
}

TEST(StealKeymap, AppsAcceptNodeAwarePlacement) {
  // POTRF under node-aware placement on 2 nodes x 2 ranks: correct factor,
  // same task count as cyclic (placement moves work, never changes it).
  support::Rng rng(5);
  auto a = linalg::random_spd(rng, 512, 128);
  auto run_with = [&](KeymapKind km) {
    rt::WorldConfig cfg;
    cfg.nranks = 4;
    cfg.ranks_per_node = 2;
    rt::World world(cfg);
    apps::cholesky::Options opt;
    opt.keymap = km;
    return apps::cholesky::run(world, a, opt);
  };
  const auto cyc = run_with(KeymapKind::Cyclic);
  const auto naw = run_with(KeymapKind::NodeAware);
  EXPECT_EQ(cyc.tasks, naw.tasks);
  double cs_cyc = 0.0, cs_naw = 0.0;
  for (int m = 0; m < cyc.matrix.ntiles(); ++m)
    for (int n = 0; n <= m; ++n) {
      cs_cyc += cyc.matrix.tile(m, n).norm();
      cs_naw += naw.matrix.tile(m, n).norm();
    }
  EXPECT_EQ(cs_cyc, cs_naw);  // numerics are placement-invariant
}

}  // namespace
