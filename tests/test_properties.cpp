// Property-style tests: invariants swept over randomized inputs and
// parameter grids (gtest TEST_P), cutting across modules.
#include <gtest/gtest.h>

#include <numeric>

#include "apps/cholesky/cholesky_ttg.hpp"
#include "apps/fw_apsp/fw_ttg.hpp"
#include "mra/twoscale.hpp"
#include "sparse/yukawa_gen.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;

/* ---------- TTG routing: scatter/gather conservation over rank counts ---------- */

class ScatterGather : public ::testing::TestWithParam<int> {};

TEST_P(ScatterGather, SumIsConservedAcrossRanks) {
  const int nranks = GetParam();
  rt::WorldConfig cfg;
  cfg.nranks = nranks;
  rt::World w(cfg);
  support::Rng rng(1234);

  Edge<Int1, long> in("in"), out_e("out");
  auto inc = make_tt(w,
                     [](const Int1& /*k*/, long& v, std::tuple<Out<Int1, long>>& out) {
                       ttg::send<0>(Int1{0}, v + 1, out);
                     },
                     edges(in), edges(out_e), "inc");
  // Random (but deterministic) placement.
  std::vector<int> owners(257);
  for (auto& o : owners) o = static_cast<int>(rng.uniform_int(0, nranks - 1));
  inc->set_keymap([owners](const Int1& k) {
    return owners[static_cast<std::size_t>(k.i) % owners.size()];
  });
  long sum = 0;
  auto gather = make_tt(w, [&](const Int1&, long& acc, std::tuple<>&) { sum = acc; },
                        edges(out_e), std::tuple<>{}, "gather");
  const int n = 200;
  gather->set_input_reducer<0>([](long& a, long&& b) { a += b; }, n);
  gather->set_keymap([](const Int1&) { return 0; });
  make_graph_executable(*inc);
  make_graph_executable(*gather);
  long expect = 0;
  for (int i = 0; i < n; ++i) {
    const long v = static_cast<long>(rng.uniform_int(-1000, 1000));
    expect += v + 1;
    inc->invoke(Int1{i}, v);
  }
  w.fence();
  EXPECT_EQ(sum, expect);
  EXPECT_EQ(w.unfinished(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, ScatterGather, ::testing::Values(1, 2, 3, 5, 8, 13));

/* ---------- streams: random per-key sizes ---------- */

TEST(StreamProperty, RandomPerKeyStreamSizes) {
  rt::WorldConfig cfg;
  cfg.nranks = 4;
  rt::World w(cfg);
  support::Rng rng(77);
  Edge<Int1, int> in("in"), out_e("out");
  auto red = make_tt(w,
                     [](const Int1& k, int& acc, std::tuple<Out<Int1, int>>& out) {
                       ttg::send<0>(k, acc, out);
                     },
                     edges(in), edges(out_e), "red");
  red->set_input_reducer<0>([](int& a, int&& b) { a += b; });
  std::map<int, int> got;
  auto sink = make_sink(w, out_e, [&](const Int1& k, int& v) { got[k.i] = v; });
  make_graph_executable(*red);
  make_graph_executable(*sink);
  std::map<int, int> expect;
  for (int key = 0; key < 40; ++key) {
    const int sz = static_cast<int>(rng.uniform_int(1, 9));
    red->set_argstream_size<0>(Int1{key}, sz);
    int s = 0;
    for (int i = 0; i < sz; ++i) {
      const int v = static_cast<int>(rng.uniform_int(0, 100));
      s += v;
      red->invoke(Int1{key}, v);
    }
    expect[key] = s;
  }
  w.fence();
  EXPECT_EQ(got, expect);
}

/* ---------- two-scale identities over all supported orders ---------- */

class TwoScaleOrders : public ::testing::TestWithParam<int> {};

TEST_P(TwoScaleOrders, ParentSpaceIdentityAndNormSplit) {
  const int k = GetParam();
  mra::TwoScale ts(k);
  support::Rng rng(k);
  // filter(unfilter(p)) == p
  std::vector<double> p(static_cast<std::size_t>(ts.coeffs_per_node()));
  for (auto& v : p) v = rng.uniform(-1, 1);
  std::array<std::vector<double>, 8> ch;
  for (int c = 0; c < 8; ++c) ch[static_cast<std::size_t>(c)] = ts.unfilter_child(p, c);
  auto back = ts.filter(ch);
  double err = 0;
  for (std::size_t i = 0; i < p.size(); ++i) err = std::max(err, std::abs(back[i] - p[i]));
  EXPECT_LT(err, 1e-11) << "k=" << k;
  // Pythagoras: ||children||^2 = ||parent||^2 + ||residual||^2.
  for (auto& c : ch)
    for (auto& v : c) v = rng.uniform(-1, 1);
  auto parent = ts.filter(ch);
  double c2 = 0, p2 = 0, r2 = 0;
  for (const auto& c : ch)
    for (double v : c) c2 += v * v;
  for (double v : parent) p2 += v * v;
  for (int c = 0; c < 8; ++c) {
    auto proj = ts.unfilter_child(parent, c);
    for (std::size_t i = 0; i < proj.size(); ++i) {
      const double d = ch[static_cast<std::size_t>(c)][i] - proj[i];
      r2 += d * d;
    }
  }
  EXPECT_NEAR(c2, p2 + r2, 1e-9 * c2) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(OrderSweep, TwoScaleOrders, ::testing::Values(1, 2, 3, 5, 8, 10));

/* ---------- FW over random graphs: metric properties ---------- */

class FwRandomGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FwRandomGraphs, TriangleInequalityAndReference) {
  support::Rng rng(GetParam());
  const int n = 40, bs = 10;
  auto w0 = linalg::random_adjacency(rng, n, bs, rng.uniform(0.1, 0.6));
  auto ref = linalg::dense_fw(w0.to_dense());
  rt::WorldConfig cfg;
  cfg.nranks = 4;
  rt::World world(cfg);
  auto res = apps::fw::run(world, w0);
  auto d = res.matrix.to_dense();
  EXPECT_LT(d.max_abs_diff(ref), 1e-12);
  // Closure: d(i,j) <= d(i,k) + d(k,j) for sampled triples.
  for (int trial = 0; trial < 200; ++trial) {
    const int i = static_cast<int>(rng.uniform_int(0, n - 1));
    const int j = static_cast<int>(rng.uniform_int(0, n - 1));
    const int k = static_cast<int>(rng.uniform_int(0, n - 1));
    if (d(i, k) >= linalg::kInf || d(k, j) >= linalg::kInf) continue;
    EXPECT_LE(d(i, j), d(i, k) + d(k, j) + 1e-9);
  }
  // Diagonal is zero.
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(d(i, i), 0.0);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, FwRandomGraphs, ::testing::Values(1u, 2u, 3u, 4u, 5u));

/* ---------- Cholesky over random SPD matrices and rank counts ---------- */

struct CholProp {
  std::uint64_t seed;
  int nranks;
  // gtest prints a parameter without operator<< as its raw bytes, and ctest
  // names each case by that print. `name_tag` fills what was uninitialized
  // tail padding, which made three names change from run to run; its values
  // keep the bytes those names were registered with.
  std::uint32_t name_tag;
};

class CholeskyRandom : public ::testing::TestWithParam<CholProp> {};

TEST_P(CholeskyRandom, FactorizationResidual) {
  const auto p = GetParam();
  support::Rng rng(p.seed);
  const int n = 72, bs = 24;
  auto a = linalg::random_spd(rng, n, bs);
  rt::WorldConfig cfg;
  cfg.nranks = p.nranks;
  rt::World world(cfg);
  auto res = apps::cholesky::run(world, a);
  auto l = res.matrix.to_dense();
  auto ad = a.to_dense();
  // ||A - L L^T||_max small relative to ||A||.
  double err = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double s = 0;
      for (int k = 0; k < n; ++k) s += l(i, k) * l(j, k);
      err = std::max(err, std::abs(s - ad(i, j)));
    }
  EXPECT_LT(err, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CholeskyRandom,
                         ::testing::Values(CholProp{11, 1, 0x0000FD38u},
                                           CholProp{12, 3, 0x0000FD38u},
                                           CholProp{13, 4, 0xFFFFFFFFu},
                                           CholProp{14, 6, 0x00000000u},
                                           CholProp{15, 9, 0x00005588u}));

/* ---------- Yukawa generator: structural invariants over params ---------- */

class YukawaParamsSweep : public ::testing::TestWithParam<double> {};

TEST_P(YukawaParamsSweep, SymmetricPatternAndMonotoneOccupancy) {
  sparse::YukawaParams p;
  p.natoms = 60;
  p.max_tile = 128;
  p.box = GetParam();
  p.threshold = 1e-6;
  p.ghost = true;
  auto m = sparse::yukawa_matrix(p);
  // Centroid-distance screening is symmetric.
  for (auto [i, j] : m.nonzeros()) EXPECT_TRUE(m.has(j, i));
  // Tighter threshold can only remove blocks.
  auto p2 = p;
  p2.threshold = 1e-3;
  auto m2 = sparse::yukawa_matrix(p2);
  EXPECT_LE(m2.nnz_tiles(), m.nnz_tiles());
  for (auto [i, j] : m2.nonzeros()) EXPECT_TRUE(m.has(i, j));
}

INSTANTIATE_TEST_SUITE_P(BoxSweep, YukawaParamsSweep,
                         ::testing::Values(40.0, 120.0, 240.0));

/* ---------- tracing through the TTG layer ---------- */

TEST(TraceProperty, TtTaskCountsMatchTrace) {
  rt::WorldConfig cfg;
  cfg.nranks = 2;
  rt::World w(cfg);
  w.enable_tracing();
  support::Rng rng(3);
  auto a = linalg::random_spd(rng, 64, 16);
  auto res = apps::cholesky::run(w, a);
  auto sum = w.tracer().summarize();
  const auto traced = sum["POTRF"].count + sum["TRSM"].count + sum["SYRK"].count +
                      sum["GEMM"].count;
  EXPECT_EQ(traced, res.tasks);
  // Every record lies within the run and has nonnegative duration.
  for (const auto& r : w.tracer().records()) {
    EXPECT_GE(r.end, r.start);
    EXPECT_GE(r.rank, 0);
    EXPECT_LT(r.rank, 2);
  }
}

/* ---------- simulator: makespans scale sanely with machine speed ---------- */

TEST(MachineProperty, FasterCoresNeverSlowTheRunDown) {
  auto run_with = [](double gflops) {
    auto ghost = linalg::ghost_matrix(512 * 8, 512);
    rt::WorldConfig cfg;
    cfg.nranks = 4;
    cfg.machine.core_gflops = gflops;
    rt::World w(cfg);
    apps::cholesky::Options opt;
    opt.collect = false;
    return apps::cholesky::run(w, ghost, opt).makespan;
  };
  EXPECT_LT(run_with(60.0), run_with(30.0));
  EXPECT_LT(run_with(30.0), run_with(15.0));
}

TEST(MachineProperty, FasterNetworkNeverSlowsTheRunDown) {
  auto run_with = [](double bw) {
    auto ghost = linalg::ghost_matrix(2048, 128);
    rt::WorldConfig cfg;
    cfg.nranks = 16;
    cfg.machine.nic_bw = bw;
    rt::World w(cfg);
    apps::fw::Options opt;
    opt.collect = false;
    return apps::fw::run(w, ghost, opt).makespan;
  };
  EXPECT_LE(run_with(46e9), run_with(23e9));
  EXPECT_LE(run_with(23e9), run_with(6e9));
}

}  // namespace
