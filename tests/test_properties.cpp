// Property-style tests: invariants swept over randomized inputs and
// parameter grids (gtest TEST_P), cutting across modules.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>

#include "apps/cholesky/cholesky_ttg.hpp"
#include "apps/fw_apsp/fw_ttg.hpp"
#include "mra/function_tree.hpp"
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
  auto ch = ts.unfilter_all(p);
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
  const auto proj = ts.unfilter_all(parent);
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t i = 0; i < proj[c].size(); ++i) {
      const double d = ch[c][i] - proj[c][i];
      r2 += d * d;
    }
  }
  EXPECT_NEAR(c2, p2 + r2, 1e-9 * c2) << "k=" << k;
}

// The loops the MRA contraction passes replaced. filter, unfilter_all,
// project_box and project_node must give every entry exactly these
// floating-point operations, bit for bit.
namespace textbook {

using Block = std::vector<double>;

/// out = M applied to dimension `dim` of the k^3 block `in`, M(a, b) =
/// m[a k + b] (m[b k + a] when `transpose`); zero M(a, b) skipped when
/// `skip_zeros`, as the two-scale loops did (the projection kept them).
Block apply_dim(const Block& in, const Block& m, int k, int dim, bool transpose,
                bool skip_zeros) {
  Block out(in.size(), 0.0);
  for (int a = 0; a < k; ++a)
    for (int b = 0; b < k; ++b) {
      const double mab = transpose ? m[static_cast<std::size_t>(b) * k + a]
                                   : m[static_cast<std::size_t>(a) * k + b];
      if (skip_zeros && mab == 0.0) continue;
      for (int u = 0; u < k; ++u)
        for (int v = 0; v < k; ++v) {
          std::size_t iin, iout;
          switch (dim) {
            case 0:
              iin = (static_cast<std::size_t>(b) * k + u) * k + v;
              iout = (static_cast<std::size_t>(a) * k + u) * k + v;
              break;
            case 1:
              iin = (static_cast<std::size_t>(u) * k + b) * k + v;
              iout = (static_cast<std::size_t>(u) * k + a) * k + v;
              break;
            default:
              iin = (static_cast<std::size_t>(u) * k + v) * k + b;
              iout = (static_cast<std::size_t>(u) * k + v) * k + a;
              break;
          }
          out[iout] += mab * in[iin];
        }
    }
  return out;
}

Block apply_tensor(const mra::TwoScale& ts, const Block& x, int c, bool transpose) {
  const int k = ts.k();
  Block t = apply_dim(x, ts.h(c & 1), k, 0, transpose, true);
  t = apply_dim(t, ts.h((c >> 1) & 1), k, 1, transpose, true);
  return apply_dim(t, ts.h((c >> 2) & 1), k, 2, transpose, true);
}

Block filter(const mra::TwoScale& ts, const std::array<Block, 8>& child_s) {
  Block parent(static_cast<std::size_t>(ts.coeffs_per_node()), 0.0);
  for (int c = 0; c < 8; ++c) {
    const Block contrib = apply_tensor(ts, child_s[static_cast<std::size_t>(c)], c, false);
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] += contrib[i];
  }
  return parent;
}

Block unfilter_child(const mra::TwoScale& ts, const Block& parent_s, int c) {
  return apply_tensor(ts, parent_s, c, true);
}

Block project_box(int k, const mra::Gaussian& g, const mra::TreeKey& key) {
  const auto quad = mra::gauss_legendre(k);
  Block phiw(static_cast<std::size_t>(k) * k, 0.0);
  Block phi(static_cast<std::size_t>(k));
  for (int q = 0; q < k; ++q) {
    mra::scaling_functions(quad.x[static_cast<std::size_t>(q)], k, phi.data());
    for (int i = 0; i < k; ++i)
      phiw[static_cast<std::size_t>(i) * k + q] =
          phi[static_cast<std::size_t>(i)] * quad.w[static_cast<std::size_t>(q)];
  }
  const double scale = std::pow(2.0, -key.level);
  Block f(static_cast<std::size_t>(k) * k * k);
  for (int qx = 0; qx < k; ++qx) {
    const double x = (key.lx + quad.x[static_cast<std::size_t>(qx)]) * scale;
    for (int qy = 0; qy < k; ++qy) {
      const double y = (key.ly + quad.x[static_cast<std::size_t>(qy)]) * scale;
      for (int qz = 0; qz < k; ++qz) {
        const double z = (key.lz + quad.x[static_cast<std::size_t>(qz)]) * scale;
        f[(static_cast<std::size_t>(qx) * k + qy) * k + qz] = g.eval(x, y, z);
      }
    }
  }
  Block s = apply_dim(f, phiw, k, 0, false, false);
  s = apply_dim(s, phiw, k, 1, false, false);
  s = apply_dim(s, phiw, k, 2, false, false);
  const double vol = std::pow(scale, 1.5);
  for (double& v : s) v *= vol;
  return s;
}

mra::MraContext::NodeProjection project_node(const mra::TwoScale& ts, const mra::Gaussian& g,
                                             const mra::TreeKey& key) {
  std::array<Block, 8> child_s;
  for (int c = 0; c < 8; ++c)
    child_s[static_cast<std::size_t>(c)] = project_box(ts.k(), g, key.child(c));
  mra::MraContext::NodeProjection np;
  np.parent.v = filter(ts, child_s);
  for (int c = 0; c < 8; ++c) {
    const Block proj = unfilter_child(ts, np.parent.v, c);
    for (std::size_t i = 0; i < proj.size(); ++i) {
      const double d = child_s[static_cast<std::size_t>(c)][i] - proj[i];
      np.dnorm2 += d * d;
    }
  }
  return np;
}

}  // namespace textbook

::testing::AssertionResult SameBits(const std::vector<double>& got,
                                    const std::vector<double>& want) {
  if (got.size() != want.size()) return ::testing::AssertionFailure() << "size differs";
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "bits differ";
  return ::testing::AssertionSuccess();
}

/// n uniform entries, about one in five a signed zero.
std::vector<double> with_zeros(support::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v)
    x = rng.uniform(0.0, 1.0) < 0.2 ? (rng.bernoulli(0.5) ? 0.0 : -0.0) : rng.uniform(-1, 1);
  return v;
}

/// n signed zeros. Each pass over them sums to +0.0 only because every
/// entry starts at +0.0: a sum started from its first product keeps -0.0.
std::vector<double> signed_zeros(support::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.bernoulli(0.5) ? 0.0 : -0.0;
  return v;
}

// k = 2, 4, 8 and 9 are the orders whose H0/H1 hold exact zeros; there a
// +-inf input entry shows whether the zero entries are skipped (0 * inf is
// NaN). With finite inputs a skipped term and an added zero agree.
TEST_P(TwoScaleOrders, BitIdenticalToTextbookLoops) {
  const int k = GetParam();
  const mra::TwoScale ts(k);
  const std::size_t n = static_cast<std::size_t>(ts.coeffs_per_node());
  support::Rng rng(static_cast<std::uint64_t>(100 + k));
  const auto index = [k](int x, int y, int z) {
    return (static_cast<std::size_t>(x) * k + y) * k + z;
  };

  // Parent blocks for the unfilters and child sets for filter.
  std::vector<std::vector<double>> parents = {with_zeros(rng, n), signed_zeros(rng, n)};
  std::vector<std::array<std::vector<double>, 8>> child_sets(3);
  for (auto& set : child_sets)
    for (auto& c : set) c = with_zeros(rng, n);
  for (auto& c : child_sets[1]) c = signed_zeros(rng, n);
  child_sets[2][5] = signed_zeros(rng, n);

  // An exact zero H0(r, j) drops term j of output r in filter and term r of
  // output j in the unfilters; put an infinity where those terms read.
  int zr = -1, zj = -1;
  for (int i = 0; i < k * k && zr < 0; ++i)
    if (ts.h(0)[static_cast<std::size_t>(i)] == 0.0) zr = i / k, zj = i % k;
  if (k == 2 || k == 4 || k == 8 || k == 9) {
    ASSERT_GE(zr, 0) << "H0 has no exact zero";
  }
  if (zr >= 0) {
    const double inf = std::numeric_limits<double>::infinity();
    parents.push_back(with_zeros(rng, n));
    parents.back()[index(zr, zr, zr)] = -inf;
    child_sets.push_back(child_sets[0]);
    child_sets.back()[0][index(zj, zj, zj)] = inf;
  }

  for (std::size_t p = 0; p < parents.size(); ++p) {
    const auto got = ts.unfilter_all(parents[p]);
    for (int c = 0; c < 8; ++c)
      EXPECT_TRUE(SameBits(got[static_cast<std::size_t>(c)],
                           textbook::unfilter_child(ts, parents[p], c)))
          << "unfilter parent " << p << " child " << c;
  }
  for (std::size_t s = 0; s < child_sets.size(); ++s)
    EXPECT_TRUE(SameBits(ts.filter(child_sets[s]), textbook::filter(ts, child_sets[s])))
        << "filter set " << s;

  // Projection: a box holding the center, its parent and the root; and a
  // box so far from a negative Gaussian that f is -0.0 at every point.
  const mra::Gaussian g{3.0e4, 1.5, {0.31, 0.62, 0.47}};
  const mra::Gaussian far{3.0e4, -1.0, {0.2, 0.2, 0.2}};
  const mra::MraContext ctx(k, {g, far});
  const std::vector<mra::TreeKey> keys = {
      {0, 0, 0, 0, 0}, {0, 2, 1, 2, 1}, {0, 4, 4, 9, 7}, {1, 2, 3, 3, 3}};
  for (const auto& key : keys) {
    const mra::Gaussian& fk = key.fid == 0 ? g : far;
    EXPECT_TRUE(SameBits(ctx.project_box(key).v, textbook::project_box(k, fk, key)))
        << "project_box level " << key.level << " fid " << key.fid;
    const auto got = ctx.project_node(key);
    const auto want = textbook::project_node(ts, fk, key);
    EXPECT_TRUE(SameBits(got.parent.v, want.parent.v))
        << "project_node level " << key.level << " fid " << key.fid;
    EXPECT_EQ(std::memcmp(&got.dnorm2, &want.dnorm2, sizeof(double)), 0)
        << "project_node dnorm2 level " << key.level << " fid " << key.fid;
  }
}

INSTANTIATE_TEST_SUITE_P(OrderSweep, TwoScaleOrders, ::testing::Range(1, 11));

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
