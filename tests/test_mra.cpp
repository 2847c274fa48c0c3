// Tests of the MRA stack: Legendre/quadrature numerics, two-scale
// identities, adaptive projection accuracy, the full TTG pipeline, and the
// native-MADNESS comparator.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/mra/mra_ttg.hpp"
#include "baselines/madness_native_mra.hpp"
#include "mra/legendre.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;
using ttg::mra::Gaussian;
using ttg::mra::MraContext;
using ttg::mra::TreeKey;
using ttg::mra::TwoScale;

TEST(Legendre, RecurrenceValues) {
  double p[4];
  ttg::mra::legendre(0.5, 4, p);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_NEAR(p[2], 0.5 * (3 * 0.25 - 1), 1e-15);
  EXPECT_NEAR(p[3], 0.5 * (5 * 0.125 - 3 * 0.5), 1e-15);
}

TEST(Quadrature, WeightsSumToOne) {
  for (int n : {1, 2, 5, 10, 16}) {
    auto q = ttg::mra::gauss_legendre(n);
    double s = 0;
    for (double w : q.w) s += w;
    EXPECT_NEAR(s, 1.0, 1e-13) << "n=" << n;
  }
}

TEST(Quadrature, ExactForPolynomials) {
  const int n = 6;  // exact through degree 11
  auto q = ttg::mra::gauss_legendre(n);
  for (int deg = 0; deg <= 11; ++deg) {
    double s = 0;
    for (std::size_t i = 0; i < q.x.size(); ++i) s += q.w[i] * std::pow(q.x[i], deg);
    EXPECT_NEAR(s, 1.0 / (deg + 1), 1e-12) << "deg=" << deg;
  }
}

TEST(ScalingFunctions, Orthonormal) {
  const int k = 8;
  auto q = ttg::mra::gauss_legendre(2 * k);
  std::vector<double> phi(static_cast<std::size_t>(k));
  std::vector<double> gram(static_cast<std::size_t>(k) * k, 0.0);
  for (std::size_t p = 0; p < q.x.size(); ++p) {
    ttg::mra::scaling_functions(q.x[p], k, phi.data());
    for (int i = 0; i < k; ++i)
      for (int j = 0; j < k; ++j)
        gram[static_cast<std::size_t>(i) * k + j] +=
            q.w[p] * phi[static_cast<std::size_t>(i)] * phi[static_cast<std::size_t>(j)];
  }
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < k; ++j)
      EXPECT_NEAR(gram[static_cast<std::size_t>(i) * k + j], i == j ? 1.0 : 0.0, 1e-12);
}

TEST(TwoScale, FilterUnfilterIdentityOnParentSpace) {
  // unfilter(filter(x)) == x when x already lies in the parent space:
  // equivalently filter(unfilter(p)) == p for any parent block.
  const int k = 5;
  TwoScale ts(k);
  support::Rng rng(17);
  std::vector<double> p(static_cast<std::size_t>(ts.coeffs_per_node()));
  for (auto& v : p) v = rng.uniform(-1, 1);
  auto back = ts.filter(ts.unfilter_all(p));
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_NEAR(back[i], p[i], 1e-12);
}

TEST(TwoScale, NormPreservation) {
  // ||children||^2 == ||parent||^2 + ||residual||^2 (orthogonal projection).
  const int k = 4;
  TwoScale ts(k);
  support::Rng rng(18);
  std::array<std::vector<double>, 8> children;
  double child_n2 = 0;
  for (auto& c : children) {
    c.resize(static_cast<std::size_t>(ts.coeffs_per_node()));
    for (auto& v : c) v = rng.uniform(-1, 1);
    for (double v : c) child_n2 += v * v;
  }
  auto parent = ts.filter(children);
  double parent_n2 = 0;
  for (double v : parent) parent_n2 += v * v;
  double resid_n2 = 0;
  const auto proj = ts.unfilter_all(parent);
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t i = 0; i < proj[c].size(); ++i) {
      const double d = children[c][i] - proj[c][i];
      resid_n2 += d * d;
    }
  }
  EXPECT_NEAR(child_n2, parent_n2 + resid_n2, 1e-10 * child_n2);
}

TEST(TwoScale, UnfilterAllRejectsAWrongSizeParent) {
  const TwoScale ts(4);
  const std::vector<double> short_parent(63, 1.0);
  EXPECT_DEATH((void)ts.unfilter_all(short_parent), "parent block is not k\\^3");
  const std::vector<double> long_parent(65, 1.0);
  EXPECT_DEATH((void)ts.unfilter_all(long_parent), "parent block is not k\\^3");
}

TEST(MraContext, UnknownFunctionIdFailsNamingIt) {
  const MraContext ctx(4, {Gaussian{1.0e3, 1.0, {0.5, 0.5, 0.5}}});
  EXPECT_DEATH((void)ctx.project_box(TreeKey{3, 1, 0, 0, 0}), "no function with fid 3");
  EXPECT_DEATH((void)ctx.must_refine(TreeKey{-1, 1, 0, 0, 0}), "no function with fid -1");
}

TEST(Projection, PolynomialProjectsExactlyAtAnyLevel) {
  // A function inside the scaling space projects with zero residual, so
  // adaptive refinement stops immediately: parent-from-children equals
  // direct projection.
  const int k = 6;
  MraContext ctx(k, {Gaussian{1e-12, 1.0, {0.5, 0.5, 0.5}}});  // ~ constant 1
  const TreeKey root{0, 0, 0, 0, 0};
  auto direct = ctx.project_box(root);
  auto children = ctx.project_children(root);
  auto from_children = ctx.twoscale().filter(children);
  for (std::size_t i = 0; i < direct.v.size(); ++i)
    EXPECT_NEAR(direct.v[i], from_children[i], 1e-11);
  // The constant's norm over the unit cube is 1 -> s_000 = 1.
  EXPECT_NEAR(direct.norm2(), 1.0, 1e-10);
}

TEST(Projection, GaussianNormConverges) {
  const int k = 8;
  Gaussian g{1.0e4, 1.0, {0.47, 0.53, 0.51}};
  MraContext ctx(k, {g});
  // Refine adaptively (serial reference walk) and accumulate leaf norms.
  double norm2 = 0;
  const double tol = 1e-7;
  std::vector<TreeKey> stack{{0, 0, 0, 0, 0}};
  while (!stack.empty()) {
    TreeKey key = stack.back();
    stack.pop_back();
    auto child_s = ctx.project_children(key);
    auto parent = ctx.twoscale().filter(child_s);
    double d2 = 0;
    const auto proj = ctx.twoscale().unfilter_all(parent);
    for (std::size_t c = 0; c < 8; ++c) {
      for (std::size_t i = 0; i < proj[c].size(); ++i) {
        const double d = child_s[c][i] - proj[c][i];
        d2 += d * d;
      }
    }
    if ((std::sqrt(d2) > tol || ctx.must_refine(key)) && key.level < 12) {
      for (int c = 0; c < 8; ++c) stack.push_back(key.child(c));
    } else {
      double n2 = 0;
      for (double v : parent) n2 += v * v;
      norm2 += n2;
    }
  }
  EXPECT_NEAR(norm2, g.norm2(), 1e-5 * g.norm2());
}

TEST(TreeKey, ChildParentRoundtrip) {
  const TreeKey key{3, 4, 5, 6, 7};
  for (int c = 0; c < 8; ++c) {
    auto ch = key.child(c);
    EXPECT_EQ(ch.level, 5);
    EXPECT_EQ(ch.parent(), key);
    EXPECT_EQ(ch.child_index(), c);
  }
  EXPECT_EQ(key.ancestor_at(2).level, 2);
  EXPECT_EQ(key.ancestor_at(10), key);
}

TEST(MustRefine, ForcesResolutionOfNarrowFeatures) {
  MraContext ctx(6, {Gaussian{3.0e4, 1.0, {0.3, 0.3, 0.3}}});
  // Coarse box containing the center must refine even though quadrature
  // sees (almost) nothing.
  EXPECT_TRUE(ctx.must_refine(TreeKey{0, 0, 0, 0, 0}));
  // A far-away box must not.
  EXPECT_FALSE(ctx.must_refine(TreeKey{0, 3, 7, 7, 7}));
  // Once boxes are comparable to the width, forcing stops.
  EXPECT_FALSE(ctx.must_refine(TreeKey{0, 12, 1229, 1229, 1229}));
}

struct Case {
  int nranks;
  rt::BackendKind backend;
  int k;
  int nfuncs;
};

class MraPipeline : public ::testing::TestWithParam<Case> {};

TEST_P(MraPipeline, NormsMatchAnalyticAndEachOther) {
  const auto p = GetParam();
  auto fns = ttg::mra::random_gaussians(p.nfuncs, 3.0e4, 2022);
  MraContext ctx(p.k, fns);
  rt::WorldConfig cfg;
  cfg.nranks = p.nranks;
  cfg.backend = p.backend;
  rt::World world(cfg);
  apps::mra::Options opt;
  opt.tol = 1e-6;
  auto res = apps::mra::run(world, ctx, opt);
  ASSERT_EQ(res.norm2_compressed.size(), static_cast<std::size_t>(p.nfuncs));
  for (int f = 0; f < p.nfuncs; ++f) {
    const double analytic = fns[static_cast<std::size_t>(f)].norm2();
    const double nc = res.norm2_compressed.at(f);
    const double nr = res.norm2_reconstructed.at(f);
    EXPECT_NEAR(nc, analytic, 1e-4 * analytic) << "fid=" << f;
    // Reconstruction is exact up to roundoff.
    EXPECT_NEAR(nr, nc, 1e-10 * nc) << "fid=" << f;
  }
  EXPECT_GT(res.tasks, 0u);
  EXPECT_GT(res.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MraPipeline,
                         ::testing::Values(Case{1, rt::BackendKind::Parsec, 6, 2},
                                           Case{4, rt::BackendKind::Parsec, 6, 3},
                                           Case{4, rt::BackendKind::Madness, 6, 3},
                                           Case{3, rt::BackendKind::Parsec, 5, 2}));

TEST(NativeMra, MatchesTtgNumerics) {
  auto fns = ttg::mra::random_gaussians(3, 3.0e4, 77);
  MraContext ctx(6, fns);
  apps::mra::Options topt;
  topt.tol = 1e-6;
  baselines::NativeMraOptions nopt;
  nopt.tol = 1e-6;

  rt::WorldConfig cfg;
  cfg.nranks = 4;
  cfg.backend = rt::BackendKind::Madness;
  std::map<int, double> ttg_norms, native_norms;
  {
    rt::World w(cfg);
    ttg_norms = apps::mra::run(w, ctx, topt).norm2_compressed;
  }
  {
    rt::World w(cfg);
    native_norms = baselines::run_native_mra(w, ctx, nopt).norm2_compressed;
  }
  for (const auto& [fid, n2] : ttg_norms)
    EXPECT_NEAR(native_norms.at(fid), n2, 1e-9 * n2);
}

// The projection cache has no lock, so a cached context must not meet an
// engine whose lane threads run task bodies concurrently.
rt::WorldConfig threaded_config() {
  rt::WorldConfig cfg;
  cfg.nranks = 2;
  cfg.engine_lanes = 2;
  cfg.engine_threads = 2;
  return cfg;
}

TEST(MraProjectionCache, ThreadedTtgRunIsRejected) {
  MraContext ctx(4, ttg::mra::random_gaussians(1, 3.0e4, 5));
  ctx.enable_projection_cache();
  rt::World world(threaded_config());
  ASSERT_TRUE(world.engine().threaded());
  EXPECT_THROW(apps::mra::run(world, ctx, apps::mra::Options{}), support::ApiError);
}

TEST(MraProjectionCache, ThreadedNativeRunIsRejected) {
  MraContext ctx(4, ttg::mra::random_gaussians(1, 3.0e4, 5));
  ctx.enable_projection_cache();
  rt::World world(threaded_config());
  ASSERT_TRUE(world.engine().threaded());
  EXPECT_THROW(baselines::run_native_mra(world, ctx, baselines::NativeMraOptions{}),
               support::ApiError);
}

TEST(NativeMra, BarriersMakeItSlower) {
  // Fig. 13's ordering: the barrier-per-step native implementation trails
  // the streaming TTG pipeline on the same backend.
  auto fns = ttg::mra::random_gaussians(6, 3.0e4, 123);
  MraContext ctx(6, fns);
  rt::WorldConfig cfg;
  cfg.nranks = 8;
  cfg.backend = rt::BackendKind::Madness;
  double ttg_t, native_t;
  {
    rt::World w(cfg);
    apps::mra::Options opt;
    opt.tol = 1e-6;
    ttg_t = apps::mra::run(w, ctx, opt).makespan;
  }
  {
    rt::World w(cfg);
    baselines::NativeMraOptions opt;
    opt.tol = 1e-6;
    native_t = baselines::run_native_mra(w, ctx, opt).makespan;
  }
  EXPECT_GT(native_t, ttg_t);
}

}  // namespace
