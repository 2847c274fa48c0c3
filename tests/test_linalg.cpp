// Unit tests for tiles, dense kernels, distributions, and generators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "graph/fw_kernels.hpp"
#include "linalg/dist.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix_gen.hpp"

namespace {

using namespace ttg;
using namespace ttg::linalg;

TEST(Tile, ConstructionAndAccess) {
  Tile t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_FALSE(t.is_ghost());
  t(2, 3) = 5.0;
  EXPECT_DOUBLE_EQ(t(2, 3), 5.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_EQ(t.wire_bytes(), 3u * 4u * sizeof(double));
}

TEST(Tile, GhostMode) {
  auto g = Tile::ghost(100, 200, 42);
  EXPECT_TRUE(g.is_ghost());
  EXPECT_EQ(g.signature(), 42u);
  EXPECT_EQ(g.wire_bytes(), 100u * 200u * sizeof(double));
  EXPECT_TRUE(g.data().empty());
  EXPECT_DEATH((void)g(0, 0), "ghost");
  EXPECT_DEATH((void)g.col(0), "ghost");
}

TEST(Tile, NormAndDiff) {
  Tile a(2, 2), b(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  b(0, 0) = 3.5;
  b(1, 1) = 4;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.5);
}

TEST(Kernels, PotrfMatchesDefinition) {
  support::Rng rng(1);
  Tile a = random_spd_dense(rng, 24);
  Tile l = a;
  ASSERT_TRUE(potrf(l));
  // Check A == L L^T.
  for (int i = 0; i < 24; ++i)
    for (int j = 0; j < 24; ++j) {
      double s = 0;
      for (int k = 0; k < 24; ++k) s += l(i, k) * l(j, k);
      EXPECT_NEAR(s, a(i, j), 1e-9);
    }
  // Strict upper triangle zeroed.
  for (int i = 0; i < 24; ++i)
    for (int j = i + 1; j < 24; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
}

TEST(Kernels, PotrfRejectsIndefinite) {
  Tile a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = -1;
  EXPECT_FALSE(potrf(a));
}

TEST(Kernels, TrsmSolvesAgainstTriangle) {
  support::Rng rng(2);
  Tile l = random_spd_dense(rng, 8);
  ASSERT_TRUE(potrf(l));
  Tile a = random_tile(rng, 5, 8);
  Tile x = a;
  trsm(l, x);
  // Verify X L^T == A.
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 8; ++j) {
      double s = 0;
      for (int k = 0; k < 8; ++k) s += x(i, k) * l(j, k);
      EXPECT_NEAR(s, a(i, j), 1e-9);
    }
}

TEST(Kernels, SyrkSubtractsOuterProduct) {
  support::Rng rng(3);
  Tile a = random_tile(rng, 6, 4);
  Tile c(6, 6);
  Tile c0 = c;
  syrk(a, c);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j) {
      double s = 0;
      for (int k = 0; k < 4; ++k) s += a(i, k) * a(j, k);
      EXPECT_NEAR(c(i, j), c0(i, j) - s, 1e-12);
    }
}

TEST(Kernels, GemmNtSubtracts) {
  support::Rng rng(4);
  Tile a = random_tile(rng, 3, 5), b = random_tile(rng, 4, 5);
  Tile c = random_tile(rng, 3, 4);
  Tile c0 = c;
  gemm_nt(c, a, b);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) {
      double s = 0;
      for (int k = 0; k < 5; ++k) s += a(i, k) * b(j, k);
      EXPECT_NEAR(c(i, j), c0(i, j) - s, 1e-12);
    }
}

TEST(Kernels, GemmNnAccumulates) {
  support::Rng rng(5);
  Tile a = random_tile(rng, 3, 5), b = random_tile(rng, 5, 4);
  Tile c = random_tile(rng, 3, 4);
  Tile c0 = c;
  gemm_nn_acc(c, a, b);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) {
      double s = 0;
      for (int k = 0; k < 5; ++k) s += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), c0(i, j) + s, 1e-12);
    }
}

TEST(Kernels, MinplusComputesShortestHop) {
  Tile w(2, 2), a(2, 2), b(2, 2);
  for (auto* t : {&w, &a, &b})
    for (auto& v : t->data()) v = kInf;
  a(0, 0) = 1;
  b(0, 1) = 2;
  w(0, 1) = 10;
  minplus(w, a, b);
  EXPECT_DOUBLE_EQ(w(0, 1), 3.0);  // via: 1 + 2 beats 10
}

TEST(Kernels, TileAdd) {
  Tile a(2, 2), b(2, 2);
  a(0, 0) = 1;
  b(0, 0) = 2;
  tile_add(a, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
}

TEST(Kernels, GhostKernelsCombineSignaturesDeterministically) {
  auto mk = [] {
    auto a = Tile::ghost(4, 4, 1);
    auto c = Tile::ghost(4, 4, 2);
    syrk(a, c);
    return c.signature();
  };
  EXPECT_EQ(mk(), mk());
  // Different inputs produce different signatures.
  auto a = Tile::ghost(4, 4, 3);
  auto c = Tile::ghost(4, 4, 2);
  syrk(a, c);
  EXPECT_NE(c.signature(), mk());
}

// The textbook loops the kernels replaced. Each kernel must give every
// output entry exactly these floating-point operations, bit for bit.
namespace textbook {

bool potrf(Tile& a) {
  const int n = a.rows();
  for (int j = 0; j < n; ++j) {
    double d = a(j, j);
    for (int k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (int k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / ljj;
    }
    for (int i = 0; i < j; ++i) a(i, j) = 0.0;
  }
  return true;
}

void trsm(const Tile& lkk, Tile& amk) {
  const int m = amk.rows();
  const int n = amk.cols();
  for (int k = 0; k < n; ++k) {
    const double lkk_kk = lkk(k, k);
    for (int j = 0; j < k; ++j) {
      const double lkj = lkk(k, j);
      if (lkj == 0.0) continue;
      for (int i = 0; i < m; ++i) amk(i, k) -= amk(i, j) * lkj;
    }
    for (int i = 0; i < m; ++i) amk(i, k) /= lkk_kk;
  }
}

void syrk(const Tile& a, Tile& c) {
  const int n = c.rows();
  const int k = a.cols();
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) s += a(i, p) * a(j, p);
      c(i, j) -= s;
      if (i != j) c(j, i) -= s;
    }
  }
}

void gemm_nt(Tile& c, const Tile& a, const Tile& b) {
  for (int j = 0; j < c.cols(); ++j)
    for (int p = 0; p < a.cols(); ++p) {
      const double bjp = b(j, p);
      if (bjp == 0.0) continue;
      for (int i = 0; i < c.rows(); ++i) c(i, j) -= a(i, p) * bjp;
    }
}

void gemm_nn_acc(Tile& c, const Tile& a, const Tile& b) {
  for (int j = 0; j < c.cols(); ++j)
    for (int p = 0; p < a.cols(); ++p) {
      const double bpj = b(p, j);
      if (bpj == 0.0) continue;
      for (int i = 0; i < c.rows(); ++i) c(i, j) += a(i, p) * bpj;
    }
}

Tile random_spd_dense(support::Rng& rng, int n) {
  Tile b = random_tile(rng, n, n);
  Tile a(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      double s = 0.0;
      for (int k = 0; k < n; ++k) s += b(i, k) * b(j, k);
      a(i, j) = s;
    }
  for (int i = 0; i < n; ++i) a(i, i) += n;
  return a;
}

}  // namespace textbook

::testing::AssertionResult SameBits(const Tile& got, const Tile& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols())
    return ::testing::AssertionFailure() << "shape differs";
  if (std::memcmp(got.data().data(), want.data().data(),
                  got.data().size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "bits differ";
  return ::testing::AssertionSuccess();
}

/// Uniform entries with signed zeros. Row 1 holds only +0.0 and -0.0, so a
/// sum along it stays zero and its sign shows any skipped or extra term;
/// elsewhere about one entry in five is a signed zero, so both the
/// all-nonzero four-column path and the zero fallbacks run.
Tile with_zeros(support::Rng& rng, int rows, int cols) {
  Tile t = random_tile(rng, rows, cols);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i)
      if (i == 1 || rng.uniform(0.0, 1.0) < 0.2) t(i, j) = rng.bernoulli(0.5) ? 0.0 : -0.0;
  return t;
}

/// A tile of v whose entries with (i + 2j) % 5 == 0 are `zero` instead: four
/// consecutive columns (or rows) hold one zero four times in five.
Tile patterned(int rows, int cols, double v, double zero) {
  Tile t(rows, cols);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) t(i, j) = (i + 2 * j) % 5 == 0 ? zero : v;
  return t;
}

// n covers one column, the four-column remainders 1..3, whole blocks and the
// triangle head; the shapes cover rectangular gemm and trsm operands.
TEST(Kernels, BitIdenticalToTextbookLoops) {
  for (const int n : {1, 2, 3, 4, 5, 7, 8, 67, 130}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    support::Rng rng(static_cast<std::uint64_t>(n));
    {
      support::Rng r1(static_cast<std::uint64_t>(n) + 100);
      support::Rng r2(static_cast<std::uint64_t>(n) + 100);
      EXPECT_TRUE(SameBits(random_spd_dense(r1, n), textbook::random_spd_dense(r2, n)));
    }

    // potrf: a generated SPD tile, and one whose lower triangle holds signed
    // zeros, kept SPD by a dominant diagonal.
    Tile spd = random_spd_dense(rng, n);
    Tile zspd = spd;
    for (int j = 0; j < n; ++j) {
      zspd(j, j) += static_cast<double>(n) * n;
      for (int i = j + 1; i < n; ++i)
        if ((i + 2 * j) % 5 == 0) zspd(i, j) = (i % 2 != 0) ? -0.0 : 0.0;
    }
    Tile l = spd;
    for (Tile* in : {&spd, &zspd}) {
      Tile got = *in, want = *in;
      ASSERT_TRUE(potrf(got));
      ASSERT_TRUE(textbook::potrf(want));
      EXPECT_TRUE(SameBits(got, want));
      if (in == &spd) l = got;
    }

    // trsm against L with signed zeros in its strict lower triangle.
    for (int j = 0; j < n; ++j)
      for (int i = j + 1; i < n; ++i)
        if ((3 * i + j) % 4 == 0) l(i, j) = (j % 2 != 0) ? -0.0 : 0.0;
    for (const int m : {n, 3, n + 5}) {
      Tile got = with_zeros(rng, m, n);
      Tile want = got;
      trsm(l, got);
      textbook::trsm(l, want);
      EXPECT_TRUE(SameBits(got, want)) << "trsm m = " << m;
    }

    for (const int k : {n, 5}) {
      const Tile a = with_zeros(rng, n, k);
      Tile got = with_zeros(rng, n, n);
      Tile want = got;
      syrk(a, got);
      textbook::syrk(a, want);
      EXPECT_TRUE(SameBits(got, want)) << "syrk k = " << k;
    }

    struct Shape {
      int m, n, k;
    };
    for (const Shape sh : {Shape{n, n, n}, Shape{n + 1, n, 3}, Shape{2, n + 2, n}}) {
      const Tile a = with_zeros(rng, sh.m, sh.k);
      const Tile bt = with_zeros(rng, sh.n, sh.k);
      const Tile b = with_zeros(rng, sh.k, sh.n);
      Tile got = with_zeros(rng, sh.m, sh.n);
      Tile want = got;
      gemm_nt(got, a, bt);
      textbook::gemm_nt(want, a, bt);
      EXPECT_TRUE(SameBits(got, want)) << "gemm_nt " << sh.m << "x" << sh.n << "x" << sh.k;
      gemm_nn_acc(got, a, b);
      textbook::gemm_nn_acc(want, a, b);
      EXPECT_TRUE(SameBits(got, want)) << "gemm_nn_acc " << sh.m << "x" << sh.n << "x" << sh.k;
    }

    // Sums of signed zeros: every term the textbook loop keeps leaves -0.0
    // in place, and each skipped zero coefficient would turn it into +0.0.
    {
      const Tile a = patterned(3, n, -0.0, -0.0);
      Tile got = a, want = a;
      gemm_nt(got, a, patterned(n, n, -1.0, 0.0));
      textbook::gemm_nt(want, a, patterned(n, n, -1.0, 0.0));
      EXPECT_TRUE(SameBits(got, want)) << "gemm_nt skips";
      gemm_nn_acc(got, a, patterned(n, n, 1.0, -0.0));
      textbook::gemm_nn_acc(want, a, patterned(n, n, 1.0, -0.0));
      EXPECT_TRUE(SameBits(got, want)) << "gemm_nn_acc skips";
      Tile lz = patterned(n, n, -1.0, 0.0);
      for (int j = 0; j < n; ++j) {
        lz(j, j) = 1.0;
        for (int i = 0; i < j; ++i) lz(i, j) = 0.0;
      }
      trsm(lz, got);
      textbook::trsm(lz, want);
      EXPECT_TRUE(SameBits(got, want)) << "trsm skips";
    }
  }
}

TEST(Kernels, FlopCounts) {
  EXPECT_DOUBLE_EQ(flops::gemm(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(flops::trsm(2, 3), 18.0);
  EXPECT_DOUBLE_EQ(flops::syrk(3, 2), 18.0);
  EXPECT_NEAR(flops::potrf(3), 9.0, 1e-12);
  // Time helpers scale inversely with efficiency.
  const auto m = sim::hawk();
  EXPECT_LT(gemm_time(m, 64, 64, 64), potrf_time(m, 64) * flops::gemm(64, 64, 64) /
                                          flops::potrf(64));
}

TEST(FwKernels, MatchDenseReference) {
  support::Rng rng(6);
  const int n = 24, bs = 8;
  auto w0 = random_adjacency(rng, n, bs, 0.3);
  auto ref = dense_fw(w0.to_dense());
  // Run the tiled algorithm serially with the A/B/C/D kernels.
  auto m = w0;
  const int nt = m.ntiles();
  for (int k = 0; k < nt; ++k) {
    graph::fw_a(m.tile(k, k));
    for (int j = 0; j < nt; ++j)
      if (j != k) graph::fw_b(m.tile(k, j), m.tile(k, k));
    for (int i = 0; i < nt; ++i)
      if (i != k) graph::fw_c(m.tile(i, k), m.tile(k, k));
    for (int i = 0; i < nt; ++i)
      for (int j = 0; j < nt; ++j)
        if (i != k && j != k) graph::fw_d(m.tile(i, j), m.tile(i, k), m.tile(k, j));
  }
  EXPECT_LT(m.to_dense().max_abs_diff(ref), 1e-12);
}

TEST(TiledMatrix, RoundtripDense) {
  support::Rng rng(7);
  Tile d = random_tile(rng, 20, 20);
  auto m = TiledMatrix::from_dense(d, 6);  // ragged last tile
  EXPECT_EQ(m.ntiles(), 4);
  EXPECT_EQ(m.tile_rows(3), 2);
  EXPECT_LT(m.to_dense().max_abs_diff(d), 1e-15);
}

TEST(TiledMatrix, GhostMatrixShapes) {
  auto g = ghost_matrix(100, 30);
  EXPECT_EQ(g.ntiles(), 4);
  EXPECT_TRUE(g.tile(0, 0).is_ghost());
  EXPECT_EQ(g.tile(3, 3).rows(), 10);
  EXPECT_NE(g.tile(0, 1).signature(), g.tile(1, 0).signature());
}

TEST(BlockCyclic, CoversAllRanksEvenly) {
  for (int nranks : {1, 2, 4, 6, 8, 16}) {
    auto d = BlockCyclic2D::make(nranks);
    EXPECT_EQ(d.nranks(), nranks);
    std::vector<int> count(static_cast<std::size_t>(nranks), 0);
    for (int i = 0; i < 32; ++i)
      for (int j = 0; j < 32; ++j) {
        const int o = d.owner(i, j);
        ASSERT_GE(o, 0);
        ASSERT_LT(o, nranks);
        count[static_cast<std::size_t>(o)]++;
      }
    for (int c : count) EXPECT_GT(c, 0);
  }
}

TEST(BlockCyclic, NearSquareGrids) {
  EXPECT_EQ(BlockCyclic2D::make(16).P, 4);
  EXPECT_EQ(BlockCyclic2D::make(8).P, 2);
  EXPECT_EQ(BlockCyclic2D::make(7).P, 1);
}

TEST(Generators, SpdIsFactorizable) {
  support::Rng rng(8);
  auto a = random_spd(rng, 40, 16);
  Tile d = a.to_dense();
  EXPECT_TRUE(potrf(d));
}

TEST(Generators, AdjacencyHasZeroDiagonal) {
  support::Rng rng(9);
  auto w = random_adjacency(rng, 16, 8, 0.5);
  Tile d = w.to_dense();
  for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(d(i, i), 0.0);
}

}  // namespace
