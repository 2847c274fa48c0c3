#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "support/hash.hpp"

namespace ttg::linalg {

namespace flops {
double potrf(int n) { return n / 3.0 * n * n; }
double trsm(int m, int n) { return static_cast<double>(m) * n * n; }
double syrk(int n, int k) { return static_cast<double>(n) * n * k; }
double gemm(int m, int n, int k) { return 2.0 * m * n * k; }
double minplus(int m, int n, int k) { return 2.0 * m * n * k; }
}  // namespace flops

double potrf_time(const sim::MachineModel& m, int n) {
  return m.flops_time(flops::potrf(n), kPotrfEff);
}
double trsm_time(const sim::MachineModel& m, int rows, int n) {
  return m.flops_time(flops::trsm(rows, n), kTrsmEff);
}
double syrk_time(const sim::MachineModel& m, int n, int k) {
  return m.flops_time(flops::syrk(n, k), kSyrkEff);
}
double gemm_time(const sim::MachineModel& m, int rows, int cols, int k) {
  return m.flops_time(flops::gemm(rows, cols, k), kGemmEff);
}
double minplus_time(const sim::MachineModel& m, int rows, int cols, int k) {
  return m.flops_time(flops::minplus(rows, cols, k), kMinplusEff);
}

double gpu_trsm_time(const sim::MachineModel& m, int rows, int n) {
  return m.gpu_flops_time(flops::trsm(rows, n), kGpuTrsmEff);
}
double gpu_syrk_time(const sim::MachineModel& m, int n, int k) {
  return m.gpu_flops_time(flops::syrk(n, k), kGpuSyrkEff);
}
double gpu_gemm_time(const sim::MachineModel& m, int rows, int cols, int k) {
  return m.gpu_flops_time(flops::gemm(rows, cols, k), kGpuGemmEff);
}

std::uint64_t combine_sig(std::uint64_t a, std::uint64_t b, std::uint64_t tag) {
  std::uint64_t h = tag;
  support::hash_combine(h, a);
  support::hash_combine(h, b);
  return h;
}

namespace {

// Unit-stride column updates. Every entry takes the textbook loop's two
// rounded operations, a product and then an add or subtract, so these loops
// vectorize without changing a bit: baseline x86-64 has no FMA to contract
// them into, and nothing is reassociated.
enum class Op { Add, Sub };

/// c[i] op= x[i] * s for i in [0, m).
template <Op op>
void axpy(double* __restrict c, const double* __restrict x, double s, int m) {
  for (int i = 0; i < m; ++i) {
    if constexpr (op == Op::Sub) {
      c[i] -= x[i] * s;
    } else {
      c[i] += x[i] * s;
    }
  }
}

/// c[q][i] op= x[i] * s[q] for the four columns q and i in [0, m): one pass
/// over x updates four output columns.
template <Op op>
void axpy_4cols(double* __restrict c0, double* __restrict c1, double* __restrict c2,
                double* __restrict c3, const double* __restrict x, const double* s, int m) {
  const double s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
  for (int i = 0; i < m; ++i) {
    const double xi = x[i];
    if constexpr (op == Op::Sub) {
      c0[i] -= xi * s0;
      c1[i] -= xi * s1;
      c2[i] -= xi * s2;
      c3[i] -= xi * s3;
    } else {
      c0[i] += xi * s0;
      c1[i] += xi * s1;
      c2[i] += xi * s2;
      c3[i] += xi * s3;
    }
  }
}

/// c[i] -= x_q[i] * s[q] for q = 0..3 in order and i in [0, m): four terms
/// per pass over the output column.
void axpy_4terms(double* __restrict c, const double* __restrict x0,
                 const double* __restrict x1, const double* __restrict x2,
                 const double* __restrict x3, const double* s, int m) {
  const double s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
  for (int i = 0; i < m; ++i) {
    double v = c[i];
    v -= x0[i] * s0;
    v -= x1[i] * s1;
    v -= x2[i] * s2;
    v -= x3[i] * s3;
    c[i] = v;
  }
}

/// c[i] -= x(t)[i] * coef(t) for t ascending in [0, count) and i in [0, m).
/// With Skip, a zero coefficient drops its term, as the textbook loop does;
/// a zero among four terms drops that group to one term at a time.
template <bool Skip, typename Src, typename Coef>
void sub_terms(double* c, int m, int count, Src x, Coef coef) {
  int t = 0;
  for (; t + 4 <= count; t += 4) {
    const double s[4] = {coef(t), coef(t + 1), coef(t + 2), coef(t + 3)};
    if (!Skip || (s[0] != 0.0 && s[1] != 0.0 && s[2] != 0.0 && s[3] != 0.0)) {
      axpy_4terms(c, x(t), x(t + 1), x(t + 2), x(t + 3), s, m);
      continue;
    }
    for (int q = 0; q < 4; ++q)
      if (s[q] != 0.0) axpy<Op::Sub>(c, x(t + q), s[q], m);
  }
  for (; t < count; ++t) {
    const double s = coef(t);
    if (!Skip || s != 0.0) axpy<Op::Sub>(c, x(t), s, m);
  }
}

/// C(:,j) op= A(:,p) * coef(j,p) for p ascending, skipping zero coefficients
/// as the textbook loop does. Four columns of C share each pass over A(:,p);
/// a zero coefficient in the block drops that p to one column at a time, so
/// each column keeps its own skip.
template <Op op, typename Coef>
void gemm_cols(Tile& c, const Tile& a, Coef coef) {
  const int m = c.rows();
  const int n = c.cols();
  for (int j = 0; j < n; j += 4) {
    const int w = std::min(4, n - j);
    double* cj[4] = {};
    for (int q = 0; q < w; ++q) cj[q] = c.col(j + q);
    for (int p = 0; p < a.cols(); ++p) {
      const double* ap = a.col(p);
      double s[4] = {};
      bool dense = w == 4;
      for (int q = 0; q < w; ++q) {
        s[q] = coef(j + q, p);
        dense = dense && s[q] != 0.0;
      }
      if (dense) {
        axpy_4cols<op>(cj[0], cj[1], cj[2], cj[3], ap, s, m);
        continue;
      }
      for (int q = 0; q < w; ++q)
        if (s[q] != 0.0) axpy<op>(cj[q], ap, s[q], m);
    }
  }
}

}  // namespace

bool potrf(Tile& a) {
  TTG_CHECK(a.rows() == a.cols(), "potrf needs a square tile");
  if (a.is_ghost()) {
    a.set_signature(combine_sig(a.signature(), 0, /*tag=*/1));
    return true;
  }
  const int n = a.rows();
  // Left-looking by columns: a(i,j) -= a(i,k) a(j,k) for k ascending, i >= j,
  // then the square root and the divide.
  for (int j = 0; j < n; ++j) {
    double* lj = a.col(j);
    sub_terms<false>(
        lj + j, n - j, j, [&](int k) { return a.col(k) + j; },
        [&](int k) { return a.col(k)[j]; });
    const double d = lj[j];
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    lj[j] = ljj;
    for (int i = j + 1; i < n; ++i) lj[i] /= ljj;
    std::fill(lj, lj + j, 0.0);  // zero strict upper
  }
  return true;
}

void trsm(const Tile& lkk, Tile& amk) {
  TTG_CHECK(lkk.rows() == lkk.cols(), "trsm triangle must be square");
  TTG_CHECK(amk.cols() == lkk.rows(), "trsm shape mismatch");
  if (lkk.is_ghost() || amk.is_ghost()) {
    amk.set_signature(combine_sig(amk.signature(), lkk.signature(), /*tag=*/2));
    return;
  }
  const int m = amk.rows();
  const int n = amk.cols();
  // Solve X L^T = A for X, column by column of X:
  // x(:,k) = (a(:,k) - sum_{j<k} x(:,j) L(k,j)) / L(k,k).
  for (int k = 0; k < n; ++k) {
    double* xk = amk.col(k);
    sub_terms<true>(
        xk, m, k, [&](int j) { return amk.col(j); }, [&](int j) { return lkk(k, j); });
    const double lkk_kk = lkk(k, k);
    for (int i = 0; i < m; ++i) xk[i] /= lkk_kk;
  }
}

void syrk(const Tile& a, Tile& c) {
  TTG_CHECK(c.rows() == c.cols(), "syrk target must be square");
  TTG_CHECK(a.rows() == c.rows(), "syrk shape mismatch");
  if (a.is_ghost() || c.is_ghost()) {
    c.set_signature(combine_sig(c.signature(), a.signature(), /*tag=*/3));
    return;
  }
  const int n = c.rows();
  Tile s(n, n);
  gram_lower_acc(a, s);
  for (int j = 0; j < n; ++j) {
    const double* sj = s.col(j);
    double* cj = c.col(j);
    for (int i = j; i < n; ++i) {  // lower triangle
      cj[i] -= sj[i];
      if (i != j) c(j, i) -= sj[i];  // keep the tile symmetric
    }
  }
}

void gemm_nt(Tile& c, const Tile& a, const Tile& b) {
  TTG_CHECK(a.rows() == c.rows() && b.rows() == c.cols() && a.cols() == b.cols(),
            "gemm_nt shape mismatch");
  if (c.is_ghost() || a.is_ghost() || b.is_ghost()) {
    c.set_signature(
        combine_sig(c.signature(), combine_sig(a.signature(), b.signature(), 4), 4));
    return;
  }
  TTG_CHECK(&c != &a && &c != &b, "gemm output must not alias an input");
  gemm_cols<Op::Sub>(c, a, [&](int j, int p) { return b(j, p); });
}

void gemm_nn_acc(Tile& c, const Tile& a, const Tile& b) {
  TTG_CHECK(a.rows() == c.rows() && b.cols() == c.cols() && a.cols() == b.rows(),
            "gemm_nn shape mismatch");
  if (c.is_ghost() || a.is_ghost() || b.is_ghost()) {
    c.set_signature(
        combine_sig(c.signature(), combine_sig(a.signature(), b.signature(), 5), 5));
    return;
  }
  TTG_CHECK(&c != &a && &c != &b, "gemm output must not alias an input");
  gemm_cols<Op::Add>(c, a, [&](int j, int p) { return b(p, j); });
}

void gram_lower_acc(const Tile& x, Tile& g) {
  const int n = x.rows();
  TTG_CHECK(g.rows() == n && g.cols() == n, "gram_lower_acc shape mismatch");
  TTG_CHECK(&g != &x, "gram_lower_acc output must not alias its input");
  for (int j = 0; j < n; j += 4) {
    const int w = std::min(4, n - j);
    double* gj[4] = {};
    for (int q = 0; q < w; ++q) gj[q] = g.col(j + q);
    for (int p = 0; p < x.cols(); ++p) {
      const double* xp = x.col(p);
      if (w < 4) {
        for (int q = 0; q < w; ++q)
          axpy<Op::Add>(gj[q] + j + q, xp + j + q, xp[j + q], n - j - q);
        continue;
      }
      // The block's triangle head (rows above j + 3), then all four columns
      // together from row j + 3 down.
      for (int q = 0; q < 3; ++q)
        axpy<Op::Add>(gj[q] + j + q, xp + j + q, xp[j + q], 3 - q);
      const int r = j + 3;
      axpy_4cols<Op::Add>(gj[0] + r, gj[1] + r, gj[2] + r, gj[3] + r, xp + r, xp + j, n - r);
    }
  }
}

void minplus(Tile& w, const Tile& a, const Tile& b) {
  TTG_CHECK(a.rows() == w.rows() && b.cols() == w.cols() && a.cols() == b.rows(),
            "minplus shape mismatch");
  if (w.is_ghost() || a.is_ghost() || b.is_ghost()) {
    w.set_signature(
        combine_sig(w.signature(), combine_sig(a.signature(), b.signature(), 6), 6));
    return;
  }
  const int m = w.rows();
  const int n = w.cols();
  const int kk = a.cols();
  for (int j = 0; j < n; ++j)
    for (int p = 0; p < kk; ++p) {
      const double bpj = b(p, j);
      for (int i = 0; i < m; ++i) w(i, j) = std::min(w(i, j), a(i, p) + bpj);
    }
}

void tile_add(Tile& a, const Tile& b) {
  TTG_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "tile_add shape mismatch");
  if (a.is_ghost() || b.is_ghost()) {
    a.set_signature(combine_sig(a.signature(), b.signature(), /*tag=*/7));
    return;
  }
  for (std::size_t i = 0; i < a.data().size(); ++i) a.data()[i] += b.data()[i];
}

}  // namespace ttg::linalg
