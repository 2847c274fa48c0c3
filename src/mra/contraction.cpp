#include "mra/contraction.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace ttg::mra {

namespace {

// Unit-stride row updates. Each entry takes the textbook loop's two rounded
// operations per term, a product and then an add, so these loops vectorize
// without changing a bit: baseline x86-64 has no FMA to contract them into,
// and nothing is reassociated.

/// y[i] += m0 x0[i], then m1 x1[i], m2 x2[i] and m3 x3[i], for i < n: four
/// terms per pass over the output row.
void add_4terms(double* __restrict y, const double* __restrict x0,
                const double* __restrict x1, const double* __restrict x2,
                const double* __restrict x3, const double* m, int n) {
  const double m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
  for (int i = 0; i < n; ++i) {
    double v = y[i];
    v += m0 * x0[i];
    v += m1 * x1[i];
    v += m2 * x2[i];
    v += m3 * x3[i];
    y[i] = v;
  }
}

/// y[i] += m x[i] for i < n.
void add_term(double* __restrict y, const double* __restrict x, double m, int n) {
  for (int i = 0; i < n; ++i) y[i] += m * x[i];
}

}  // namespace

Contraction::Contraction(int k, const std::vector<double>& m, bool transpose,
                         bool skip_zeros)
    : k_(k) {
  TTG_CHECK(k >= 1 && m.size() == static_cast<std::size_t>(k) * k,
            "Contraction: matrix is not k x k");
  first_.reserve(static_cast<std::size_t>(k) + 1);
  terms_.reserve(m.size());
  first_.push_back(0);
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      const double mab = transpose ? m[static_cast<std::size_t>(b) * k + a]
                                   : m[static_cast<std::size_t>(a) * k + b];
      if (skip_zeros && mab == 0.0) continue;
      terms_.push_back({b, mab});
    }
    first_.push_back(static_cast<int>(terms_.size()));
  }
}

void Contraction::apply(const double* in, double* out, int outer, int inner) const {
  const std::size_t row = static_cast<std::size_t>(inner);
  const std::size_t block = static_cast<std::size_t>(k_) * row;
  for (int o = 0; o < outer; ++o) {
    const double* src = in + static_cast<std::size_t>(o) * block;
    double* dst = out + static_cast<std::size_t>(o) * block;
    for (int a = 0; a < k_; ++a) {
      double* y = dst + static_cast<std::size_t>(a) * row;
      std::fill(y, y + inner, 0.0);
      const auto x = [&](const Term& t) { return src + static_cast<std::size_t>(t.b) * row; };
      const Term* t = terms_.data() + first_[a];
      const Term* const end = terms_.data() + first_[a + 1];
      for (; end - t >= 4; t += 4) {
        const double m[4] = {t[0].m, t[1].m, t[2].m, t[3].m};
        add_4terms(y, x(t[0]), x(t[1]), x(t[2]), x(t[3]), m, inner);
      }
      for (; t != end; ++t) add_term(y, x(*t), t->m, inner);
    }
  }
}

void transpose(const double* in, double* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      out[static_cast<std::size_t>(c) * rows + r] = in[static_cast<std::size_t>(r) * cols + c];
}

}  // namespace ttg::mra
