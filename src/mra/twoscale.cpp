#include "mra/twoscale.hpp"

#include <cmath>

#include "mra/legendre.hpp"
#include "support/error.hpp"

namespace ttg::mra {

namespace {

/// H0/H1 by Gauss-Legendre quadrature exact for degree 2k-2.
std::array<std::vector<double>, 2> two_scale_matrices(int k) {
  TTG_CHECK(k >= 1 && k <= 20, "unsupported multiwavelet order");
  const auto q = gauss_legendre(2 * k);
  std::array<std::vector<double>, 2> h;
  h[0].assign(static_cast<std::size_t>(k) * k, 0.0);
  h[1].assign(static_cast<std::size_t>(k) * k, 0.0);
  std::vector<double> phi_parent(static_cast<std::size_t>(k));
  std::vector<double> phi_child(static_cast<std::size_t>(k));
  const double sqrt2 = std::sqrt(2.0);
  for (std::size_t p = 0; p < q.x.size(); ++p) {
    const double y = q.x[p];  // child-local coordinate in [0,1]
    const double w = q.w[p];
    scaling_functions(y, k, phi_child.data());
    for (int c = 0; c < 2; ++c) {
      const double x = 0.5 * (y + c);  // parent coordinate
      scaling_functions(x, k, phi_parent.data());
      for (int i = 0; i < k; ++i)
        for (int j = 0; j < k; ++j)
          h[c][static_cast<std::size_t>(i) * k + j] +=
              0.5 * w * phi_parent[static_cast<std::size_t>(i)] * sqrt2 *
              phi_child[static_cast<std::size_t>(j)];
    }
  }
  return h;
}

}  // namespace

TwoScale::TwoScale(int k)
    : k_(k),
      h_(two_scale_matrices(k)),
      down_{Contraction(k, h_[0], /*transpose=*/false, /*skip_zeros=*/true),
            Contraction(k, h_[1], /*transpose=*/false, /*skip_zeros=*/true)},
      up_{Contraction(k, h_[0], /*transpose=*/true, /*skip_zeros=*/true),
          Contraction(k, h_[1], /*transpose=*/true, /*skip_zeros=*/true)} {}

// A block [x][y][z] takes its x-pass with inner = k^2 and its y-pass with
// outer = k, inner = k. The z-pass runs on the transposed block [z][x y]
// with inner = k^2, and a last transpose restores the layout.

std::vector<double> TwoScale::filter(
    const std::array<std::vector<double>, 8>& child_s) const {
  const int k = k_;
  const int k2 = k * k;
  const std::size_t n = static_cast<std::size_t>(coeffs_per_node());
  // Two pass buffers and the parent sum, which accumulates in the z-pass's
  // transposed layout and is transposed once at the end.
  std::vector<double> scratch(3 * n, 0.0);
  double* s0 = scratch.data();
  double* s1 = s0 + n;
  double* sum = s1 + n;
  for (int c = 0; c < 8; ++c) {
    TTG_CHECK(child_s[static_cast<std::size_t>(c)].size() == n, "filter: bad child block");
    down_[c & 1].apply(child_s[static_cast<std::size_t>(c)].data(), s0, 1, k2);
    down_[(c >> 1) & 1].apply(s0, s1, k, k);
    transpose(s1, s0, k2, k);
    down_[(c >> 2) & 1].apply(s0, s1, 1, k2);
    for (std::size_t i = 0; i < n; ++i) sum[i] += s1[i];
  }
  std::vector<double> parent(n);
  transpose(sum, parent.data(), k, k2);
  return parent;
}

std::array<std::vector<double>, 8> TwoScale::unfilter_all(
    const std::vector<double>& parent_s) const {
  const int k = k_;
  const int k2 = k * k;
  const std::size_t n = static_cast<std::size_t>(coeffs_per_node());
  TTG_CHECK(parent_s.size() == n, "unfilter_all: parent block is not k^3");
  // x[cx]: after the x-pass; yt[cy][cx]: after the y-pass, transposed for
  // the z-pass; s: one pass buffer.
  std::vector<double> scratch(7 * n);
  double* x = scratch.data();
  double* yt = x + 2 * n;
  double* s = yt + 4 * n;
  for (int cx = 0; cx < 2; ++cx) up_[cx].apply(parent_s.data(), x + cx * n, 1, k2);
  for (int cy = 0; cy < 2; ++cy)
    for (int cx = 0; cx < 2; ++cx) {
      up_[cy].apply(x + cx * n, s, k, k);
      transpose(s, yt + (2 * cy + cx) * n, k2, k);
    }
  std::array<std::vector<double>, 8> child;
  for (int c = 0; c < 8; ++c) {
    up_[(c >> 2) & 1].apply(yt + (c & 3) * n, s, 1, k2);
    child[static_cast<std::size_t>(c)].resize(n);
    transpose(s, child[static_cast<std::size_t>(c)].data(), k, k2);
  }
  return child;
}

double TwoScale::filter_flops() const {
  // 8 children x 3 separable sweeps x 2 k^4 mul-adds.
  return 8.0 * 3.0 * 2.0 * k_ * k_ * k_ * k_;
}

}  // namespace ttg::mra
