// Two-scale relations of the multiwavelet scaling basis.
//
// The order-k scaling space on a box is a subspace of the scaling space on
// its 2 (per dimension) children. The matrices H0, H1 (k x k) express the
// parent basis in the child bases:
//
//   h0[i][j] = <phi_i, sqrt(2) phi_j(2x)>     on [0, 1/2]
//   h1[i][j] = <phi_i, sqrt(2) phi_j(2x-1)>   on [1/2, 1]
//
// Filtering (compress direction) projects child scaling coefficients onto
// the parent scaling space; unfiltering (reconstruct direction) is the
// adjoint. In d = 3 dimensions both are separable tensor applications of
// H0/H1 per dimension, chosen by the child's bit in that dimension. The
// residual of a child block after filter+unfilter is the wavelet
// ("difference") part — an overcomplete but orthogonal-complement
// representation of Alpert's multiwavelet coefficients with identical
// norms, which is what the compress/reconstruct/norm algorithms need.
//
// Both run on Contraction passes, x then y then z, and give the same bits
// as the textbook loops: each entry starts at +0.0, adds its terms in
// ascending order and skips the zero entries of H0/H1.
#pragma once

#include <array>
#include <vector>

#include "mra/contraction.hpp"

namespace ttg::mra {

/// Precomputed two-scale apparatus for order-k, dimension-3 MRA.
class TwoScale {
 public:
  explicit TwoScale(int k);

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int coeffs_per_node() const { return k_ * k_ * k_; }

  /// h[c] is the k x k matrix (row-major) for child half c in one dim.
  [[nodiscard]] const std::vector<double>& h(int c) const { return h_[c]; }

  /// Project the 8 child coefficient blocks (each k^3, indexed by child
  /// code bit order z|y|x) onto the parent scaling space.
  [[nodiscard]] std::vector<double> filter(
      const std::array<std::vector<double>, 8>& child_s) const;

  /// Parent coefficients (k^3) -> the projections of all 8 child blocks,
  /// indexed like filter's input. The children share their x- and
  /// y-passes: 2 + 4 + 8 passes instead of 3 per child.
  [[nodiscard]] std::array<std::vector<double>, 8> unfilter_all(
      const std::vector<double>& parent_s) const;

  /// Flops of one filter or unfilter sweep (cost model).
  [[nodiscard]] double filter_flops() const;

 private:
  int k_;
  std::array<std::vector<double>, 2> h_;
  std::array<Contraction, 2> down_;  // H_c: child -> parent (filter)
  std::array<Contraction, 2> up_;    // H_c^T: parent -> child (unfilter)
};

}  // namespace ttg::mra
