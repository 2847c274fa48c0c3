// The one separable contraction pass behind the MRA kernels.
//
// Order-k coefficient blocks are k^3 arrays indexed [x][y][z] (z fastest).
// Filtering, unfiltering and quadrature projection each apply a k x k
// matrix to one dimension at a time, x, then y, then z. All of them run on
// Contraction::apply, which works on contiguous rows; the z dimension goes
// through an exact transpose first.
#pragma once

#include <vector>

namespace ttg::mra {

/// A k x k matrix M prepared for contraction passes. Every output entry
/// keeps the textbook loop's operation sequence: it starts at +0.0 and adds
/// its terms M(a, b) * in[b] with b ascending. Built with skip_zeros, the
/// terms whose M(a, b) is 0 are left out, as the two-scale loops do; the
/// projection keeps every term.
class Contraction {
 public:
  /// M(a, b) = m[a * k + b], or m[b * k + a] when `transpose`.
  Contraction(int k, const std::vector<double>& m, bool transpose, bool skip_zeros);

  /// out[o][a][i] = sum_b M(a, b) in[o][b][i] for o < outer, a, b < k and
  /// i < inner. `in` and `out` hold outer * k * inner doubles and must not
  /// overlap.
  void apply(const double* in, double* out, int outer, int inner) const;

 private:
  struct Term {
    int b;
    double m;  // M(a, b)
  };

  int k_;
  std::vector<int> first_;   // row a's terms are [first_[a], first_[a + 1])
  std::vector<Term> terms_;  // b ascending within a row
};

/// out[c][r] = in[r][c] for a rows x cols block: an exact copy.
void transpose(const double* in, double* out, int rows, int cols);

}  // namespace ttg::mra
