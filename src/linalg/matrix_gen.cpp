#include "linalg/matrix_gen.hpp"

#include <algorithm>

#include "linalg/kernels.hpp"

namespace ttg::linalg {

TiledMatrix::TiledMatrix(int n, int bs, bool allocate)
    : n_(n), bs_(bs), nt_((n + bs - 1) / bs) {
  TTG_CHECK(n >= 0 && bs > 0, "bad tiling");
  if (allocate) {
    tiles_.reserve(static_cast<std::size_t>(nt_) * nt_);
    for (int i = 0; i < nt_; ++i)
      for (int j = 0; j < nt_; ++j)
        tiles_.emplace_back(tile_rows(i), tile_rows(j));
  } else {
    tiles_.resize(static_cast<std::size_t>(nt_) * nt_);
  }
}

int TiledMatrix::tile_rows(int i) const {
  return std::min(bs_, n_ - i * bs_);
}

Tile& TiledMatrix::tile(int i, int j) {
  TTG_CHECK(i >= 0 && i < nt_ && j >= 0 && j < nt_, "tile index out of range");
  return tiles_[static_cast<std::size_t>(i) * nt_ + j];
}

const Tile& TiledMatrix::tile(int i, int j) const {
  TTG_CHECK(i >= 0 && i < nt_ && j >= 0 && j < nt_, "tile index out of range");
  return tiles_[static_cast<std::size_t>(i) * nt_ + j];
}

Tile TiledMatrix::to_dense() const {
  Tile d(n_, n_);
  for (int ti = 0; ti < nt_; ++ti)
    for (int tj = 0; tj < nt_; ++tj) {
      const Tile& t = tile(ti, tj);
      for (int j = 0; j < t.cols(); ++j)
        for (int i = 0; i < t.rows(); ++i)
          d(ti * bs_ + i, tj * bs_ + j) = t(i, j);
    }
  return d;
}

TiledMatrix TiledMatrix::from_dense(const Tile& dense, int bs) {
  TTG_CHECK(dense.rows() == dense.cols(), "from_dense needs a square matrix");
  TiledMatrix m(dense.rows(), bs);
  for (int ti = 0; ti < m.nt_; ++ti)
    for (int tj = 0; tj < m.nt_; ++tj) {
      Tile& t = m.tile(ti, tj);
      for (int j = 0; j < t.cols(); ++j)
        for (int i = 0; i < t.rows(); ++i)
          t(i, j) = dense(ti * bs + i, tj * bs + j);
    }
  return m;
}

double TiledMatrix::max_abs_diff(const TiledMatrix& other) const {
  TTG_CHECK(n_ == other.n_ && bs_ == other.bs_, "tiling mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < tiles_.size(); ++i)
    m = std::max(m, tiles_[i].max_abs_diff(other.tiles_[i]));
  return m;
}

Tile random_tile(support::Rng& rng, int rows, int cols, double lo, double hi) {
  Tile t(rows, cols);
  for (double& v : t.data()) v = rng.uniform(lo, hi);
  return t;
}

Tile random_spd_dense(support::Rng& rng, int n) {
  Tile b = random_tile(rng, n, n);
  Tile a(n, n);
  // A = B B^T + n I  (diagonally dominant => SPD). Each entry sums its
  // products from zero in ascending k; the products commute, so the lower
  // triangle is computed and mirrored.
  gram_lower_acc(b, a);
  for (int j = 0; j < n; ++j)
    for (int i = j + 1; i < n; ++i) a(j, i) = a(i, j);
  for (int i = 0; i < n; ++i) a(i, i) += n;
  return a;
}

TiledMatrix random_spd(support::Rng& rng, int n, int bs) {
  return TiledMatrix::from_dense(random_spd_dense(rng, n), bs);
}

TiledMatrix random_adjacency(support::Rng& rng, int n, int bs, double density) {
  Tile d(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      if (i == j) {
        d(i, j) = 0.0;
      } else if (rng.bernoulli(density)) {
        d(i, j) = rng.uniform(1.0, 10.0);
      } else {
        d(i, j) = kInf;
      }
    }
  return TiledMatrix::from_dense(d, bs);
}

Tile ghost_tile(int n, int bs, int i, int j) {
  // Must stay in lockstep with ghost_matrix below: runs driven by on-demand
  // synthesis are pinned bit-identical to materialized-ghost runs.
  const int rows = std::min(bs, n - i * bs);
  const int cols = std::min(bs, n - j * bs);
  const auto sig = static_cast<std::uint64_t>(i) * 0x1f1f1f1f1ull +
                   static_cast<std::uint64_t>(j) + 1;
  return Tile::ghost(rows, cols, sig);
}

TiledMatrix ghost_matrix(int n, int bs) {
  TiledMatrix m(n, bs, /*allocate=*/false);
  for (int i = 0; i < m.ntiles(); ++i)
    for (int j = 0; j < m.ntiles(); ++j)
      m.tile(i, j) = ghost_tile(n, bs, i, j);
  return m;
}

Tile dense_cholesky(const Tile& spd) {
  Tile l = spd;
  TTG_CHECK(potrf(l), "reference cholesky: matrix not SPD");
  return l;
}

Tile dense_fw(const Tile& adj) {
  Tile w = adj;
  const int n = w.rows();
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j) {
      const double wkj = w(k, j);
      if (wkj >= kInf) continue;
      for (int i = 0; i < n; ++i)
        w(i, j) = std::min(w(i, j), w(i, k) + wkj);
    }
  return w;
}

}  // namespace ttg::linalg
