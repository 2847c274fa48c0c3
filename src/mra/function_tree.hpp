// Function-tree types and adaptive projection math for the MRA benchmark
// (Section III-E).
//
// Each 3-D Gaussian test function is represented on an adaptive dyadic tree
// over the unit cube: a node at (level n, translation l) covers the box
// [l 2^-n, (l+1) 2^-n)^3 and, if it is a leaf, carries k^3 scaling
// coefficients. The workload is the paper's: Gaussians with large exponents
// and random centers, whose trees refine ~6+ levels around the center and
// cluster wherever the centers cluster (the load imbalance the benchmark is
// about).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mra/contraction.hpp"
#include "mra/legendre.hpp"
#include "mra/twoscale.hpp"
#include "serialization/traits.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace ttg::mra {

/// Task ID of a tree node: function id + dyadic box.
struct TreeKey {
  int fid = 0;
  int level = 0;
  int lx = 0, ly = 0, lz = 0;

  auto operator<=>(const TreeKey&) const = default;

  [[nodiscard]] TreeKey child(int c) const {
    return TreeKey{fid, level + 1, 2 * lx + (c & 1), 2 * ly + ((c >> 1) & 1),
                   2 * lz + ((c >> 2) & 1)};
  }
  [[nodiscard]] TreeKey parent() const {
    return TreeKey{fid, level - 1, lx / 2, ly / 2, lz / 2};
  }
  /// Which child of its parent this node is (bit order z|y|x).
  [[nodiscard]] int child_index() const {
    return (lx & 1) | ((ly & 1) << 1) | ((lz & 1) << 2);
  }
  /// Ancestor at `target` level (or the key itself if already coarser).
  [[nodiscard]] TreeKey ancestor_at(int target) const {
    TreeKey a = *this;
    while (a.level > target) a = a.parent();
    return a;
  }

  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = static_cast<std::uint64_t>(fid) * 0x9e3779b97f4a7c15ull;
    support::hash_combine(h, static_cast<std::uint64_t>(level));
    support::hash_combine(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(lx)));
    support::hash_combine(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(ly)));
    support::hash_combine(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(lz)));
    return h;
  }
};

/// Scaling-coefficient block (k^3 doubles) — the node payload flowing
/// through the MRA flowgraph. Supports the split-metadata protocol so the
/// PaRSEC backend moves it without serialization copies.
struct Coeffs {
  std::vector<double> v;

  [[nodiscard]] double norm2() const {
    double s = 0.0;
    for (double x : v) s += x * x;
    return s;
  }
  [[nodiscard]] std::size_t wire_bytes() const { return v.size() * sizeof(double); }

  template <typename Ar>
  void serialize(Ar& ar) {
    ar& v;
  }
};

/// One Gaussian: coeff * exp(-expnt |r - center|^2), center in the unit cube.
struct Gaussian {
  double expnt = 1.0e4;
  double coeff = 1.0;
  std::array<double, 3> center{0.5, 0.5, 0.5};

  [[nodiscard]] double eval(double x, double y, double z) const;
  /// Analytic squared L2 norm over R^3 (tails outside the cube negligible
  /// for the benchmark's exponents).
  [[nodiscard]] double norm2() const;
};

/// Random Gaussians "with centers distributed randomly" (Section III-E);
/// exponent in unit-cube coordinates.
[[nodiscard]] std::vector<Gaussian> random_gaussians(int n, double expnt,
                                                     std::uint64_t seed);

/// Hash functor for TreeKey-keyed containers.
struct KeyHashFwd {
  std::size_t operator()(const TreeKey& k) const {
    return static_cast<std::size_t>(k.hash());
  }
};

/// Shared math context: order, quadrature transforms, two-scale filters,
/// and the function set (one adaptive tree per Gaussian).
class MraContext {
 public:
  MraContext(int k, std::vector<Gaussian> functions);

  [[nodiscard]] int k() const { return twoscale_.k(); }
  [[nodiscard]] int nfunctions() const { return static_cast<int>(fns_.size()); }
  [[nodiscard]] const Gaussian& fn(int fid) const {
    TTG_CHECK(fid >= 0 && fid < nfunctions(),
              "MraContext: no function with fid " + std::to_string(fid));
    return fns_[static_cast<std::size_t>(fid)];
  }
  [[nodiscard]] const TwoScale& twoscale() const { return twoscale_; }

  /// Scaling coefficients of function `fid` on the box of `key` by
  /// Gauss-Legendre quadrature (k points per dimension).
  [[nodiscard]] Coeffs project_box(const TreeKey& key) const;

  /// Memoize project_box and project_node results (benchmark convenience:
  /// strong-scaling sweeps re-project the same functions many times; the
  /// math runs once and later runs replay the cached coefficients). The
  /// caches have no lock, so only a run whose task bodies share one host
  /// thread may use them; apps::mra::run and baselines::run_native_mra
  /// reject a threaded engine while the cache is on.
  void enable_projection_cache() const { cache_enabled_ = true; }
  [[nodiscard]] bool projection_cache_enabled() const { return cache_enabled_; }

  /// Coefficients of all 8 children of `key`.
  [[nodiscard]] std::array<std::vector<double>, 8> project_children(
      const TreeKey& key) const;

  /// Full adaptive-projection step for one node: project the 8 children,
  /// filter to the parent scaling block, and measure the wavelet residual
  /// norm that drives refinement. Memoized when the projection cache is
  /// enabled (strong-scaling sweeps revisit identical nodes).
  struct NodeProjection {
    Coeffs parent;
    double dnorm2 = 0.0;
  };
  [[nodiscard]] NodeProjection project_node(const TreeKey& key) const;

  /// Forced refinement near the function's center ("special point"): a box
  /// much wider than the Gaussian's width sees zero at every quadrature
  /// point and would falsely report convergence, so projection must refine
  /// any box containing (or adjacent to) the center until the box width is
  /// comparable to the width 1/sqrt(2 expnt). This mirrors MADNESS's
  /// special-point refinement for narrow features.
  [[nodiscard]] bool must_refine(const TreeKey& key) const;

  /// Flop estimates for the cost model.
  [[nodiscard]] double project_flops() const;
  [[nodiscard]] double compress_flops() const;
  [[nodiscard]] double reconstruct_flops() const;

 private:
  [[nodiscard]] Coeffs project_box_uncached(const TreeKey& key) const;

  TwoScale twoscale_;
  Quadrature quad_;
  Contraction quadrature_;  // M(i, q) = phi_i(x_q) w_q, every term kept
  std::vector<Gaussian> fns_;
  [[nodiscard]] NodeProjection project_node_uncached(const TreeKey& key) const;

  mutable bool cache_enabled_ = false;
  mutable std::unordered_map<TreeKey, Coeffs, KeyHashFwd> cache_;
  mutable std::unordered_map<TreeKey, NodeProjection, KeyHashFwd> node_cache_;
};

}  // namespace ttg::mra

namespace ttg::ser {

template <>
struct SplitMetadata<mra::Coeffs> {
  struct metadata_type {
    std::uint64_t count = 0;
  };
  static metadata_type get_metadata(const mra::Coeffs& c) { return {c.v.size()}; }
  static mra::Coeffs create(const metadata_type& m) {
    mra::Coeffs c;
    c.v.resize(m.count);
    return c;
  }
  static std::size_t payload_bytes(const mra::Coeffs& c) { return c.wire_bytes(); }
  static std::span<const std::byte> payload(const mra::Coeffs& c) {
    return std::as_bytes(std::span<const double>(c.v));
  }
  static std::span<std::byte> payload(mra::Coeffs& c) {
    return std::as_writable_bytes(std::span<double>(c.v));
  }
};

}  // namespace ttg::ser
