#include "mra/function_tree.hpp"

#include <cmath>

#include "mra/legendre.hpp"
#include "support/error.hpp"

namespace ttg::mra {

double Gaussian::eval(double x, double y, double z) const {
  const double dx = x - center[0];
  const double dy = y - center[1];
  const double dz = z - center[2];
  return coeff * std::exp(-expnt * (dx * dx + dy * dy + dz * dz));
}

double Gaussian::norm2() const {
  return coeff * coeff * std::pow(M_PI / (2.0 * expnt), 1.5);
}

std::vector<Gaussian> random_gaussians(int n, double expnt, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<Gaussian> v(static_cast<std::size_t>(n));
  for (auto& g : v) {
    g.expnt = expnt;
    g.coeff = 1.0;
    // Random centers; the clustering ("substantial clustering and hence
    // load imbalance") emerges from uniform draws in a bounded cube —
    // kept away from the boundary so tails stay inside the domain.
    for (int d = 0; d < 3; ++d) g.center[d] = rng.uniform(0.15, 0.85);
  }
  return v;
}

namespace {

/// phi_i(x_q) * w_q, k x k row-major.
std::vector<double> quadrature_matrix(int k, const Quadrature& quad) {
  std::vector<double> phiw(static_cast<std::size_t>(k) * k, 0.0);
  std::vector<double> phi(static_cast<std::size_t>(k));
  for (int q = 0; q < k; ++q) {
    scaling_functions(quad.x[static_cast<std::size_t>(q)], k, phi.data());
    for (int i = 0; i < k; ++i)
      phiw[static_cast<std::size_t>(i) * k + q] =
          phi[static_cast<std::size_t>(i)] * quad.w[static_cast<std::size_t>(q)];
  }
  return phiw;
}

}  // namespace

MraContext::MraContext(int k, std::vector<Gaussian> functions)
    : twoscale_(k),
      quad_(gauss_legendre(k)),
      quadrature_(k, quadrature_matrix(k, quad_), /*transpose=*/false, /*skip_zeros=*/false),
      fns_(std::move(functions)) {}

Coeffs MraContext::project_box(const TreeKey& key) const {
  if (!cache_enabled_) return project_box_uncached(key);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  Coeffs c = project_box_uncached(key);
  cache_.emplace(key, c);
  return c;
}

Coeffs MraContext::project_box_uncached(const TreeKey& key) const {
  const int k = twoscale_.k();
  const double scale = std::pow(2.0, -key.level);
  const Gaussian& g = fn(key.fid);

  // Evaluate f on the k^3 tensor quadrature grid of the box.
  const std::size_t n = static_cast<std::size_t>(k) * k * k;
  std::vector<double> buf(2 * n);
  double* f = buf.data();
  double* s = f + n;
  for (int qx = 0; qx < k; ++qx) {
    const double x = (key.lx + quad_.x[static_cast<std::size_t>(qx)]) * scale;
    for (int qy = 0; qy < k; ++qy) {
      const double y = (key.ly + quad_.x[static_cast<std::size_t>(qy)]) * scale;
      for (int qz = 0; qz < k; ++qz) {
        const double z = (key.lz + quad_.x[static_cast<std::size_t>(qz)]) * scale;
        f[(static_cast<std::size_t>(qx) * k + qy) * k + qz] = g.eval(x, y, z);
      }
    }
  }

  // Separable contraction with phi_i(x_q) w_q per dimension, x then y then
  // z; the z-pass runs on the transposed block (see TwoScale::filter).
  const int k2 = k * k;
  quadrature_.apply(f, s, 1, k2);
  quadrature_.apply(s, f, k, k);
  transpose(f, s, k2, k);
  quadrature_.apply(s, f, 1, k2);
  // Volume scaling: s_i = 2^{-3n/2} sum_q w f phi.
  const double vol = std::pow(scale, 1.5);
  Coeffs c;
  c.v.resize(n);
  transpose(f, c.v.data(), k, k2);
  for (double& v : c.v) v *= vol;
  return c;
}

std::array<std::vector<double>, 8> MraContext::project_children(
    const TreeKey& key) const {
  std::array<std::vector<double>, 8> out;
  for (int c = 0; c < 8; ++c) out[c] = project_box(key.child(c)).v;
  return out;
}

MraContext::NodeProjection MraContext::project_node(const TreeKey& key) const {
  if (!cache_enabled_) return project_node_uncached(key);
  auto it = node_cache_.find(key);
  if (it != node_cache_.end()) return it->second;
  NodeProjection np = project_node_uncached(key);
  node_cache_.emplace(key, np);
  return np;
}

MraContext::NodeProjection MraContext::project_node_uncached(const TreeKey& key) const {
  auto child_s = project_children(key);
  NodeProjection np;
  auto parent = twoscale_.filter(child_s);
  const auto proj = twoscale_.unfilter_all(parent);
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t i = 0; i < proj[c].size(); ++i) {
      const double d = child_s[c][i] - proj[c][i];
      np.dnorm2 += d * d;
    }
  }
  np.parent.v = std::move(parent);
  return np;
}

bool MraContext::must_refine(const TreeKey& key) const {
  const Gaussian& g = fn(key.fid);
  const double width = std::pow(2.0, -key.level);
  const double sigma = 1.0 / std::sqrt(2.0 * g.expnt);
  if (width <= 2.0 * sigma) return false;
  // Is the center inside this box (with a half-box margin)?
  const double margin = 0.5 * width;
  const int l[3] = {key.lx, key.ly, key.lz};
  for (int d = 0; d < 3; ++d) {
    const double lo = l[d] * width - margin;
    const double hi = (l[d] + 1) * width + margin;
    if (g.center[static_cast<std::size_t>(d)] < lo ||
        g.center[static_cast<std::size_t>(d)] > hi)
      return false;
  }
  return true;
}

double MraContext::project_flops() const {
  const int k = twoscale_.k();
  // 8 children x (k^3 evals @ ~25 flops + 3 contractions of 2 k^4).
  return 8.0 * (25.0 * k * k * k + 3.0 * 2.0 * k * k * k * k) +
         2.0 * twoscale_.filter_flops();
}

double MraContext::compress_flops() const { return 2.0 * twoscale_.filter_flops(); }

double MraContext::reconstruct_flops() const { return twoscale_.filter_flops(); }

}  // namespace ttg::mra
