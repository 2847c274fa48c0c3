// Dense tile kernels (hand-written LAPACK/BLAS subset) and their cost model.
//
// These are the four kernels of the tiled Cholesky factorization (Fig. 1:
// POTRF, TRSM, SYRK, GEMM), the accumulating GEMM used by block-sparse
// matrix multiplication, and the min-plus product at the heart of
// Floyd-Warshall. Every kernel:
//
//   * computes real math on real tiles (column-major, double precision), and
//   * on ghost tiles combines signatures deterministically and skips math,
//     while the caller charges the same virtual flop cost either way.
//
// The *_time helpers convert analytic flop counts into virtual seconds via
// the machine model, using per-kernel efficiency factors relative to the
// effective DGEMM rate (GEMM vectorizes nearly perfectly; POTRF's
// square-root-laden panel math does not; FW's min-plus semiring lacks FMA).
#pragma once

#include <cstdint>

#include "linalg/tile.hpp"
#include "sim/machine.hpp"

namespace ttg::linalg {

// --- analytic flop counts ---
namespace flops {
/// Cholesky of an n x n tile: n^3/3 + lower-order.
[[nodiscard]] double potrf(int n);
/// Triangular solve of an m x n block against an n x n triangle: m n^2.
[[nodiscard]] double trsm(int m, int n);
/// Rank-k symmetric update C(n x n) -= A(n x k) A^T: n^2 k.
[[nodiscard]] double syrk(int n, int k);
/// General multiply-accumulate m x n x k: 2 m n k.
[[nodiscard]] double gemm(int m, int n, int k);
/// Min-plus product m x n x k: 2 m n k (compare+add).
[[nodiscard]] double minplus(int m, int n, int k);
}  // namespace flops

// --- per-kernel efficiency vs effective DGEMM rate ---
inline constexpr double kGemmEff = 0.92;
inline constexpr double kSyrkEff = 0.80;
inline constexpr double kTrsmEff = 0.72;
inline constexpr double kPotrfEff = 0.45;
inline constexpr double kMinplusEff = 0.35;

[[nodiscard]] double potrf_time(const sim::MachineModel& m, int n);
[[nodiscard]] double trsm_time(const sim::MachineModel& m, int rows, int n);
[[nodiscard]] double syrk_time(const sim::MachineModel& m, int n, int k);
[[nodiscard]] double gemm_time(const sim::MachineModel& m, int rows, int cols, int k);
[[nodiscard]] double minplus_time(const sim::MachineModel& m, int rows, int cols, int k);

// --- device-variant efficiencies vs the GPU's effective DGEMM rate ---
// GEMM maps near-perfectly onto the device; SYRK wastes half the update's
// symmetry; TRSM's triangular solves expose less parallelism per launch.
inline constexpr double kGpuGemmEff = 0.90;
inline constexpr double kGpuSyrkEff = 0.75;
inline constexpr double kGpuTrsmEff = 0.55;

/// Device-kernel times for the op_cuda-style task variants (simulated GPU;
/// launch overhead and staging are charged separately by the scheduler).
[[nodiscard]] double gpu_trsm_time(const sim::MachineModel& m, int rows, int n);
[[nodiscard]] double gpu_syrk_time(const sim::MachineModel& m, int n, int k);
[[nodiscard]] double gpu_gemm_time(const sim::MachineModel& m, int rows, int cols, int k);

// --- kernels ---
//
// Real-tile kernels loop over unit-stride columns (Tile::col), yet every
// output entry takes exactly the textbook triple loop's floating-point
// operations: the same start value, the same terms in the same ascending
// order, and the same zero skips. Results are therefore bit-identical to the
// textbook loops (kept in tests/test_linalg.cpp as the reference), provided
// the build neither contracts a multiply-add into an FMA nor reassociates:
// no -march, -mfma or -ffast-math.

/// In-place lower Cholesky factorization of a square tile; the strict upper
/// triangle is zeroed. Returns false if the tile is not positive definite
/// (real mode; ghost mode always succeeds); the tile's contents are then
/// unspecified.
[[nodiscard]] bool potrf(Tile& a);

/// Right-looking tiled-Cholesky TRSM: A := A * L^{-T} where L is the lower
/// triangular factor in `lkk` and A is the m x n panel tile `amk`.
void trsm(const Tile& lkk, Tile& amk);

/// Symmetric rank-k update: C := C - A A^T (full square update; only the
/// lower triangle is meaningful in the Cholesky flow).
void syrk(const Tile& a, Tile& c);

/// Cholesky trailing update: C := C - A B^T.
void gemm_nt(Tile& c, const Tile& a, const Tile& b);

/// Accumulating product (block-sparse GEMM): C := C + A B.
void gemm_nn_acc(Tile& c, const Tile& a, const Tile& b);

/// Lower triangle of X X^T, added in: G(i,j) += X(i,p) X(j,p) for i >= j and
/// p ascending, four columns of G per pass over X. The strict upper triangle
/// of the n x n tile G is left as it is. Shared by syrk and random_spd_dense.
void gram_lower_acc(const Tile& x, Tile& g);

/// Min-plus (tropical semiring) update for Floyd-Warshall:
/// W(i,j) := min(W(i,j), min_k A(i,k) + B(k,j)).
void minplus(Tile& w, const Tile& a, const Tile& b);

/// Elementwise accumulation A += B (used by streaming C-tile reduction in
/// block-sparse GEMM).
void tile_add(Tile& a, const Tile& b);

/// Deterministic signature combination for ghost-mode kernels.
[[nodiscard]] std::uint64_t combine_sig(std::uint64_t a, std::uint64_t b,
                                        std::uint64_t tag);

}  // namespace ttg::linalg
