// TTG implementation of dense tiled Cholesky factorization (Section III-B,
// Fig. 1, Listing 1 of the paper).
//
// The template task graph has four compute task templates plus data in/out:
//
//   INITIATOR --> POTRF(k)    : factor diagonal tile (k,k)
//             \-> TRSM(m,k)   : panel solve, tile (m,k) against L(k,k)
//             \-> SYRK(k,m)   : diagonal update C(m,m) -= L(m,k) L(m,k)^T
//             \-> GEMM(m,n,k) : trailing update C(m,n) -= L(m,k) L(n,k)^T
//   POTRF, TRSM --> RESULT    : write back final L tiles
//
// TRSM uses the paper's 4-terminal ttg::broadcast (Listing 1, lines 37-39)
// to feed the result tile to RESULT, SYRK, and the GEMM row/column in one
// call. Tasks are placed 2D block-cyclically and prioritized by iteration
// (lookahead: early panels run ahead of trailing updates).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "linalg/dist.hpp"
#include "linalg/matrix_gen.hpp"
#include "runtime/world.hpp"
#include "ttg/keymaps.hpp"
#include "ttg/keys.hpp"

namespace ttg::apps::cholesky {

struct Options {
  bool collect = true;      ///< gather the factored tiles into Result::matrix
  bool priorities = true;   ///< use the lookahead priority map (ablation knob)
  /// Task/tile placement: cyclic (historical), or a node-aware layout built
  /// on WorldConfig::ranks_per_node (see ttg/keymaps.hpp).
  KeymapKind keymap = KeymapKind::Cyclic;
};

struct Result {
  double makespan = 0.0;    ///< seconds of virtual time for the factorization
  double gflops = 0.0;      ///< analytic n^3/3 flops over makespan
  std::uint64_t tasks = 0;  ///< task bodies executed
  linalg::TiledMatrix matrix;  ///< factored L (valid if Options::collect)
};

/// The POTRF template task graph above, built once on a World and then fed
/// any number of matrices: one algorithm, many inputs (Fig. 1). run() and
/// run_ghost() build one, inject one matrix and fence; each serving-mode
/// POTRF job graph (apps/serve) holds one and injects one matrix per job.
class Graph {
 public:
  /// Tile (i,j) of the input matrix, read by INITIATOR on the tile's owner.
  using TileSource = std::function<linalg::Tile(int, int)>;
  /// Receives each final tile (i,j) of L inside the RESULT task body that
  /// delivers it, on the tile's owner rank.
  using Sink = std::function<void(const Int2&, linalg::Tile&)>;

  /// Wire the graph for an n x n matrix in bs x bs tiles. Options::collect
  /// is left to the sink; priorities and keymap are installed here, and the
  /// TRSM/SYRK/GEMM device variants when the world places tasks on GPUs.
  Graph(rt::World& world, int n, int bs, const Options& opt, Sink sink);
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Feed one matrix: invoke INITIATOR on every lower-triangle tile. `src`
  /// is kept until the next inject(), because tasks read it as they fire.
  void inject(TileSource src);

  /// Install every TT's keymap for `kind`: the one place this graph's
  /// keymaps are set. Each call bumps every TT's mutation counter, which is
  /// how rt::GraphCache notices a pooled graph that was re-placed.
  void place(KeymapKind kind);

  /// RESULT tiles delivered per injected matrix.
  [[nodiscard]] int results() const { return nt_ * (nt_ + 1) / 2; }
  /// POTRF, TRSM, SYRK and GEMM bodies executed over all injections.
  [[nodiscard]] std::uint64_t tasks_executed() const;
  /// Every TT of the graph, RESULT and INITIATOR included.
  [[nodiscard]] std::vector<rt::TTBase*> tts() const;

 private:
  rt::World& world_;
  int nt_;
  Sink sink_;
  TileSource src_;
  std::vector<std::unique_ptr<rt::TTBase>> tts_;  ///< POTRF TRSM SYRK GEMM RESULT INITIATOR
  std::function<void(const Keymap2D&)> place_;    ///< sets the keymaps of tts_
  std::function<void(const Int2&)> initiate_;     ///< INITIATOR's invoke
};

/// Analytic flop count of an n x n Cholesky factorization.
[[nodiscard]] double flop_count(int n);

/// Factor `a` (SPD, real or ghost tiles) on the given world; returns the
/// lower-triangular factor and timing. The world is fenced internally.
Result run(rt::World& world, const linalg::TiledMatrix& a, const Options& opt = {});

/// Factor an n x n ghost problem without materializing any tile container:
/// input tiles are synthesized on demand (linalg::ghost_tile) when the
/// INITIATOR fires on the owner rank, and the factor is never collected
/// (Result::matrix stays empty; Options::collect is ignored). Host state is
/// therefore O(1) per live task instead of O(ntiles^2) per problem — this is
/// what lets bench/scale_engine sweep thousands of simulated ranks with flat
/// peak RSS per rank. Bit-identical to run(world, ghost_matrix(n, bs), opt).
Result run_ghost(rt::World& world, int n, int bs, const Options& opt = {});

}  // namespace ttg::apps::cholesky
