// TTG implementation of Floyd-Warshall all-pairs-shortest-path
// (Section III-C of the paper).
//
// "In TTG ... a single-level 2D block-cyclic distribution of tiles is used
// and tiles are broadcast to all successor operations independent of other
// tiles." Each round k of the tiled algorithm runs kernel A on the diagonal
// tile, kernels B and C on the tile row/column, and kernel D everywhere
// else; tiles flow from round to round as messages, with no global barrier
// anywhere — round k+1's A kernel can start as soon as tile (k+1,k+1) has
// been updated, while round k's D kernels are still in flight elsewhere.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "linalg/matrix_gen.hpp"
#include "runtime/world.hpp"
#include "ttg/keymaps.hpp"
#include "ttg/keys.hpp"

namespace ttg::apps::fw {

struct Options {
  bool collect = true;
  KeymapKind keymap = KeymapKind::Cyclic;  ///< tile placement (ttg/keymaps.hpp)
};

struct Result {
  double makespan = 0.0;
  double gflops = 0.0;  ///< 2 n^3 min-plus op-pairs over makespan
  std::uint64_t tasks = 0;
  linalg::TiledMatrix matrix;  ///< all-pairs distances (if collect)
};

/// The FW-APSP template task graph above, built once on a World and then
/// fed any number of adjacency matrices. run() builds one, injects one
/// matrix and fences; each serving-mode FW job graph (apps/serve) holds one
/// and injects one matrix per job.
class Graph {
 public:
  /// Tile (i,j) of the adjacency matrix, read by INITIATOR on its owner.
  using TileSource = std::function<linalg::Tile(int, int)>;
  /// Receives each final distance tile (i,j) inside the RESULT task body
  /// that delivers it, on the tile's owner rank.
  using Sink = std::function<void(const Int2&, linalg::Tile&)>;

  /// Wire the graph for an n x n matrix in bs x bs tiles, placed per
  /// Options::keymap (Options::collect is left to the sink).
  Graph(rt::World& world, int n, int bs, const Options& opt, Sink sink);
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Feed one matrix: route every tile into round 0 through INITIATOR.
  /// `src` is kept until the next inject(), because tasks read it as they
  /// fire.
  void inject(TileSource src);

  /// Install every TT's keymap for `kind`: the one place this graph's
  /// keymaps are set. Each call bumps every TT's mutation counter, which is
  /// how rt::GraphCache notices a pooled graph that was re-placed.
  void place(KeymapKind kind);

  /// RESULT tiles delivered per injected matrix.
  [[nodiscard]] int results() const { return nt_ * nt_; }
  /// FW_A..FW_D bodies executed over all injections.
  [[nodiscard]] std::uint64_t tasks_executed() const;
  /// Every TT of the graph, RESULT and INITIATOR included.
  [[nodiscard]] std::vector<rt::TTBase*> tts() const;

 private:
  rt::World& world_;
  int nt_;
  Sink sink_;
  TileSource src_;
  std::vector<std::unique_ptr<rt::TTBase>> tts_;  ///< FW_A..FW_D RESULT INITIATOR
  std::function<void(const Keymap2D&)> place_;    ///< sets the keymaps of tts_
  std::function<void(const Int2&)> initiate_;     ///< INITIATOR's invoke
};

/// Analytic operation count: 2 n^3 (one compare + one add per (i,j,k)).
[[nodiscard]] double op_count(int n);

/// Run tiled FW-APSP on the adjacency matrix `w0` over `world`.
Result run(rt::World& world, const linalg::TiledMatrix& w0, const Options& opt = {});

}  // namespace ttg::apps::fw
