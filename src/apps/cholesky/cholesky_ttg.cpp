#include "apps/cholesky/cholesky_ttg.hpp"

#include <functional>

#include "linalg/kernels.hpp"
#include "ttg/ttg.hpp"

namespace ttg::apps::cholesky {

using linalg::Tile;
using linalg::TiledMatrix;

double flop_count(int n) { return n / 3.0 * n * n; }

namespace {

/// Device datum for factor tile (i,j): the logical tile coordinate is the
/// residency tag, so a tile a device task wrote stays resident for the
/// later kernels that read it on the same rank.
rt::DeviceDatum tile_datum(int i, int j, const Tile& t, bool write) {
  rt::DeviceDatum d;
  d.tag = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
          static_cast<std::uint32_t>(j);
  d.bytes = static_cast<std::uint64_t>(t.rows()) * static_cast<std::uint64_t>(t.cols()) *
            sizeof(double);
  d.write = write;
  return d;
}

int tile_count(int n, int bs) {
  TTG_REQUIRE(n > 0 && bs > 0, "cholesky graph needs n > 0 and block > 0");
  return (n + bs - 1) / bs;
}

}  // namespace

Graph::Graph(rt::World& world, int n, int bs, const Options& opt, Sink sink)
    : world_(world), nt_(tile_count(n, bs)), sink_(std::move(sink)) {
  const int nt = nt_;
  const auto& machine = world.machine();

  /* Edges, named as in Listing 1. Key types encode what the paper calls
     1-, 2-, and 3-tuple task IDs. */
  Edge<Int1, Tile> to_potrf("to_potrf");
  Edge<Int2, Tile> potrf_trsm("potrf_trsm");
  Edge<Int2, Tile> to_trsm("to_trsm");  // tile (m,k) from INITIATOR or GEMM
  Edge<Int2, Tile> trsm_syrk("trsm_syrk");
  Edge<Int2, Tile> to_syrk("to_syrk");  // diagonal tile chain
  Edge<Int3, Tile> trsm_gemm_row("trsm_gemm_row");
  Edge<Int3, Tile> trsm_gemm_col("trsm_gemm_col");
  Edge<Int3, Tile> to_gemm("to_gemm");  // off-diagonal tile chain
  Edge<Int2, Tile> result("result");

  /* POTRF(k): factor the diagonal tile, broadcast L(k,k) down its column
     of TRSMs, and emit the final tile. */
  auto potrf_fn = [nt](const Int1& key, Tile& tile_kk,
                       std::tuple<Out<Int2, Tile>, Out<Int2, Tile>>& out) {
    const int k = key.i;
    TTG_CHECK(linalg::potrf(tile_kk), "matrix is not SPD");
    std::vector<Int2> trsm_ids;
    for (int m = k + 1; m < nt; ++m) trsm_ids.push_back(Int2{m, k});
    ttg::send<0>(Int2{k, k}, tile_kk, out);  // RESULT
    ttg::broadcast<1>(trsm_ids, tile_kk, out);
  };
  auto potrf_tt = make_tt(world, potrf_fn, edges(to_potrf),
                          edges(result, potrf_trsm), "POTRF");

  /* TRSM(m,k): solve the panel tile, then broadcast it to 4 terminals in
     one call exactly as in Listing 1: RESULT, SYRK, GEMM row, GEMM col. */
  auto trsm_fn = [nt](const Int2& key, Tile& tile_kk, Tile& tile_mk,
                      std::tuple<Out<Int2, Tile>, Out<Int2, Tile>, Out<Int3, Tile>,
                                 Out<Int3, Tile>>& out) {
    const auto [m, k] = key;
    linalg::trsm(tile_kk, tile_mk);
    std::vector<Int3> row_ids, col_ids;
    /* ids for gemms in row m */
    for (int n = k + 1; n < m; ++n) row_ids.push_back(Int3{m, n, k});
    /* ids for gemms in column m */
    for (int i = m + 1; i < nt; ++i) col_ids.push_back(Int3{i, m, k});
    /* broadcast the result to 4 output terminals:
       0: to the final output task writing back the tile;
       1: to the SYRK kernel;
       2: to the gemm tasks in row m;
       3: to the gemm tasks in column m */
    ttg::broadcast<0, 1, 2, 3>(
        std::make_tuple(Int2{m, k}, Int2{k, m}, row_ids, col_ids), tile_mk, out);
  };
  auto trsm_tt =
      make_tt(world, trsm_fn, edges(potrf_trsm, to_trsm),
              edges(result, trsm_syrk, trsm_gemm_row, trsm_gemm_col), "TRSM");

  /* SYRK(k,m): C(m,m) -= L(m,k) L(m,k)^T; chain to the next SYRK of the
     same diagonal tile, or to POTRF(m) when this was the last update. */
  auto syrk_fn = [](const Int2& key, Tile& l_mk, Tile& c_mm,
                    std::tuple<Out<Int1, Tile>, Out<Int2, Tile>>& out) {
    const auto [k, m] = key;
    linalg::syrk(l_mk, c_mm);
    if (k == m - 1) {
      ttg::send<0>(Int1{m}, std::move(c_mm), out);  // ready for POTRF(m)
    } else {
      ttg::send<1>(Int2{k + 1, m}, std::move(c_mm), out);
    }
  };
  auto syrk_tt =
      make_tt(world, syrk_fn, edges(trsm_syrk, to_syrk), edges(to_potrf, to_syrk),
              "SYRK");

  /* GEMM(m,n,k): C(m,n) -= L(m,k) L(n,k)^T; chain to the next GEMM of the
     same tile, or to TRSM(m,n) when this was the last update. */
  auto gemm_fn = [](const Int3& key, Tile& l_mk, Tile& l_nk, Tile& c_mn,
                    std::tuple<Out<Int2, Tile>, Out<Int3, Tile>>& out) {
    const auto [m, n, k] = key;
    linalg::gemm_nt(c_mn, l_mk, l_nk);
    if (k == n - 1) {
      ttg::send<0>(Int2{m, n}, std::move(c_mn), out);  // ready for TRSM(m,n)
    } else {
      ttg::send<1>(Int3{m, n, k + 1}, std::move(c_mn), out);
    }
  };
  auto gemm_tt = make_tt(world, gemm_fn, edges(trsm_gemm_row, trsm_gemm_col, to_gemm),
                         edges(to_trsm, to_gemm), "GEMM");

  /* RESULT: hand the factor tiles to the sink (on the owning rank, as in
     the paper's distributed write-back). */
  auto result_tt = make_sink(
      world, result, [this](const Int2& key, Tile& t) { sink_(key, t); }, "RESULT");

  /* INITIATOR: inject every tile of the lower triangle on its owner rank.
     "The INITIATOR operation is responsible for providing input to tasks
     that have no direct predecessor in the algorithm." (Fig. 1.) */
  auto init_fn = [this](const Int2& key,
                        std::tuple<Out<Int1, Tile>, Out<Int2, Tile>, Out<Int2, Tile>,
                                   Out<Int3, Tile>>& out) {
    const auto [m, n] = key;
    Tile t = src_(m, n);
    if (m == 0 && n == 0) {
      ttg::send<0>(Int1{0}, std::move(t), out);  // POTRF(0)
    } else if (m == n) {
      ttg::send<2>(Int2{0, m}, std::move(t), out);  // SYRK chain start
    } else if (n == 0) {
      ttg::send<1>(Int2{m, 0}, std::move(t), out);  // TRSM(m,0)
    } else {
      ttg::send<3>(Int3{m, n, 0}, std::move(t), out);  // GEMM chain start
    }
  };
  auto init_tt = make_tt<Int2>(world, init_fn, std::tuple<>{},
                               edges(to_potrf, to_trsm, to_syrk, to_gemm), "INITIATOR");

  /* Priority map: drive the critical path — factor and solve panels of
     early iterations before trailing updates (lookahead). */
  if (opt.priorities) {
    potrf_tt->set_priomap([nt](const Int1& k) { return 3 * (nt - k.i); });
    trsm_tt->set_priomap([nt](const Int2& k) { return 2 * (nt - k.j); });
    syrk_tt->set_priomap([nt](const Int2& k) { return nt - k.i; });
    gemm_tt->set_priomap([nt](const Int3& k) { return nt - k.k; });
  }

  /* Cost maps: virtual kernel durations from analytic flop counts. */
  potrf_tt->set_costmap([&machine](const Int1&, const Tile& t) {
    return linalg::potrf_time(machine, t.rows());
  });
  trsm_tt->set_costmap([&machine](const Int2&, const Tile& lkk, const Tile& amk) {
    (void)lkk;
    return linalg::trsm_time(machine, amk.rows(), amk.cols());
  });
  syrk_tt->set_costmap([&machine](const Int2&, const Tile& l, const Tile& c) {
    return linalg::syrk_time(machine, c.rows(), l.cols());
  });
  gemm_tt->set_costmap(
      [&machine](const Int3&, const Tile& a_, const Tile& b_, const Tile& c_) {
        (void)b_;
        return linalg::gemm_time(machine, c_.rows(), c_.cols(), a_.cols());
      });

  /* Device variants (op_cuda shape): TRSM/SYRK/GEMM gain simulated-GPU
     kernels; POTRF's square-root-heavy panel math stays host-only, as it
     does in GPU-accelerated tiled Cholesky. Registered only when the world
     actually runs a device placement, so Off stays bit-identical. */
  if (world.config().device != rt::DevicePlacement::Off) {
    trsm_tt->set_device_op(
        [&machine](const Int2& key, const Tile& lkk, const Tile& amk) {
          rt::DeviceCall dc;
          dc.cost = linalg::gpu_trsm_time(machine, amk.rows(), amk.cols());
          dc.datums = {tile_datum(key.j, key.j, lkk, /*write=*/false),
                       tile_datum(key.i, key.j, amk, /*write=*/true)};
          return dc;
        });
    syrk_tt->set_device_op(
        [&machine](const Int2& key, const Tile& l_mk, const Tile& c_mm) {
          rt::DeviceCall dc;
          dc.cost = linalg::gpu_syrk_time(machine, c_mm.rows(), l_mk.cols());
          dc.datums = {tile_datum(key.j, key.i, l_mk, /*write=*/false),
                       tile_datum(key.j, key.j, c_mm, /*write=*/true)};
          return dc;
        });
    gemm_tt->set_device_op([&machine](const Int3& key, const Tile& l_mk,
                                      const Tile& l_nk, const Tile& c_mn) {
      rt::DeviceCall dc;
      dc.cost = linalg::gpu_gemm_time(machine, c_mn.rows(), c_mn.cols(), l_mk.cols());
      dc.datums = {tile_datum(key.i, key.k, l_mk, /*write=*/false),
                   tile_datum(key.j, key.k, l_nk, /*write=*/false),
                   tile_datum(key.i, key.j, c_mn, /*write=*/true)};
      return dc;
    });
  }

  /* Process maps: tasks run where the tile they write lives. */
  place_ = [potrf = potrf_tt.get(), trsm = trsm_tt.get(), syrk = syrk_tt.get(),
            gemm = gemm_tt.get(), res = result_tt.get(),
            init = init_tt.get()](const Keymap2D& dist) {
    potrf->set_keymap([dist](const Int1& k) { return dist.owner(k.i, k.i); });
    trsm->set_keymap([dist](const Int2& k) { return dist.owner(k.i, k.j); });
    syrk->set_keymap([dist](const Int2& k) { return dist.owner(k.j, k.j); });
    gemm->set_keymap([dist](const Int3& k) { return dist.owner(k.i, k.j); });
    res->set_keymap([dist](const Int2& k) { return dist.owner(k.i, k.j); });
    init->set_keymap([dist](const Int2& k) { return dist.owner(k.i, k.j); });
  };
  place(opt.keymap);
  initiate_ = [init = init_tt.get()](const Int2& key) { init->invoke(key); };

  std::unique_ptr<rt::TTBase> all[] = {std::move(potrf_tt), std::move(trsm_tt),
                                       std::move(syrk_tt),  std::move(gemm_tt),
                                       std::move(result_tt), std::move(init_tt)};
  for (auto& tt : all) {
    make_graph_executable(*tt);
    tts_.push_back(std::move(tt));
  }
}

void Graph::inject(TileSource src) {
  src_ = std::move(src);
  for (int m = 0; m < nt_; ++m)
    for (int n = 0; n <= m; ++n) initiate_(Int2{m, n});
}

void Graph::place(KeymapKind kind) {
  place_(make_keymap2d(kind, world_.nranks(), world_.config().ranks_per_node));
}

std::uint64_t Graph::tasks_executed() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < 4; ++i) n += tts_[i]->tasks_executed();  // POTRF..GEMM
  return n;
}

std::vector<rt::TTBase*> Graph::tts() const {
  std::vector<rt::TTBase*> v;
  for (const auto& tt : tts_) v.push_back(tt.get());
  return v;
}

namespace {

/// Shared driver: the input matrix is abstracted as a tile source so callers
/// can feed either a materialized TiledMatrix or on-demand ghost synthesis
/// (run_ghost) through the identical task graph.
Result run_impl(rt::World& world, int n, int bs, Graph::TileSource tile_src,
                const Options& opt) {
  TiledMatrix l_out;
  if (opt.collect) l_out = TiledMatrix(n, bs, /*allocate=*/false);
  Graph graph(world, n, bs, opt, [&](const Int2& key, Tile& t) {
    if (opt.collect) l_out.tile(key.i, key.j) = std::move(t);
  });

  const double t0 = world.engine().now();
  graph.inject(std::move(tile_src));
  const double t1 = world.fence();

  TTG_CHECK(world.unfinished() == 0, "cholesky graph did not quiesce");

  Result res;
  res.makespan = t1 - t0;
  res.gflops = flop_count(n) / res.makespan / 1e9;
  res.tasks = graph.tasks_executed();
  res.matrix = std::move(l_out);
  return res;
}

}  // namespace

Result run(rt::World& world, const TiledMatrix& a, const Options& opt) {
  return run_impl(
      world, a.n(), a.block(), [&a](int i, int j) { return a.tile(i, j); }, opt);
}

Result run_ghost(rt::World& world, int n, int bs, const Options& opt) {
  Options o = opt;
  o.collect = false;  // nothing to collect: inputs are synthesized ghosts
  return run_impl(
      world, n, bs, [n, bs](int i, int j) { return linalg::ghost_tile(n, bs, i, j); },
      o);
}

}  // namespace ttg::apps::cholesky
