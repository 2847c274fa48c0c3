#include "apps/fw_apsp/fw_ttg.hpp"

#include "graph/fw_kernels.hpp"
#include "linalg/dist.hpp"
#include "ttg/ttg.hpp"

namespace ttg::apps::fw {

using linalg::Tile;
using linalg::TiledMatrix;

double op_count(int n) { return 2.0 * n * n * n; }

namespace {

/// Task-ID helpers. Rounds are encoded in the key of every kernel:
///   A: Int1{k}; B: Int2{j,k}; C: Int2{i,k}; D: Int3{i,j,k}.
struct OutIdx {
  // Terminal order shared by all four kernel TTs (see run()):
  // 0: to_a, 1: to_b, 2: to_c, 3: to_d, 4: result
  static constexpr std::size_t a = 0, b = 1, c = 2, d = 3, result = 4;
};

/// Route tile (i,j) into round `k` (or to RESULT when rounds are done).
template <typename OutTuple>
void route_tile(int i, int j, int k, int nt, Tile&& t, OutTuple& out) {
  if (k == nt) {
    ttg::send<OutIdx::result>(Int2{i, j}, std::move(t), out);
  } else if (i == k && j == k) {
    ttg::send<OutIdx::a>(Int1{k}, std::move(t), out);
  } else if (i == k) {
    ttg::send<OutIdx::b>(Int2{j, k}, std::move(t), out);
  } else if (j == k) {
    ttg::send<OutIdx::c>(Int2{i, k}, std::move(t), out);
  } else {
    ttg::send<OutIdx::d>(Int3{i, j, k}, std::move(t), out);
  }
}

int tile_count(int n, int bs) {
  TTG_REQUIRE(n > 0 && bs > 0, "FW graph needs n > 0 and block > 0");
  return (n + bs - 1) / bs;
}

}  // namespace

Graph::Graph(rt::World& world, int n, int bs, const Options& opt, Sink sink)
    : world_(world), nt_(tile_count(n, bs)), sink_(std::move(sink)) {
  const int nt = nt_;
  const auto& machine = world.machine();

  // Tile chains into each kernel type + finished-panel broadcast edges.
  Edge<Int1, Tile> to_a("to_a");
  Edge<Int2, Tile> to_b("to_b");
  Edge<Int2, Tile> to_c("to_c");
  Edge<Int3, Tile> to_d("to_d");
  Edge<Int2, Tile> a_to_b("a_to_b");
  Edge<Int2, Tile> a_to_c("a_to_c");
  Edge<Int3, Tile> b_to_d("b_to_d");
  Edge<Int3, Tile> c_to_d("c_to_d");
  Edge<Int2, Tile> result("result");

  using Out5 = std::tuple<Out<Int1, Tile>, Out<Int2, Tile>, Out<Int2, Tile>,
                          Out<Int3, Tile>, Out<Int2, Tile>>;

  /* A(k): finish the diagonal tile, broadcast it to its row (B) and column
     (C), and route the tile itself into round k+1. */
  auto a_fn = [nt](const Int1& key, Tile& w,
                   std::tuple<Out<Int1, Tile>, Out<Int2, Tile>, Out<Int2, Tile>,
                              Out<Int3, Tile>, Out<Int2, Tile>, Out<Int2, Tile>,
                              Out<Int2, Tile>>& out) {
    const int k = key.i;
    graph::fw_a(w);
    std::vector<Int2> row_ids, col_ids;
    for (int j = 0; j < nt; ++j) {
      if (j == k) continue;
      row_ids.push_back(Int2{j, k});  // B(j,k)
      col_ids.push_back(Int2{j, k});  // C(i=j,k)
    }
    ttg::broadcast<5>(row_ids, w, out);  // a_to_b
    ttg::broadcast<6>(col_ids, w, out);  // a_to_c
    // Tile (k,k) at round k+1 is an interior (D) tile until round nt.
    auto sub = std::tie(std::get<0>(out), std::get<1>(out), std::get<2>(out),
                        std::get<3>(out), std::get<4>(out));
    route_tile(k, k, k + 1, nt, std::move(w), sub);
  };

  /* B(j,k): row-panel tile (k,j); broadcast the finished panel down its
     column of D tasks and route the tile to round k+1. */
  auto b_fn = [nt](const Int2& key, Tile& a_kk, Tile& w,
                   std::tuple<Out<Int1, Tile>, Out<Int2, Tile>, Out<Int2, Tile>,
                              Out<Int3, Tile>, Out<Int2, Tile>, Out<Int3, Tile>>& out) {
    const auto [j, k] = key;
    graph::fw_b(w, a_kk);
    std::vector<Int3> d_ids;
    for (int i = 0; i < nt; ++i)
      if (i != k) d_ids.push_back(Int3{i, j, k});
    ttg::broadcast<5>(d_ids, w, out);  // b_to_d
    auto sub = std::tie(std::get<0>(out), std::get<1>(out), std::get<2>(out),
                        std::get<3>(out), std::get<4>(out));
    route_tile(k, j, k + 1, nt, std::move(w), sub);
  };

  /* C(i,k): column-panel tile (i,k); broadcast along its row of D tasks. */
  auto c_fn = [nt](const Int2& key, Tile& a_kk, Tile& w,
                   std::tuple<Out<Int1, Tile>, Out<Int2, Tile>, Out<Int2, Tile>,
                              Out<Int3, Tile>, Out<Int2, Tile>, Out<Int3, Tile>>& out) {
    const auto [i, k] = key;
    graph::fw_c(w, a_kk);
    std::vector<Int3> d_ids;
    for (int j = 0; j < nt; ++j)
      if (j != k) d_ids.push_back(Int3{i, j, k});
    ttg::broadcast<5>(d_ids, w, out);  // c_to_d
    auto sub = std::tie(std::get<0>(out), std::get<1>(out), std::get<2>(out),
                        std::get<3>(out), std::get<4>(out));
    route_tile(i, k, k + 1, nt, std::move(w), sub);
  };

  /* D(i,j,k): interior update, then route to round k+1. */
  auto d_fn = [nt](const Int3& key, Tile& w_kj, Tile& w_ik, Tile& w, Out5& out) {
    const auto [i, j, k] = key;
    graph::fw_d(w, w_ik, w_kj);
    route_tile(i, j, k + 1, nt, std::move(w), out);
  };

  auto a_tt = make_tt(world, a_fn, edges(to_a),
                      edges(to_a, to_b, to_c, to_d, result, a_to_b, a_to_c), "FW_A");
  auto b_tt = make_tt(world, b_fn, edges(a_to_b, to_b),
                      edges(to_a, to_b, to_c, to_d, result, b_to_d), "FW_B");
  auto c_tt = make_tt(world, c_fn, edges(a_to_c, to_c),
                      edges(to_a, to_b, to_c, to_d, result, c_to_d), "FW_C");
  auto d_tt = make_tt(world, d_fn, edges(b_to_d, c_to_d, to_d),
                      edges(to_a, to_b, to_c, to_d, result), "FW_D");

  // Earlier rounds first; panels ahead of interior updates.
  a_tt->set_priomap([nt](const Int1& k) { return 3 * (nt - k.i); });
  b_tt->set_priomap([nt](const Int2& k) { return 2 * (nt - k.j); });
  c_tt->set_priomap([nt](const Int2& k) { return 2 * (nt - k.j); });
  d_tt->set_priomap([nt](const Int3& k) { return nt - k.k; });

  a_tt->set_costmap([&machine](const Int1&, const Tile& w) {
    return graph::fw_time(machine, w.rows(), w.cols(), w.rows());
  });
  b_tt->set_costmap([&machine](const Int2&, const Tile& a, const Tile& w) {
    return graph::fw_time(machine, w.rows(), w.cols(), a.rows());
  });
  c_tt->set_costmap([&machine](const Int2&, const Tile& a, const Tile& w) {
    return graph::fw_time(machine, w.rows(), w.cols(), a.rows());
  });
  d_tt->set_costmap(
      [&machine](const Int3&, const Tile& r, const Tile& c, const Tile& w) {
        (void)c;
        return graph::fw_time(machine, w.rows(), w.cols(), r.rows());
      });

  auto result_tt = make_sink(
      world, result, [this](const Int2& key, Tile& t) { sink_(key, t); }, "RESULT");

  /* INITIATOR: route every tile into round 0 on its owner. */
  auto init_fn = [this, nt](const Int2& key, Out5& out) {
    Tile t = src_(key.i, key.j);
    route_tile(key.i, key.j, 0, nt, std::move(t), out);
  };
  auto init_tt = make_tt<Int2>(world, init_fn, std::tuple<>{},
                               edges(to_a, to_b, to_c, to_d, result), "INITIATOR");

  /* Process maps: each kernel runs where the tile it updates lives. */
  place_ = [a = a_tt.get(), b = b_tt.get(), c = c_tt.get(), d = d_tt.get(),
            res = result_tt.get(), init = init_tt.get()](const Keymap2D& dist) {
    a->set_keymap([dist](const Int1& k) { return dist.owner(k.i, k.i); });
    b->set_keymap([dist](const Int2& k) { return dist.owner(k.j, k.i); });
    c->set_keymap([dist](const Int2& k) { return dist.owner(k.i, k.j); });
    d->set_keymap([dist](const Int3& k) { return dist.owner(k.i, k.j); });
    res->set_keymap([dist](const Int2& k) { return dist.owner(k.i, k.j); });
    init->set_keymap([dist](const Int2& k) { return dist.owner(k.i, k.j); });
  };
  place(opt.keymap);
  initiate_ = [init = init_tt.get()](const Int2& key) { init->invoke(key); };

  std::unique_ptr<rt::TTBase> all[] = {std::move(a_tt),      std::move(b_tt),
                                       std::move(c_tt),      std::move(d_tt),
                                       std::move(result_tt), std::move(init_tt)};
  for (auto& tt : all) {
    make_graph_executable(*tt);
    tts_.push_back(std::move(tt));
  }
}

void Graph::inject(TileSource src) {
  src_ = std::move(src);
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j < nt_; ++j) initiate_(Int2{i, j});
}

void Graph::place(KeymapKind kind) {
  place_(make_keymap2d(kind, world_.nranks(), world_.config().ranks_per_node));
}

std::uint64_t Graph::tasks_executed() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < 4; ++i) n += tts_[i]->tasks_executed();  // FW_A..FW_D
  return n;
}

std::vector<rt::TTBase*> Graph::tts() const {
  std::vector<rt::TTBase*> v;
  for (const auto& tt : tts_) v.push_back(tt.get());
  return v;
}

Result run(rt::World& world, const TiledMatrix& w0, const Options& opt) {
  TiledMatrix w_out;
  if (opt.collect) w_out = TiledMatrix(w0.n(), w0.block(), /*allocate=*/false);
  Graph graph(world, w0.n(), w0.block(), opt, [&](const Int2& key, Tile& t) {
    if (opt.collect) w_out.tile(key.i, key.j) = std::move(t);
  });

  const double t0 = world.engine().now();
  graph.inject([&w0](int i, int j) { return w0.tile(i, j); });
  const double t1 = world.fence();
  TTG_CHECK(world.unfinished() == 0, "FW graph did not quiesce");

  Result res;
  res.makespan = t1 - t0;
  res.gflops = op_count(w0.n()) / res.makespan / 1e9;
  res.tasks = graph.tasks_executed();
  res.matrix = std::move(w_out);
  return res;
}

}  // namespace ttg::apps::fw
