#include "apps/mra/mra_ttg.hpp"

#include <cmath>
#include <unordered_map>

#include "ttg/ttg.hpp"

namespace ttg::apps::mra {

using ttg::mra::Coeffs;
using ttg::mra::MraContext;
using ttg::mra::TreeKey;

// CompressBatch and RootInfo live in the header (splitmd specialization).

Result run(rt::World& world, const MraContext& ctx, const Options& opt) {
  TTG_REQUIRE(!ctx.projection_cache_enabled() || !world.engine().threaded(),
              "the MRA projection cache has no lock: with the cache on, run the engine "
              "on one thread (engine_threads = 1)");
  const auto& machine = world.machine();
  const auto& ts = ctx.twoscale();
  const int nranks = world.nranks();

  /* Overdecomposition keymap: subtrees rooted at rand_level are scattered
     randomly (by hash); every node deeper than that stays with its
     ancestor ("a task ID map that randomly distributes function tree nodes
     and their children across processes at some target level"). */
  const int rpn = world.config().ranks_per_node;
  const bool node_aware = opt.keymap == KeymapKind::NodeAware && rpn > 1 &&
                          nranks % rpn == 0;
  auto keymap = [nranks, rl = opt.rand_level, node_aware, rpn](const TreeKey& key) {
    if (node_aware) {
      // Subtrees rooted at rand_level share a node; their 2^d child
      // subtrees spread over the node's ranks.
      return node_aware_owner(key.ancestor_at(rl).hash(),
                              key.ancestor_at(rl + 1).hash(), nranks, rpn);
    }
    return static_cast<int>(key.ancestor_at(rl).hash() %
                            static_cast<std::uint64_t>(nranks));
  };

  /* Per-rank wavelet-coefficient store written by compress, read by
     reconstruct (both run on owner(key), so access is rank-local). */
  using DStore = std::unordered_map<TreeKey, std::array<Coeffs, 8>,
                                    KeyHash<TreeKey>>;
  std::vector<DStore> dstore(static_cast<std::size_t>(nranks));

  Result res;

  Edge<TreeKey, Void> project_ctl("project_ctl");
  Edge<TreeKey, CompressBatch> compress_in("compress_in");
  Edge<TreeKey, Coeffs> recon_in("recon_in");
  Edge<Int1, RootInfo> root_out("root_out");
  Edge<TreeKey, Coeffs> leaf_out("leaf_out");

  /* ---- PROJECT: adaptive refinement. Computes the 8 child blocks by
     quadrature; if the wavelet residual is below tol the node is a leaf
     and its coefficients flow into the compress stage, else the task
     spawns its children (data-dependent control flow). ---- */
  auto project_fn = [&ctx, &res, opt](
                        const TreeKey& key, Void&,
                        std::tuple<Out<TreeKey, Void>, Out<TreeKey, CompressBatch>,
                                   Out<Int1, RootInfo>, Out<TreeKey, Coeffs>>& out) {
    auto np = ctx.project_node(key);
    ++res.tree_nodes;
    const bool refine = (std::sqrt(np.dnorm2) > opt.tol || ctx.must_refine(key)) &&
                        key.level < opt.max_level;
    if (!refine) {
      Coeffs s = std::move(np.parent);
      if (key.level == 0) {
        // Degenerate single-node tree: it is its own compressed form.
        ttg::send<2>(Int1{key.fid}, RootInfo{key.fid, s.norm2()}, out);
        ttg::send<3>(key, std::move(s), out);  // reconstructed leaf
      } else {
        CompressBatch b;
        b.items.push_back({key.child_index(), std::move(s)});
        ttg::send<1>(key.parent(), std::move(b), out);
      }
    } else {
      for (int c = 0; c < 8; ++c) ttg::sendk<0>(key.child(c), out);
    }
  };
  auto project_tt = make_tt(world, project_fn, edges(project_ctl),
                            edges(project_ctl, compress_in, root_out, leaf_out),
                            "Project");

  /* ---- COMPRESS: 8-way streaming terminal; filter the child blocks,
     store the wavelet residuals, send the scaling part up. At the root,
     emit the norm and kick off reconstruction — no barrier between the
     transforms. ---- */
  auto compress_fn = [&ts, &dstore, &res, keymap, light = opt.light_math](
                         const TreeKey& key, CompressBatch& batch,
                         std::tuple<Out<TreeKey, CompressBatch>, Out<Int1, RootInfo>,
                                    Out<TreeKey, Coeffs>>& out) {
    TTG_CHECK(batch.items.size() == 8, "compress expects 2^d children");
    std::array<std::vector<double>, 8> child_s;
    for (auto& it : batch.items) child_s[static_cast<std::size_t>(it.child)] =
        std::move(it.s.v);
    std::vector<double> parent_s;
    auto& d = dstore[static_cast<std::size_t>(keymap(key))][key];
    double own_d2 = 0.0;
    if (light) {
      // Keep the data sizes and the interior-node marker; skip arithmetic.
      parent_s = std::move(child_s[0]);
      for (int c = 0; c < 8; ++c)
        d[static_cast<std::size_t>(c)].v.resize(parent_s.size());
    } else {
      parent_s = ts.filter(child_s);
      const auto proj = ts.unfilter_all(parent_s);
      for (std::size_t c = 0; c < 8; ++c) {
        auto& dc = d[c];
        dc.v.resize(proj[c].size());
        for (std::size_t i = 0; i < proj[c].size(); ++i) {
          dc.v[i] = child_s[c][i] - proj[c][i];
          own_d2 += dc.v[i] * dc.v[i];
        }
      }
    }
    ++res.tree_nodes;
    Coeffs s;
    s.v = std::move(parent_s);
    const double up_d2 = batch.dnorm2 + own_d2;
    if (key.level == 0) {
      ttg::send<1>(Int1{key.fid}, RootInfo{key.fid, up_d2 + s.norm2()}, out);
      ttg::send<2>(key, std::move(s), out);  // start reconstruction
    } else {
      CompressBatch b;
      b.items.push_back({key.child_index(), std::move(s)});
      b.dnorm2 = up_d2;
      ttg::send<0>(key.parent(), std::move(b), out);
    }
  };
  auto compress_tt = make_tt(world, compress_fn, edges(compress_in),
                             edges(compress_in, root_out, recon_in), "Compress");
  // Listing 3: exactly 2^d messages per task on the streaming terminal.
  compress_tt->set_input_reducer<0>(
      [](CompressBatch& acc, CompressBatch&& next) {
        for (auto& it : next.items) acc.items.push_back(std::move(it));
        acc.dnorm2 += next.dnorm2;
      },
      /*size=*/8);

  /* ---- RECONSTRUCT: walk down; interior nodes (those with stored
     wavelet coefficients) regenerate their children, leaves emit final
     scaling coefficients. ---- */
  auto recon_fn = [&ts, &dstore, keymap, light = opt.light_math](
                      const TreeKey& key, Coeffs& s,
                      std::tuple<Out<TreeKey, Coeffs>, Out<TreeKey, Coeffs>>& out) {
    auto& store = dstore[static_cast<std::size_t>(keymap(key))];
    auto it = store.find(key);
    if (it == store.end()) {
      ttg::send<1>(key, std::move(s), out);  // leaf
      return;
    }
    std::array<std::vector<double>, 8> child;
    if (light) {
      child.fill(s.v);  // pass-through of the same-size block
    } else {
      child = ts.unfilter_all(s.v);
      for (std::size_t c = 0; c < 8; ++c)
        for (std::size_t i = 0; i < child[c].size(); ++i) child[c][i] += it->second[c].v[i];
    }
    for (int c = 0; c < 8; ++c) {
      Coeffs cs;
      cs.v = std::move(child[static_cast<std::size_t>(c)]);
      ttg::send<0>(key.child(c), std::move(cs), out);
    }
  };
  auto recon_tt = make_tt(world, recon_fn, edges(recon_in),
                          edges(recon_in, leaf_out), "Reconstruct");

  /* ---- sinks: compressed-form norm and reconstructed-leaf norm ---- */
  auto root_tt = make_sink(world, root_out, [&res](const Int1& k, RootInfo& r) {
    (void)k;
    res.norm2_compressed[r.fid] += r.norm2;
  });
  auto leaf_tt = make_sink(world, leaf_out, [&res](const TreeKey& k, Coeffs& s) {
    res.norm2_reconstructed[k.fid] += s.norm2();
  });

  project_tt->set_keymap(keymap);
  compress_tt->set_keymap(keymap);
  recon_tt->set_keymap(keymap);
  root_tt->set_keymap([](const Int1&) { return 0; });
  leaf_tt->set_keymap(keymap);

  project_tt->set_costmap([&ctx, &machine](const TreeKey&, const Void&) {
    return machine.flops_time(ctx.project_flops(), 0.5);
  });
  compress_tt->set_costmap([&ctx, &machine](const TreeKey&, const CompressBatch&) {
    return machine.flops_time(ctx.compress_flops(), 0.5);
  });
  recon_tt->set_costmap([&ctx, &machine](const TreeKey&, const Coeffs&) {
    return machine.flops_time(ctx.reconstruct_flops(), 0.5);
  });
  // Depth-first priorities keep the working set small.
  project_tt->set_priomap([](const TreeKey& k) { return k.level; });

  make_graph_executable(*project_tt);
  make_graph_executable(*compress_tt);
  make_graph_executable(*recon_tt);
  make_graph_executable(*root_tt);
  make_graph_executable(*leaf_tt);

  const double t0 = world.engine().now();
  for (int fid = 0; fid < ctx.nfunctions(); ++fid)
    project_tt->invoke(TreeKey{fid, 0, 0, 0, 0}, Void{});
  const double t1 = world.fence();
  TTG_CHECK(world.unfinished() == 0, "MRA graph did not quiesce");

  res.makespan = t1 - t0;
  res.tasks = project_tt->tasks_executed() + compress_tt->tasks_executed() +
              recon_tt->tasks_executed();
  return res;
}

}  // namespace ttg::apps::mra
