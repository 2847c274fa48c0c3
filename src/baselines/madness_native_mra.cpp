#include "baselines/madness_native_mra.hpp"

#include <cmath>
#include <unordered_map>

#include "ttg/ttg.hpp"

namespace ttg::baselines {

using ttg::mra::Coeffs;
using ttg::mra::MraContext;
using ttg::mra::TreeKey;

namespace {

/// Child slice message for the compress step.
struct Slice {
  int child = 0;
  Coeffs s;
  double dnorm2 = 0.0;
  std::vector<std::pair<int, std::vector<double>>> more;  // reducer merges here

  [[nodiscard]] std::size_t wire_bytes() const { return s.wire_bytes() + 16; }
  template <typename Ar>
  void serialize(Ar& ar) {
    ar& child& s& dnorm2& more;
  }
};

}  // namespace

NativeMraResult run_native_mra(rt::World& world, const MraContext& ctx,
                               const NativeMraOptions& opt) {
  TTG_REQUIRE(!ctx.projection_cache_enabled() || !world.engine().threaded(),
              "the MRA projection cache has no lock: with the cache on, run the engine "
              "on one thread (engine_threads = 1)");
  const auto& machine = world.machine();
  const auto& ts = ctx.twoscale();
  const int nranks = world.nranks();
  auto keymap = [nranks, rl = opt.rand_level](const TreeKey& key) {
    return static_cast<int>(key.ancestor_at(rl).hash() %
                            static_cast<std::uint64_t>(nranks));
  };

  NativeMraResult res;
  const double t0 = world.engine().now();

  /* Explicit per-rank tree storage — the in-memory data structure that the
     native implementation completes (and re-allocates) at every step. */
  using LeafStore = std::unordered_map<TreeKey, Coeffs, KeyHash<TreeKey>>;
  using DStore =
      std::unordered_map<TreeKey, std::array<Coeffs, 8>, KeyHash<TreeKey>>;
  std::vector<LeafStore> leaves(static_cast<std::size_t>(nranks));
  std::vector<DStore> dstore(static_cast<std::size_t>(nranks));
  std::vector<std::unordered_map<int, Coeffs>> roots(
      static_cast<std::size_t>(nranks));

  const std::size_t node_bytes =
      static_cast<std::size_t>(ts.coeffs_per_node()) * sizeof(double);

  /* ---------------- step 1: projection ---------------- */
  {
    Edge<TreeKey, Void> ctl("proj_ctl");
    auto fn = [&](const TreeKey& key, Void&, std::tuple<Out<TreeKey, Void>>& out) {
      auto np = ctx.project_node(key);
      ++res.tree_nodes;
      const bool refine = (std::sqrt(np.dnorm2) > opt.tol || ctx.must_refine(key)) &&
                          key.level < opt.max_level;
      if (!refine) {
        leaves[static_cast<std::size_t>(keymap(key))][key] = std::move(np.parent);
      } else {
        for (int c = 0; c < 8; ++c) ttg::sendk<0>(key.child(c), out);
      }
    };
    auto tt = make_tt(world, fn, edges(ctl), edges(ctl), "NativeProject");
    tt->set_keymap(keymap);
    tt->set_costmap([&](const TreeKey&, const Void&) {
      return machine.flops_time(ctx.project_flops(), 0.5);
    });
    make_graph_executable(*tt);
    for (int fid = 0; fid < ctx.nfunctions(); ++fid)
      tt->invoke(TreeKey{fid, 0, 0, 0, 0}, Void{});
    world.fence();  // explicit barrier after the step
  }

  // Re-allocation of the completed tree before the next step.
  for (int r = 0; r < nranks; ++r) {
    const std::size_t nodes = leaves[static_cast<std::size_t>(r)].size();
    world.scheduler(r).submit(
        {.cost = machine.copy_time(node_bytes * nodes), .body = []() {}});
  }
  world.fence();

  /* ---------------- step 2: compression ---------------- */
  {
    Edge<TreeKey, Slice> up("compress_up");
    auto fn = [&](const TreeKey& key, Slice& batch,
                  std::tuple<Out<TreeKey, Slice>>& out) {
      std::array<std::vector<double>, 8> child_s;
      child_s[static_cast<std::size_t>(batch.child)] = std::move(batch.s.v);
      for (auto& [c, v] : batch.more) child_s[static_cast<std::size_t>(c)] =
          std::move(v);
      std::vector<double> parent_s;
      auto& d = dstore[static_cast<std::size_t>(keymap(key))][key];
      double own_d2 = 0.0;
      if (opt.light_math) {
        // All 8 child blocks are present; reuse one to keep sizes.
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
      Coeffs s;
      s.v = std::move(parent_s);
      const double up_d2 = batch.dnorm2 + own_d2;
      if (key.level == 0) {
        res.norm2_compressed[key.fid] += up_d2 + s.norm2();
        roots[static_cast<std::size_t>(keymap(key))][key.fid] = std::move(s);
      } else {
        Slice next;
        next.child = key.child_index();
        next.s = std::move(s);
        next.dnorm2 = up_d2;
        ttg::send<0>(key.parent(), std::move(next), out);
      }
    };
    auto tt = make_tt(world, fn, edges(up), edges(up), "NativeCompress");
    tt->set_keymap(keymap);
    tt->set_input_reducer<0>(
        [](Slice& acc, Slice&& next) {
          acc.more.emplace_back(next.child, std::move(next.s.v));
          for (auto& m : next.more) acc.more.push_back(std::move(m));
          acc.dnorm2 += next.dnorm2;
        },
        /*size=*/8);
    tt->set_costmap([&](const TreeKey&, const Slice&) {
      return machine.flops_time(ctx.compress_flops(), 0.5);
    });
    make_graph_executable(*tt);
    // Inject the stored leaves (single-node trees are already compressed).
    for (int r = 0; r < nranks; ++r) {
      for (auto& [key, s] : leaves[static_cast<std::size_t>(r)]) {
        if (key.level == 0) {
          res.norm2_compressed[key.fid] += s.norm2();
          roots[static_cast<std::size_t>(r)][key.fid] = s;
          continue;
        }
        Slice sl;
        sl.child = key.child_index();
        sl.s = s;
        world.run_as(r, [&]() {
          tt->out<0>().send(key.parent(), std::move(sl));
        });
      }
    }
    world.fence();
  }

  for (int r = 0; r < nranks; ++r) {
    const std::size_t nodes = 8 * dstore[static_cast<std::size_t>(r)].size();
    world.scheduler(r).submit(
        {.cost = machine.copy_time(node_bytes * nodes), .body = []() {}});
  }
  world.fence();

  /* ---------------- step 3: reconstruction ---------------- */
  {
    Edge<TreeKey, Coeffs> down("recon_down");
    auto fn = [&](const TreeKey& key, Coeffs& s,
                  std::tuple<Out<TreeKey, Coeffs>>& out) {
      auto& store = dstore[static_cast<std::size_t>(keymap(key))];
      auto it = store.find(key);
      if (it == store.end()) {
        res.norm2_reconstructed[key.fid] += s.norm2();
        return;
      }
      std::array<std::vector<double>, 8> child;
      if (opt.light_math) {
        child.fill(s.v);
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
    auto tt = make_tt(world, fn, edges(down), edges(down), "NativeReconstruct");
    tt->set_keymap(keymap);
    tt->set_costmap([&](const TreeKey&, const Coeffs&) {
      return machine.flops_time(ctx.reconstruct_flops(), 0.5);
    });
    make_graph_executable(*tt);
    for (int r = 0; r < nranks; ++r) {
      for (auto& [fid, s] : roots[static_cast<std::size_t>(r)]) {
        world.run_as(r, [&]() {
          tt->out<0>().send(TreeKey{fid, 0, 0, 0, 0}, Coeffs(s));
        });
      }
    }
    world.fence();
  }

  /* ---------------- step 4: norm (allreduce-style epilogue) ---------------- */
  {
    const double hops =
        nranks > 1 ? 2.0 * std::ceil(std::log2(static_cast<double>(nranks))) : 0.0;
    for (int r = 0; r < nranks; ++r)
      world.scheduler(r).submit({.cost = hops * machine.net_latency, .body = []() {}});
    world.fence();
  }

  res.makespan = world.engine().now() - t0;
  return res;
}

}  // namespace ttg::baselines
