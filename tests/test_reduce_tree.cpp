// Tests of tree-routed streaming reductions: the topology-aware tree
// layout (build_tree), the adaptive arity hook, the
// count-then-collect reduction protocol (counts with set_argstream_size,
// gate-triggered finalize, owner in-degree, partial conservation),
// degeneracy to the flat path, determinism of non-commutative reducers,
// fault recovery of dropped partials on both backends, and bit-identical
// application numerics (bspmm C tiles, POTRF) across routing modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "apps/bspmm/bspmm_ttg.hpp"
#include "apps/cholesky/cholesky_ttg.hpp"
#include "linalg/kernels.hpp"
#include "linalg/tile.hpp"
#include "net/network.hpp"
#include "runtime/collective.hpp"
#include "sparse/yukawa_gen.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;
namespace coll = rt::collective;

WorldConfig cfg(int nranks, BackendKind b = BackendKind::Parsec) {
  WorldConfig c;
  c.machine = sim::hawk();
  c.machine.cores_per_node = 2;
  c.nranks = nranks;
  c.backend = b;
  return c;
}

// ---- topology + explicit tree shape: pure functions ----

TEST(Topology, NodeMappingFollowsBlockPlacement) {
  coll::Topology one{1};
  EXPECT_EQ(one.node_of(5), 5);
  EXPECT_FALSE(one.same_node(0, 1));  // every rank its own node
  coll::Topology quad{4};
  EXPECT_EQ(quad.node_of(0), 0);
  EXPECT_EQ(quad.node_of(3), 0);
  EXPECT_EQ(quad.node_of(4), 1);
  EXPECT_TRUE(quad.same_node(4, 7));
  EXPECT_FALSE(quad.same_node(3, 4));
}

TEST(TreeLayout, TrivialTopologyMatchesTheHeapShape) {
  // With every rank on its own node, build_tree must reproduce the pure
  // position heap: the children of p are k*p+1 .. k*p+k, clipped to M.
  const auto heap_children = [](int p, int nmembers, int arity) {
    std::vector<int> out;
    for (int c = p * arity + 1; c <= p * arity + arity && c <= nmembers; ++c) out.push_back(c);
    return out;
  };
  std::vector<int> members;
  for (int r = 1; r <= 15; ++r) members.push_back(r);
  for (const int arity : {2, 4}) {
    const auto shape = coll::build_tree(0, members, arity, coll::Topology{1});
    ASSERT_EQ(shape.nmembers(), 15);
    for (int p = 0; p <= 15; ++p) {
      EXPECT_EQ(shape.ranks[static_cast<std::size_t>(p)], p);  // layout order = rank order
      EXPECT_EQ(shape.children[static_cast<std::size_t>(p)], heap_children(p, 15, arity))
          << "pos=" << p << " arity=" << arity;
      for (int c : shape.children[static_cast<std::size_t>(p)])
        EXPECT_EQ(shape.parent[static_cast<std::size_t>(c)], p);
    }
    EXPECT_EQ(shape.parent[0], -1);
  }
}

TEST(TreeLayout, ChildSubtreesPartitionTheMembers) {
  std::vector<int> members;
  for (int r = 1; r <= 22; ++r) members.push_back(r);
  for (const int rpn : {1, 4}) {
    const auto shape = coll::build_tree(0, members, 2, coll::Topology{rpn});
    std::vector<int> seen;
    for (int c : shape.children[0]) {
      const auto sub = coll::shape_subtree(shape, c);
      seen.insert(seen.end(), sub.begin(), sub.end());
    }
    std::sort(seen.begin(), seen.end());
    std::vector<int> all;
    for (int p = 1; p <= 22; ++p) all.push_back(p);
    EXPECT_EQ(seen, all) << "rpn=" << rpn;
  }
}

TEST(TreeLayout, EachNodeGroupHasExactlyOneUplink) {
  // 16 ranks, 4 per node, rooted at rank 0: the layout packs each node's
  // ranks into one subtree, so exactly one tree edge enters each of the 3
  // non-root node groups — every other edge is intra-node.
  std::vector<int> members;
  for (int r = 1; r <= 15; ++r) members.push_back(r);
  const coll::Topology topo{4};
  const auto shape = coll::build_tree(0, members, 4, topo);
  int inter = 0;
  std::set<int> entered;
  for (int p = 1; p <= shape.nmembers(); ++p) {
    const int self = shape.ranks[static_cast<std::size_t>(p)];
    const int par = shape.ranks[static_cast<std::size_t>(
        shape.parent[static_cast<std::size_t>(p)])];
    if (!topo.same_node(self, par)) {
      ++inter;
      EXPECT_TRUE(entered.insert(topo.node_of(self)).second)
          << "node " << topo.node_of(self) << " entered twice";
    }
  }
  EXPECT_EQ(inter, 3);
  // Every rank of a node sits inside the subtree entered by its uplink:
  // once a route leaves a node it never returns.
  for (int p = 1; p <= shape.nmembers(); ++p) {
    const int node = topo.node_of(shape.ranks[static_cast<std::size_t>(p)]);
    const auto sub = coll::shape_subtree(shape, p);
    const int par_node = topo.node_of(shape.ranks[static_cast<std::size_t>(
        shape.parent[static_cast<std::size_t>(p)])]);
    if (par_node == node) continue;
    for (int q = 1; q <= shape.nmembers(); ++q) {
      if (topo.node_of(shape.ranks[static_cast<std::size_t>(q)]) != node) continue;
      EXPECT_TRUE(std::find(sub.begin(), sub.end(), q) != sub.end())
          << "rank " << shape.ranks[static_cast<std::size_t>(q)]
          << " outside its node's subtree";
    }
  }
}

TEST(PickArity, AdaptiveHookScalesWithFanAndPayload) {
  rt::CollectivePolicy p;
  p.tree_arity = 4;
  p.reduce_arity = 4;
  // Off (both backends' default): the static arity, untouched.
  EXPECT_EQ(coll::pick_arity(p, /*reduce=*/true, 1000, 1 << 20), 4);
  p.adaptive = true;
  // Bandwidth-bound payloads deepen to binary for hop pipelining.
  EXPECT_EQ(coll::pick_arity(p, true, 63, 256 * 1024), 2);
  EXPECT_EQ(coll::pick_arity(p, false, 63, 1 << 20), 2);
  // Tiny coalescable payloads with a wide fan flatten (double the arity).
  EXPECT_EQ(coll::pick_arity(p, true, 63, 64), 8);
  // In between: the static arity.
  EXPECT_EQ(coll::pick_arity(p, true, 63, 64 * 1024), 4);
  EXPECT_EQ(coll::pick_arity(p, true, 8, 64), 4);  // fan below 8x base
  // A flat policy never grows a tree, adaptive or not.
  p.reduce_arity = 0;
  EXPECT_EQ(coll::pick_arity(p, true, 1000, 64), 0);
}

// ---- policy defaults and overrides ----

TEST(ReducePolicy, BackendDefaultsAndWorldConfigOverride) {
  World wp(cfg(2, BackendKind::Parsec));
  EXPECT_EQ(wp.comm().collective().reduce_arity, 4);
  EXPECT_FALSE(wp.comm().collective().adaptive);
  World wm(cfg(2, BackendKind::Madness));
  EXPECT_EQ(wm.comm().collective().reduce_arity, 0);  // MADNESS reduces flat

  auto c = cfg(2, BackendKind::Madness);
  c.reduce_tree_arity = 2;
  c.collective_adaptive = 1;
  World w(c);
  EXPECT_EQ(w.comm().collective().reduce_arity, 2);
  EXPECT_TRUE(w.comm().collective().adaptive);

  auto cp = cfg(2, BackendKind::Parsec);
  cp.reduce_tree_arity = 0;  // force flat reductions on PaRSEC
  World w2(cp);
  EXPECT_EQ(w2.comm().collective().reduce_arity, 0);
}

// ---- the count-then-collect protocol, end to end ----

struct ReduceResult {
  rt::CommStats cs;
  double makespan = 0.0;
  double owner_recv_busy = 0.0;
  std::uint64_t owner_reducer_calls = 0;
  std::uint64_t live_handles = 0;
  long long sum = 0;  ///< reduced value delivered to the sink
  int fires = 0;      ///< sink invocations (must be 1 per key)
};

/// Every rank streams `per_rank` integers into one key owned by rank 0;
/// completion is declared via a static reducer size.
ReduceResult reduce_run(WorldConfig c, int per_rank = 1) {
  World w(c);
  rt::World* wp = &w;
  const int nranks = c.nranks;
  ReduceResult r;
  Edge<Int1, Void> start("start");
  Edge<Int1, long long> stream("stream"), out_e("out");
  auto prod = make_tt(w,
                      [per_rank](const Int1& k, Void&,
                                 std::tuple<Out<Int1, long long>>& out) {
                        for (int i = 0; i < per_rank; ++i)
                          ttg::send<0>(Int1{0}, static_cast<long long>(k.i + 1), out);
                      },
                      edges(start), edges(stream), "produce");
  prod->set_keymap([nranks](const Int1& k) { return k.i % nranks; });
  auto red = make_tt(w,
                     [](const Int1& k, long long& sum,
                        std::tuple<Out<Int1, long long>>& out) {
                       ttg::send<0>(k, sum, out);
                     },
                     edges(stream), edges(out_e), "reduce");
  red->set_input_reducer<0>(
      [wp, &r](long long& acc, long long&& v) {
        if (wp->rank() == 0) r.owner_reducer_calls += 1;
        acc += v;
      },
      nranks * per_rank);
  red->set_keymap([](const Int1&) { return 0; });
  auto sink = make_sink(w, out_e, [&](const Int1&, long long& v) {
    r.sum = v;
    r.fires += 1;
  });
  sink->set_keymap([](const Int1&) { return 0; });
  make_graph_executable(*prod);
  make_graph_executable(*red);
  make_graph_executable(*sink);
  for (int rank = 0; rank < nranks; ++rank) prod->invoke(Int1{rank}, Void{});
  w.fence();
  r.cs = w.comm().stats();
  r.makespan = w.engine().now();
  r.owner_recv_busy = w.network().nic_recv_busy(0);
  r.live_handles = w.data_tracker().live_handles();
  return r;
}

TEST(TreeReduce, CombinesAtInteriorRanksAndFiresOnce) {
  // 13 ranks, one contribution each, arity 4: the owner folds its own
  // value plus <= 4 combined partials; every non-owner rank forwards
  // exactly one partial, each absorbed exactly once (conservation).
  auto c = cfg(13);
  c.reduce_tree_arity = 4;
  const auto r = reduce_run(c);
  EXPECT_EQ(r.fires, 1);
  EXPECT_EQ(r.sum, 13LL * 14 / 2);
  EXPECT_EQ(r.cs.reduce_forwards, 12u);
  EXPECT_EQ(r.cs.reduce_combines, 12u);
  EXPECT_LE(r.owner_reducer_calls, 4u);
  EXPECT_EQ(r.live_handles, 0u);
}

TEST(TreeReduce, OwnerInDegreeDropsToArity) {
  // (The recv-NIC *busy time* unload is payload-bound and asserted by
  // bench/ablation_reduce on 512^2 tiles; 8-byte streams are latency-bound
  // so only the in-degree story is meaningful here.)
  auto flat = cfg(16);
  flat.reduce_tree_arity = 0;
  auto tree = cfg(16);
  tree.reduce_tree_arity = 4;
  const auto rf = reduce_run(flat, /*per_rank=*/2);
  const auto rt_ = reduce_run(tree, /*per_rank=*/2);
  EXPECT_EQ(rf.sum, rt_.sum);
  // Flat: all 30 remote contributions hit the owner's reducer; tree: the
  // owner's second local value plus at most arity combined partials.
  EXPECT_EQ(rf.owner_reducer_calls, 31u);
  EXPECT_LE(rt_.owner_reducer_calls, 5u);
  EXPECT_EQ(rf.cs.reduce_forwards, 0u);
  EXPECT_EQ(rt_.cs.reduce_forwards, 15u);  // one combined partial per rank
}

TEST(TreeReduce, SmallWorldDegeneratesToFlatBitIdentically) {
  // (nranks - 1) == arity: the tree would be a star, so the runtime keeps
  // the flat path and every observable (makespan included) matches.
  auto flat = cfg(5);
  flat.reduce_tree_arity = 0;
  auto tree = cfg(5);
  tree.reduce_tree_arity = 4;
  const auto rf = reduce_run(flat);
  const auto rt_ = reduce_run(tree);
  EXPECT_EQ(rf.sum, rt_.sum);
  EXPECT_EQ(rt_.cs.reduce_forwards, 0u);
  EXPECT_EQ(rt_.cs.reduce_combines, 0u);
  EXPECT_EQ(rf.cs.messages, rt_.cs.messages);
  EXPECT_EQ(rf.makespan, rt_.makespan);  // bit-identical timeline
}

TEST(TreeReduce, MadnessDefaultStaysFlat) {
  const auto r = reduce_run(cfg(13, BackendKind::Madness));
  EXPECT_EQ(r.sum, 13LL * 14 / 2);
  EXPECT_EQ(r.cs.reduce_forwards, 0u);
  EXPECT_EQ(r.owner_reducer_calls, 12u);
}

TEST(TreeReduce, PerKeySizeViaTerminalCompletesTheWave) {
  // The stream size arrives per key through ttg::set_size (routed to the
  // owner), not through a static reducer bound; the owner's count view
  // must still launch the collect wave at exactly the declared total.
  auto c = cfg(9);
  c.reduce_tree_arity = 2;
  World w(c);
  const int nranks = c.nranks;
  Edge<Int1, Void> start("start");
  Edge<Int1, long long> stream("stream"), out_e("out");
  auto prod = make_tt(w,
                      [nranks](const Int1& k, Void&,
                               std::tuple<Out<Int1, long long>>& out) {
                        if (k.i == 0) ttg::set_size<0>(Int1{0}, nranks, out);
                        ttg::send<0>(Int1{0}, static_cast<long long>(k.i + 1), out);
                      },
                      edges(start), edges(stream), "produce");
  prod->set_keymap([nranks](const Int1& k) { return k.i % nranks; });
  auto red = make_tt(w,
                     [](const Int1& k, long long& sum,
                        std::tuple<Out<Int1, long long>>& out) {
                       ttg::send<0>(k, sum, out);
                     },
                     edges(stream), edges(out_e), "reduce");
  red->set_input_reducer<0>([](long long& acc, long long&& v) { acc += v; });
  red->set_keymap([](const Int1&) { return 0; });
  long long sum = 0;
  int fires = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, long long& v) {
    sum = v;
    ++fires;
  });
  sink->set_keymap([](const Int1&) { return 0; });
  make_graph_executable(*prod);
  make_graph_executable(*red);
  make_graph_executable(*sink);
  for (int r = 0; r < nranks; ++r) prod->invoke(Int1{r}, Void{});
  w.fence();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sum, 9LL * 10 / 2);
  EXPECT_EQ(w.unfinished(), 0u);
}

TEST(TreeReduce, GateTriggeredFinalizeCollectsEveryContribution) {
  // Unbounded stream closed by ttg::finalize once a side-channel gate has
  // seen every producer: contributions fold at their producing rank before
  // the gate token leaves it, so the close wave's subtree counts are
  // final and the reduced value covers all of them.
  auto c = cfg(11);
  c.reduce_tree_arity = 2;
  World w(c);
  const int nranks = c.nranks;
  Edge<Int1, Void> start("start");
  Edge<Int1, long long> stream("stream"), out_e("out");
  Edge<Int1, Void> gate_e("gate");
  auto prod = make_tt(
      w,
      [](const Int1& k, Void&,
         std::tuple<Out<Int1, long long>, Out<Int1, Void>>& out) {
        ttg::send<0>(Int1{0}, static_cast<long long>(k.i + 1), out);
        ttg::send<1>(Int1{0}, Void{}, out);
      },
      edges(start), edges(stream, gate_e), "produce");
  prod->set_keymap([nranks](const Int1& k) { return k.i % nranks; });
  auto gate = make_tt(w,
                      [](const Int1& k, Void&,
                         std::tuple<Out<Int1, long long>>& out) {
                        ttg::finalize<0>(k, out);
                      },
                      edges(gate_e), edges(stream), "gate");
  gate->set_input_reducer<0>([](Void&, Void&&) {}, nranks);
  gate->set_keymap([](const Int1&) { return 0; });
  auto red = make_tt(w,
                     [](const Int1& k, long long& sum,
                        std::tuple<Out<Int1, long long>>& out) {
                       ttg::send<0>(k, sum, out);
                     },
                     edges(stream), edges(out_e), "reduce");
  red->set_input_reducer<0>([](long long& acc, long long&& v) { acc += v; });
  red->set_keymap([](const Int1&) { return 0; });
  long long sum = 0;
  int fires = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, long long& v) {
    sum = v;
    ++fires;
  });
  sink->set_keymap([](const Int1&) { return 0; });
  make_graph_executable(*prod);
  make_graph_executable(*gate);
  make_graph_executable(*red);
  make_graph_executable(*sink);
  for (int r = 0; r < nranks; ++r) prod->invoke(Int1{r}, Void{});
  w.fence();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sum, 11LL * 12 / 2);
  EXPECT_GT(w.comm().stats().reduce_forwards, 0u);
  EXPECT_EQ(w.unfinished(), 0u);
}

TEST(TreeReduce, MultiKeyMultiOwnerShapesAreIndependent) {
  // Three keys owned by three different ranks, contributions from every
  // rank to each: one tree per owner, all reductions correct.
  auto c = cfg(10);
  c.reduce_tree_arity = 2;
  World w(c);
  const int nranks = c.nranks;
  const int nkeys = 3;
  Edge<Int1, Void> start("start");
  Edge<Int1, long long> stream("stream"), out_e("out");
  auto prod = make_tt(w,
                      [nkeys](const Int1& k, Void&,
                              std::tuple<Out<Int1, long long>>& out) {
                        for (int key = 0; key < nkeys; ++key)
                          ttg::send<0>(Int1{key},
                                       static_cast<long long>((key + 1) * (k.i + 1)),
                                       out);
                      },
                      edges(start), edges(stream), "produce");
  prod->set_keymap([nranks](const Int1& k) { return k.i % nranks; });
  auto red = make_tt(w,
                     [](const Int1& k, long long& sum,
                        std::tuple<Out<Int1, long long>>& out) {
                       ttg::send<0>(k, sum, out);
                     },
                     edges(stream), edges(out_e), "reduce");
  red->set_input_reducer<0>([](long long& acc, long long&& v) { acc += v; }, nranks);
  red->set_keymap([nranks](const Int1& k) { return (k.i * 3 + 1) % nranks; });
  std::vector<long long> sums(nkeys, 0);
  auto sink = make_sink(w, out_e, [&](const Int1& k, long long& v) {
    sums[static_cast<std::size_t>(k.i)] = v;
  });
  sink->set_keymap([nranks](const Int1& k) { return (k.i * 3 + 1) % nranks; });
  make_graph_executable(*prod);
  make_graph_executable(*red);
  make_graph_executable(*sink);
  for (int r = 0; r < nranks; ++r) prod->invoke(Int1{r}, Void{});
  w.fence();
  const long long base = 10LL * 11 / 2;
  for (int key = 0; key < nkeys; ++key) EXPECT_EQ(sums[key], (key + 1) * base);
  const auto& cs = w.comm().stats();
  EXPECT_EQ(cs.reduce_forwards, cs.reduce_combines);
  EXPECT_EQ(cs.reduce_forwards, 3u * 9u);  // one partial per non-owner per key
}

TEST(TreeReduce, NonCommutativeReducerIsRunToRunDeterministic) {
  // Order-sensitive fold (concatenation): the tree fixes its fold order
  // (local value first, then child subtrees in slot order), so two
  // identical runs agree element for element, and the multiset of
  // contributions is exactly preserved.
  auto run = [] {
    auto c = cfg(9);
    c.reduce_tree_arity = 2;
    World w(c);
    const int nranks = c.nranks;
    Edge<Int1, Void> start("start");
    Edge<Int1, std::vector<double>> stream("stream"), out_e("out");
    auto prod = make_tt(w,
                        [](const Int1& k, Void&,
                           std::tuple<Out<Int1, std::vector<double>>>& out) {
                          ttg::send<0>(Int1{0},
                                       std::vector<double>{static_cast<double>(k.i)},
                                       out);
                        },
                        edges(start), edges(stream), "produce");
    prod->set_keymap([nranks](const Int1& k) { return k.i % nranks; });
    auto red = make_tt(w,
                       [](const Int1& k, std::vector<double>& acc,
                          std::tuple<Out<Int1, std::vector<double>>>& out) {
                         ttg::send<0>(k, acc, out);
                       },
                       edges(stream), edges(out_e), "reduce");
    red->set_input_reducer<0>(
        [](std::vector<double>& acc, std::vector<double>&& v) {
          acc.insert(acc.end(), v.begin(), v.end());
        },
        nranks);
    red->set_keymap([](const Int1&) { return 0; });
    std::vector<double> got;
    auto sink = make_sink(w, out_e,
                          [&](const Int1&, std::vector<double>& v) { got = v; });
    sink->set_keymap([](const Int1&) { return 0; });
    make_graph_executable(*prod);
    make_graph_executable(*red);
    make_graph_executable(*sink);
    for (int r = 0; r < nranks; ++r) prod->invoke(Int1{r}, Void{});
    w.fence();
    return got;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 9u);
  EXPECT_EQ(a, b);  // element-for-element, run to run
  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 9; ++i) EXPECT_DOUBLE_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(TreeReduce, TopologyLayoutKeepsPartialsOnNode) {
  // 16 ranks: with 4 ranks per node the packed layout crosses the network
  // once per non-root node (3 inter-node partial hops of 15); with the
  // trivial topology every hop is inter-node.
  auto flat_topo = cfg(16);
  flat_topo.reduce_tree_arity = 4;
  flat_topo.ranks_per_node = 1;
  auto packed = cfg(16);
  packed.reduce_tree_arity = 4;
  packed.ranks_per_node = 4;
  const auto r1 = reduce_run(flat_topo);
  const auto r4 = reduce_run(packed);
  EXPECT_EQ(r1.sum, r4.sum);
  EXPECT_EQ(r1.cs.intra_node_hops, 0u);
  EXPECT_EQ(r1.cs.inter_node_hops, 15u);
  EXPECT_EQ(r4.cs.inter_node_hops, 3u);
  EXPECT_EQ(r4.cs.intra_node_hops, 12u);
}

TEST(TreeReduce, RecoversDroppedPartialsAndStaysReproducible) {
  for (const auto backend : {BackendKind::Parsec, BackendKind::Madness}) {
    auto c = cfg(13, backend);
    c.reduce_tree_arity = 2;  // route through interior ranks on both
    c.faults = sim::FaultPlan::parse("drop=0.2", 11);
    const auto r1 = reduce_run(c);
    EXPECT_EQ(r1.fires, 1) << "backend=" << rt::to_string(backend);
    EXPECT_EQ(r1.sum, 13LL * 14 / 2);
    EXPECT_EQ(r1.cs.dead_letters, 0u);
    EXPECT_GT(r1.cs.retries, 0u);
    EXPECT_EQ(r1.live_handles, 0u);
    // Seeded fault runs replay bit-identically.
    const auto r2 = reduce_run(c);
    EXPECT_EQ(r1.cs.retries, r2.cs.retries);
    EXPECT_EQ(r1.cs.recovered_msgs, r2.cs.recovered_msgs);
    EXPECT_EQ(r1.makespan, r2.makespan);  // to the bit
  }
}

// ---- application numerics: routing must never change payloads ----

TEST(Numerics, BspmmCTilesBitIdenticalAcrossReduceRouting) {
  // bspmm's C accumulation keys every reduction at the rank that computes
  // its contributions, so the tree must degenerate to the owner-local fold
  // and reproduce flat routing bit for bit on both backends.
  sparse::YukawaParams p;
  p.natoms = 24;
  p.max_tile = 32;
  auto a = sparse::yukawa_matrix(p);
  for (const auto backend : {BackendKind::Parsec, BackendKind::Madness}) {
    auto run = [&](int arity) {
      auto c = cfg(4, backend);
      c.reduce_tree_arity = arity;
      World w(c);
      apps::bspmm::Options opt;
      auto res = apps::bspmm::run(w, a, a, opt);
      EXPECT_EQ(w.data_tracker().live_handles(), 0u);
      return res;
    };
    const auto flat = run(0);
    const auto tree = run(4);
    EXPECT_EQ(flat.c.to_dense().data(), tree.c.to_dense().data())
        << "backend=" << rt::to_string(backend);
    EXPECT_EQ(flat.makespan, tree.makespan);
    EXPECT_GT(flat.c.nnz_tiles(), 0u);
  }
}

TEST(Numerics, PotrfUnaffectedByReduceRouting) {
  // POTRF has no streaming terminals: the reduction plane must not touch
  // a single event.
  support::Rng rng(42);
  auto a = linalg::random_spd(rng, 256, 32);
  auto run = [&](int arity) {
    auto c = cfg(8, BackendKind::Parsec);
    c.reduce_tree_arity = arity;
    World w(c);
    auto res = apps::cholesky::run(w, a);
    EXPECT_EQ(w.comm().stats().reduce_forwards, 0u);
    return res;
  };
  const auto flat = run(0);
  const auto tree = run(4);
  EXPECT_EQ(flat.matrix.to_dense().data(), tree.matrix.to_dense().data());
  EXPECT_EQ(flat.makespan, tree.makespan);
}

}  // namespace
