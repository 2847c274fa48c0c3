// Tests of the collective data plane: spanning-tree and star shapes, the
// tree-routed broadcast on both wire protocols (whole-object archive and
// split-metadata), eager-AM coalescing, per-backend CollectivePolicy
// defaults and WorldConfig overrides, recovery of tree hops under fault
// injection, and bit-identical application numerics vs flat routing.
#include <gtest/gtest.h>

#include <algorithm>
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
using linalg::Tile;
namespace coll = rt::collective;

WorldConfig cfg(int nranks, BackendKind b = BackendKind::Parsec) {
  WorldConfig c;
  c.machine = sim::hawk();
  c.machine.cores_per_node = 2;
  c.nranks = nranks;
  c.backend = b;
  return c;
}

// ---- tree shape: pure functions, pinned down without a world ----

/// The tree over members 1..n rooted at rank 0 with every rank its own
/// node: position p holds rank p, so positions and ranks coincide.
coll::TreeShape heap(int n, int arity) {
  std::vector<int> members;
  for (int r = 1; r <= n; ++r) members.push_back(r);
  return coll::build_tree(0, members, arity, coll::Topology{});
}

TEST(TreeShape, HeapChildrenAreDeterministic) {
  // 7 members, arity 2: children(p) = {2p+1, 2p+2} clipped to 7.
  const auto h7 = heap(7, 2);
  EXPECT_EQ(h7.children[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(h7.children[1], (std::vector<int>{3, 4}));
  EXPECT_EQ(h7.children[3], (std::vector<int>{7}));
  EXPECT_TRUE(h7.children[4].empty());
  // 15 members, arity 4: two full levels.
  const auto h15 = heap(15, 4);
  EXPECT_EQ(h15.children[0], (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(h15.children[1], (std::vector<int>{5, 6, 7, 8}));
  EXPECT_EQ(h15.children[3], (std::vector<int>{13, 14, 15}));
  EXPECT_TRUE(h15.children[5].empty());
}

TEST(TreeShape, StarHangsEveryMemberUnderTheRootInOrder) {
  // The flat pattern: members keep their given order, a rank may repeat
  // (one member per key), and no member forwards.
  const auto s = coll::star(2, {0, 1, 1, 3});
  EXPECT_EQ(s.ranks, (std::vector<int>{2, 0, 1, 1, 3}));
  EXPECT_EQ(s.children[0], (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.parent, (std::vector<int>{-1, 0, 0, 0, 0}));
  for (int p = 1; p <= s.nmembers(); ++p) {
    EXPECT_TRUE(s.children[static_cast<std::size_t>(p)].empty());
    EXPECT_EQ(coll::shape_subtree(s, p), (std::vector<int>{p}));
  }
}

// ---- per-backend policy defaults and WorldConfig overrides ----

TEST(CollectivePolicy, BackendDefaultsMatchTheProtocolStory) {
  World wp(cfg(2, BackendKind::Parsec));
  EXPECT_EQ(wp.comm().collective().tree_arity, 4);
  EXPECT_DOUBLE_EQ(wp.comm().collective().am_flush_window, 1.0e-6);
  // MADNESS routes flat with no coalescing window.
  World wm(cfg(2, BackendKind::Madness));
  EXPECT_EQ(wm.comm().collective().tree_arity, 0);
  EXPECT_DOUBLE_EQ(wm.comm().collective().am_flush_window, 0.0);
}

TEST(CollectivePolicy, WorldConfigOverridesBothKnobs) {
  auto c = cfg(2, BackendKind::Madness);
  c.broadcast_tree_arity = 2;  // give MADNESS the routing backend's tree
  c.am_flush_window = 5.0e-6;
  World w(c);
  EXPECT_EQ(w.comm().collective().tree_arity, 2);
  EXPECT_DOUBLE_EQ(w.comm().collective().am_flush_window, 5.0e-6);

  auto cp = cfg(2, BackendKind::Parsec);
  cp.broadcast_tree_arity = 0;  // force flat / no coalescing on PaRSEC
  cp.am_flush_window = 0.0;
  World w2(cp);
  EXPECT_EQ(w2.comm().collective().tree_arity, 0);
  EXPECT_DOUBLE_EQ(w2.comm().collective().am_flush_window, 0.0);
}

// ---- tree-routed whole-object broadcast ----

struct BroadcastResult {
  rt::CommStats cs;
  net::NetStats ns;
  std::uint64_t root_nic_sends = 0;
  double root_nic_busy = 0.0;
  std::uint64_t root_allocs = 0;
  std::uint64_t live_handles = 0;
  double makespan = 0.0;
  std::vector<int> deliveries;  ///< per key 1..nkeys
};

/// Rank 0 broadcasts one vector to keys 1..nkeys scattered k.i % nranks;
/// each delivery checks the payload bit-for-bit against the original.
BroadcastResult broadcast_run(WorldConfig c, int nkeys, int payload_len = 2) {
  std::vector<double> payload;
  for (int i = 0; i < payload_len; ++i) payload.push_back(1.5 - i);
  World w(c);
  Edge<Int1, std::vector<double>> in("in"), out_e("out");
  auto tt = make_tt(
      w,
      [nkeys](const Int1&, std::vector<double>& v,
              std::tuple<Out<Int1, std::vector<double>>>& out) {
        std::vector<Int1> keys;
        for (int i = 1; i <= nkeys; ++i) keys.push_back(Int1{i});
        ttg::broadcast<0>(keys, v, out);
      },
      edges(in), edges(out_e), "bcaster");
  tt->set_keymap([](const Int1&) { return 0; });
  BroadcastResult r;
  r.deliveries.assign(static_cast<std::size_t>(nkeys) + 1, 0);
  auto sink = make_sink(w, out_e, [&](const Int1& k, std::vector<double>& v) {
    EXPECT_EQ(v, payload);
    r.deliveries[static_cast<std::size_t>(k.i)] += 1;
  });
  const int nranks = c.nranks;
  sink->set_keymap([nranks](const Int1& k) { return k.i % nranks; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  tt->invoke(Int1{0}, payload);
  w.fence();
  r.cs = w.comm().stats();
  r.ns = w.network().stats();
  r.root_nic_sends = w.network().nic_sends(0);
  r.root_nic_busy = w.network().nic_busy(0);
  r.root_allocs = w.data_tracker().rank_stats(0).allocs;
  r.live_handles = w.data_tracker().live_handles();
  r.makespan = w.engine().now();
  return r;
}

TEST(TreeBroadcast, RootNicSendsDropFromFanoutToArity) {
  // 16 ranks, keys 1..15 land on ranks 1..15: the root's injection count is
  // R-1 under flat routing and exactly the arity under tree routing.
  for (const auto& [arity, expected] : std::vector<std::pair<int, std::uint64_t>>{
           {0, 15}, {2, 2}, {4, 4}}) {
    auto c = cfg(16, BackendKind::Parsec);
    c.broadcast_tree_arity = arity;
    const auto r = broadcast_run(c, 15);
    EXPECT_EQ(r.root_nic_sends, expected) << "arity=" << arity;
    // One logical AM per destination regardless of routing, every key
    // delivered exactly once, and no leaked handles after the fence.
    EXPECT_EQ(r.cs.messages, 15u) << "arity=" << arity;
    for (int k = 1; k <= 15; ++k) EXPECT_EQ(r.deliveries[static_cast<std::size_t>(k)], 1);
    EXPECT_EQ(r.root_allocs, 1u);
    EXPECT_EQ(r.live_handles, 0u);
  }
}

TEST(TreeBroadcast, TreeUnloadsTheRootNicForLargePayloads) {
  // With a payload large enough that wire time dominates key lists, the
  // root's send-NIC busy time under the tree is a fraction of flat routing
  // (2 hops' worth of bytes instead of 15).
  auto flat = cfg(16, BackendKind::Parsec);
  flat.broadcast_tree_arity = 0;
  auto tree = cfg(16, BackendKind::Parsec);
  tree.broadcast_tree_arity = 2;
  const auto rf = broadcast_run(flat, 15, /*payload_len=*/1024);
  const auto rt_ = broadcast_run(tree, 15, /*payload_len=*/1024);
  EXPECT_LT(rt_.root_nic_busy, 0.5 * rf.root_nic_busy);
  // Store-and-forward never re-serializes: interior hops ship the cached
  // buffer, so total payload wire bytes grow only by routing headers while
  // the root's share collapses.
  EXPECT_EQ(rt_.cs.serializations, 1u);
}

TEST(TreeBroadcast, InteriorForwardsServeFromTheSerializedCache) {
  // 15 destinations, arity 2: one archive pass at the root; the other root
  // child plus all 13 interior forwards are cache reuses. Counter parity
  // with flat routing: serializations + serialize_hits == messages.
  auto c = cfg(16, BackendKind::Parsec);
  c.broadcast_tree_arity = 2;
  const auto r = broadcast_run(c, 15);
  EXPECT_EQ(r.cs.serializations, 1u);
  EXPECT_EQ(r.cs.serialize_hits, 14u);
  EXPECT_EQ(r.cs.broadcast_forwards, 13u);  // 15 tree edges - 2 root edges
  EXPECT_EQ(r.cs.messages, 15u);
}

TEST(TreeBroadcast, SmallFanoutDegeneratesToFlatBitIdentically) {
  // 3 remote destinations with arity 4: the "tree" is the flat pattern, so
  // every observable (makespan included) matches arity-0 routing exactly.
  auto flat = cfg(4, BackendKind::Parsec);
  flat.broadcast_tree_arity = 0;
  auto tree = cfg(4, BackendKind::Parsec);
  tree.broadcast_tree_arity = 4;
  const auto rf = broadcast_run(flat, 3);
  const auto rt_ = broadcast_run(tree, 3);
  EXPECT_EQ(rf.cs.messages, rt_.cs.messages);
  EXPECT_EQ(rf.cs.serializations, rt_.cs.serializations);
  EXPECT_EQ(rf.cs.serialize_hits, rt_.cs.serialize_hits);
  EXPECT_EQ(rt_.cs.broadcast_forwards, 0u);
  EXPECT_EQ(rf.root_nic_sends, rt_.root_nic_sends);
  EXPECT_EQ(rf.makespan, rt_.makespan);  // bit-identical timeline
}

// ---- tree-routed split-metadata broadcast ----

TEST(TreeBroadcast, SplitmdForwardsFetchPayloadFromTheParent) {
  // Tile broadcast to 7 remote ranks, arity 2. Each tree edge is one
  // splitmd transfer; children RMA-fetch from their parent's landed object,
  // so the root serves only its two children: 2 metadata sends + 2 one-sided
  // payload reads = 4 injections, and the archive path is never touched.
  auto c = cfg(8, BackendKind::Parsec);
  c.broadcast_tree_arity = 2;
  World w(c);
  Edge<Int1, Tile> in("in"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1&, Tile& t, std::tuple<Out<Int1, Tile>>& out) {
                      std::vector<Int1> keys;
                      for (int i = 1; i <= 7; ++i) keys.push_back(Int1{i});
                      ttg::broadcast<0>(keys, t, out);
                    },
                    edges(in), edges(out_e), "bcaster");
  tt->set_keymap([](const Int1&) { return 0; });
  int got = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, Tile& t) {
    EXPECT_DOUBLE_EQ(t(0, 1), 2.75);
    ++got;
  });
  sink->set_keymap([](const Int1& k) { return k.i; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  Tile t(4, 4);
  t(0, 1) = 2.75;
  tt->invoke(Int1{0}, std::move(t));
  w.fence();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(w.comm().stats().splitmd_sends, 7u);
  EXPECT_EQ(w.comm().stats().broadcast_forwards, 5u);
  EXPECT_EQ(w.comm().stats().serializations, 0u);
  EXPECT_EQ(w.network().nic_sends(0), 4u);
  EXPECT_EQ(w.data_tracker().rank_stats(0).allocs, 1u);
  EXPECT_EQ(w.data_tracker().live_handles(), 0u);
}

// ---- eager-AM coalescing ----

rt::CommStats coalesce_run(WorldConfig c, int nmsgs) {
  World w(c);
  Edge<Int1, std::vector<double>> in("in"), out_e("out");
  auto tt = make_tt(
      w,
      [nmsgs](const Int1&, std::vector<double>& v,
              std::tuple<Out<Int1, std::vector<double>>>& out) {
        // Per-key sends within one task body: a burst of small AMs all
        // aimed at rank 1.
        for (int i = 1; i <= nmsgs; ++i) ttg::send<0>(Int1{i}, v, out);
      },
      edges(in), edges(out_e), "burst");
  tt->set_keymap([](const Int1&) { return 0; });
  int got = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, std::vector<double>& v) {
    EXPECT_EQ(v, (std::vector<double>{3.25, -1.0}));
    ++got;
  });
  sink->set_keymap([](const Int1&) { return 1; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  tt->invoke(Int1{0}, std::vector<double>{3.25, -1.0});
  w.fence();
  EXPECT_EQ(got, nmsgs);
  EXPECT_EQ(w.data_tracker().live_handles(), 0u);
  return w.comm().stats();
}

TEST(AmCoalescing, BurstToOneRankBatchesBehindTheFirstAm) {
  // 5 small AMs to rank 1 inside one flush window: the first ships
  // immediately (opening the window), the other 4 ride one batched wire
  // transfer. Logical message accounting is unchanged.
  auto c = cfg(2, BackendKind::Parsec);
  c.am_flush_window = 1.0e-3;  // generous: the whole burst lands inside it
  const auto cs = coalesce_run(c, 5);
  EXPECT_EQ(cs.messages, 5u);
  EXPECT_EQ(cs.am_batches, 1u);
  EXPECT_EQ(cs.batched_msgs, 4u);
}

TEST(AmCoalescing, MadnessDefaultKeepsPerMessageWires) {
  const auto cs = coalesce_run(cfg(2, BackendKind::Madness), 5);
  EXPECT_EQ(cs.messages, 5u);
  EXPECT_EQ(cs.am_batches, 0u);
  EXPECT_EQ(cs.batched_msgs, 0u);
}

TEST(AmCoalescing, SingleFollowerFlushIsAPlainSend) {
  // 2 AMs: the second waits out the window alone; flushing a batch of one
  // is an ordinary wire send, not a counted batch.
  auto c = cfg(2, BackendKind::Parsec);
  c.am_flush_window = 1.0e-3;
  const auto cs = coalesce_run(c, 2);
  EXPECT_EQ(cs.messages, 2u);
  EXPECT_EQ(cs.am_batches, 0u);
  EXPECT_EQ(cs.batched_msgs, 0u);
}

// ---- recovery: per-hop ack/retransmit under fault injection ----

TEST(TreeBroadcast, RecoversDroppedHopsAndStaysReproducible) {
  for (const auto backend : {BackendKind::Parsec, BackendKind::Madness}) {
    auto c = cfg(16, backend);
    c.broadcast_tree_arity = 2;  // route through interior ranks on both
    c.faults = sim::FaultPlan::parse("drop=0.2", 7);
    const auto r1 = broadcast_run(c, 15);
    // Every key delivered exactly once despite dropped hops/acks; nothing
    // gave up, and the per-hop retransmit path actually fired.
    for (int k = 1; k <= 15; ++k)
      EXPECT_EQ(r1.deliveries[static_cast<std::size_t>(k)], 1)
          << "backend=" << rt::to_string(backend);
    EXPECT_EQ(r1.cs.dead_letters, 0u);
    EXPECT_GT(r1.cs.retries, 0u);
    EXPECT_EQ(r1.live_handles, 0u);
    // Seeded fault runs are bit-reproducible: a second identical world
    // replays the same drops, retries, and final clock.
    const auto r2 = broadcast_run(c, 15);
    EXPECT_EQ(r1.cs.retries, r2.cs.retries);
    EXPECT_EQ(r1.cs.acks, r2.cs.acks);
    EXPECT_EQ(r1.cs.recovered_msgs, r2.cs.recovered_msgs);
    EXPECT_EQ(r1.ns.drops, r2.ns.drops);
    EXPECT_EQ(r1.makespan, r2.makespan);  // to the bit
  }
}

// ---- application numerics: routing must never change payloads ----

TEST(Numerics, PotrfBitIdenticalAcrossFlatAndTreeRouting) {
  support::Rng rng(42);
  auto a = linalg::random_spd(rng, 256, 32);
  auto ref = linalg::dense_cholesky(a.to_dense());
  auto run = [&](int arity, std::uint64_t* forwards = nullptr) {
    auto c = cfg(8, BackendKind::Parsec);
    c.broadcast_tree_arity = arity;
    World w(c);
    auto res = apps::cholesky::run(w, a);
    if (forwards != nullptr) *forwards = w.comm().stats().broadcast_forwards;
    return res;
  };
  std::uint64_t forwards = 0;
  const auto flat = run(0);
  const auto tree = run(2, &forwards);
  EXPECT_GT(forwards, 0u);  // the tree plane was actually exercised
  const Tile df = flat.matrix.to_dense();
  const Tile dt = tree.matrix.to_dense();
  // Store-and-forward ships the identical serialized bytes every hop and
  // POTRF's per-tile accumulation order is fixed by the dependence chain,
  // so the factor agrees to the last bit.
  EXPECT_EQ(df.data(), dt.data());
  EXPECT_LT(df.max_abs_diff(ref), 1e-9);
}

TEST(Numerics, BspmmDeterministicPerRoutingAndConsistentAcross) {
  sparse::YukawaParams p;
  p.natoms = 24;
  p.max_tile = 32;
  auto a = sparse::yukawa_matrix(p);
  auto run = [&](int arity) {
    auto c = cfg(4, BackendKind::Parsec);
    c.broadcast_tree_arity = arity;
    World w(c);
    apps::bspmm::Options opt;
    auto res = apps::bspmm::run(w, a, a, opt);
    EXPECT_EQ(w.data_tracker().live_handles(), 0u);
    return res;
  };
  const auto flat = run(0);
  const auto tree = run(4);
  // Each routing mode is bit-deterministic run to run...
  EXPECT_EQ(tree.c.to_dense().data(), run(4).c.to_dense().data());
  EXPECT_EQ(flat.c.to_dense().data(), run(0).c.to_dense().data());
  // ...and across modes the streaming GEMM reductions see tree-dependent
  // arrival order, so agreement is to rounding, not to the bit.
  EXPECT_LT(flat.c.to_dense().max_abs_diff(tree.c.to_dense()), 1e-12);
  EXPECT_GT(flat.c.nnz_tiles(), 0u);
}

}  // namespace
