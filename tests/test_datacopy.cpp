// Tests of the data-lifecycle layer: DataCopy refcounting, the
// serialize-once broadcast cache, per-rank memory accounting (live bytes,
// high watermark, input copies), the fence-time leak check, CopyPolicy
// overrides, and bit-identical application numerics on both backends.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/bspmm/bspmm_ttg.hpp"
#include "apps/cholesky/cholesky_ttg.hpp"
#include "linalg/kernels.hpp"
#include "linalg/tile.hpp"
#include "runtime/datacopy.hpp"
#include "sparse/yukawa_gen.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;
using linalg::Tile;

WorldConfig cfg(int nranks, BackendKind b = BackendKind::Parsec) {
  WorldConfig c;
  c.machine = sim::hawk();
  c.machine.cores_per_node = 2;
  c.nranks = nranks;
  c.backend = b;
  return c;
}

// ---- DataTracker unit behaviour ----

TEST(DataTracker, AccountsAllocReleaseAndWatermark) {
  rt::DataTracker t;
  t.configure(2);
  t.on_alloc(0, 100);
  t.on_alloc(0, 50);
  t.on_alloc(1, 10);
  EXPECT_EQ(t.rank_stats(0).live_handles, 2u);
  EXPECT_EQ(t.rank_stats(0).live_bytes, 150u);
  EXPECT_EQ(t.rank_stats(0).high_watermark, 150u);
  t.on_release(0, 100);
  EXPECT_EQ(t.rank_stats(0).live_bytes, 50u);
  EXPECT_EQ(t.rank_stats(0).high_watermark, 150u);  // peak is sticky
  t.on_alloc(0, 20);
  EXPECT_EQ(t.rank_stats(0).high_watermark, 150u);  // 70 < peak
  EXPECT_EQ(t.live_handles(), 3u);
  EXPECT_EQ(t.live_bytes(), 80u);
  EXPECT_THROW(t.check_no_leaks(), support::ApiError);
  t.on_release(0, 50);
  t.on_release(0, 20);
  t.on_release(1, 10);
  EXPECT_NO_THROW(t.check_no_leaks());
  EXPECT_EQ(t.totals().allocs, 4u);
  EXPECT_EQ(t.totals().releases, 4u);
}

TEST(DataTracker, TracksInputCopies) {
  rt::DataTracker t;
  t.configure(1);
  t.on_input_copy(0, 64);
  t.on_input_copy(0, 64);
  EXPECT_EQ(t.rank_stats(0).input_copies, 2u);
  EXPECT_EQ(t.rank_stats(0).input_copy_bytes, 128u);
}

// ---- DataCopy handle semantics ----

TEST(DataCopy, RefcountsAndReleasesIntoTracker) {
  World w(cfg(1));
  {
    rt::DataCopy<std::vector<double>> d(w.data_tracker(), w.comm(), 0,
                                        std::vector<double>{1.0, 2.0, 3.0});
    EXPECT_TRUE(static_cast<bool>(d));
    EXPECT_EQ(d.use_count(), 1);
    auto d2 = d;  // handles share the block, the value is not duplicated
    EXPECT_EQ(d.use_count(), 2);
    EXPECT_EQ(&d.value(), &d2.value());
    EXPECT_EQ(d.value(), (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(w.data_tracker().rank_stats(0).allocs, 1u);
    EXPECT_EQ(w.data_tracker().live_handles(), 1u);
  }
  EXPECT_EQ(w.data_tracker().live_handles(), 0u);
  EXPECT_EQ(w.data_tracker().rank_stats(0).releases, 1u);
  w.fence();  // leak check passes
}

TEST(DataCopy, SerializeOncePolicyCachesTheBuffer) {
  World w(cfg(1, BackendKind::Parsec));  // serialize_once on by default
  rt::DataCopy<std::vector<double>> d(w.data_tracker(), w.comm(), 0,
                                      std::vector<double>{4.0, 5.0});
  bool hit = true;
  auto b1 = d.serialized(&hit);
  EXPECT_FALSE(hit);
  auto b2 = d.serialized(&hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(b1.get(), b2.get());  // the same cached buffer, not a rebuild
  EXPECT_EQ(w.comm().stats().serializations, 1u);
  EXPECT_EQ(w.comm().stats().serialize_hits, 1u);
  EXPECT_EQ(w.data_tracker().rank_stats(0).serializations, 1u);
  EXPECT_EQ(w.data_tracker().rank_stats(0).serialize_hits, 1u);
  d.reset();
  w.fence();
}

TEST(DataCopy, MadnessPolicyRebuildsPerSend) {
  World w(cfg(1, BackendKind::Madness));  // serialize_once off by default
  rt::DataCopy<std::vector<double>> d(w.data_tracker(), w.comm(), 0,
                                      std::vector<double>{4.0, 5.0});
  bool hit = true;
  auto b1 = d.serialized(&hit);
  EXPECT_FALSE(hit);
  auto b2 = d.serialized(&hit);
  EXPECT_FALSE(hit);  // whole-object semantics: every send re-serializes
  EXPECT_NE(b1.get(), b2.get());
  EXPECT_EQ(*b1, *b2);  // ... to identical bytes
  EXPECT_EQ(w.comm().stats().serializations, 2u);
  EXPECT_EQ(w.comm().stats().serialize_hits, 0u);
  d.reset();
  w.fence();
}

TEST(DataCopy, PolicyOverrideTurnsCachingOnForMadness) {
  auto c = cfg(1, BackendKind::Madness);
  c.serialize_once = 1;  // ablation knob
  World w(c);
  EXPECT_TRUE(w.comm().serialize_once());
  EXPECT_FALSE(w.comm().zero_copy_local());
  rt::DataCopy<std::vector<double>> d(w.data_tracker(), w.comm(), 0,
                                      std::vector<double>{6.0});
  bool hit = false;
  (void)d.serialized(&hit);
  (void)d.serialized(&hit);
  EXPECT_TRUE(hit);
  d.reset();
  w.fence();
}

// ---- fence-time leak check ----

TEST(DataCopy, FenceLeakCheckTripsOnALeakedHandle) {
  World w(cfg(1));
  auto leaked = std::make_unique<rt::DataCopy<int>>(w.data_tracker(), w.comm(), 0, 7);
  EXPECT_THROW(w.fence(), support::ApiError);
  leaked.reset();
  EXPECT_NO_THROW(w.fence());
}

// ---- broadcast: serialize once, message counts unchanged ----

rt::CommStats broadcast_vectors(WorldConfig c, int nkeys, int* received = nullptr) {
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
  int got = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, std::vector<double>& v) {
    EXPECT_EQ(v, (std::vector<double>{1.5, -2.5}));
    ++got;
  });
  const int nranks = c.nranks;
  sink->set_keymap([nranks](const Int1& k) { return k.i % nranks; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  tt->invoke(Int1{0}, std::vector<double>{1.5, -2.5});
  w.fence();
  EXPECT_EQ(got, nkeys);
  if (received != nullptr) *received = got;
  // Refcounts all returned to zero; the broadcast allocated exactly one
  // runtime-owned block on the sender.
  EXPECT_EQ(w.data_tracker().live_handles(), 0u);
  EXPECT_EQ(w.data_tracker().rank_stats(0).allocs, 1u);
  EXPECT_EQ(w.data_tracker().rank_stats(0).releases, 1u);
  EXPECT_GT(w.data_tracker().rank_stats(0).high_watermark, 0u);
  return w.comm().stats();
}

TEST(SerializeOnce, BroadcastToThreeRanksSerializesOnceOnParsec) {
  // Keys 1..3 land on ranks 1..3: one serialization, two cache hits, and
  // still one message per destination rank.
  const auto cs = broadcast_vectors(cfg(4, BackendKind::Parsec), 3);
  EXPECT_EQ(cs.messages, 3u);
  EXPECT_EQ(cs.serializations, 1u);
  EXPECT_EQ(cs.serialize_hits, 2u);
}

TEST(SerializeOnce, BroadcastOnMadnessSerializesPerDestination) {
  const auto cs = broadcast_vectors(cfg(4, BackendKind::Madness), 3);
  EXPECT_EQ(cs.messages, 3u);
  EXPECT_EQ(cs.serializations, 3u);
  EXPECT_EQ(cs.serialize_hits, 0u);
}

TEST(SerializeOnce, NonCoalescedAblationKeepsPerKeyMessages) {
  // optimized_broadcast=false sends one message per dependence. Keys 1..6 on
  // 4 ranks put key 4 on the sender itself: 5 remote dependences -> 5
  // messages, yet the serialized form is still built exactly once.
  auto c = cfg(4, BackendKind::Parsec);
  c.optimized_broadcast = false;
  const auto cs = broadcast_vectors(c, 6);
  EXPECT_EQ(cs.messages, 5u);
  EXPECT_EQ(cs.serializations, 1u);
  EXPECT_EQ(cs.serialize_hits, 4u);
}

// ---- splitmd broadcast: one shared block instead of per-destination copies ----

TEST(SerializeOnce, SplitmdBroadcastSharesOneBlock) {
  World w(cfg(3, BackendKind::Parsec));
  Edge<Int1, Tile> in("in"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1&, Tile& t, std::tuple<Out<Int1, Tile>>& out) {
                      ttg::broadcast<0>(std::vector<Int1>{{1}, {2}}, t, out);
                    },
                    edges(in), edges(out_e), "bcaster");
  tt->set_keymap([](const Int1&) { return 0; });
  double got = 0.0;
  auto sink = make_sink(w, out_e, [&](const Int1&, Tile& t) { got = t(0, 1); });
  sink->set_keymap([](const Int1& k) { return k.i; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  Tile t(4, 4);
  t(0, 1) = 2.75;
  tt->invoke(Int1{0}, std::move(t));
  w.fence();
  EXPECT_EQ(w.comm().stats().splitmd_sends, 2u);
  // The RMA data plane never archives the payload...
  EXPECT_EQ(w.comm().stats().serializations, 0u);
  // ...and both destinations shared one runtime-owned source block.
  EXPECT_EQ(w.data_tracker().rank_stats(0).allocs, 1u);
  EXPECT_EQ(w.data_tracker().live_handles(), 0u);
  EXPECT_DOUBLE_EQ(got, 2.75);
}

// ---- local delivery policy + per-rank accounting ----

rt::CommStats local_lvalue_send(WorldConfig c, rt::DataTracker::RankStats* rs = nullptr) {
  World w(c);
  Edge<Int1, Tile> in("in"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1& k, Tile& t, std::tuple<Out<Int1, Tile>>& out) {
                      ttg::send<0>(k, t, out);  // lvalue: copy semantics
                    },
                    edges(in), edges(out_e), "copy");
  auto sink = make_sink(w, out_e, [](const Int1&, Tile&) {});
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  tt->invoke(Int1{0}, Tile(16, 16));
  w.fence();
  if (rs != nullptr) *rs = w.data_tracker().rank_stats(0);
  return w.comm().stats();
}

TEST(CopyPolicy, LocalSharesVsCopiesFollowBackendPolicy) {
  rt::DataTracker::RankStats rs{};
  const auto parsec = local_lvalue_send(cfg(1, BackendKind::Parsec), &rs);
  EXPECT_EQ(parsec.local_copies, 0u);
  EXPECT_GE(parsec.local_shares, 1u);
  // Local routing never allocates a handle, but every delivered input is a
  // task-private copy, accounted per rank.
  EXPECT_EQ(rs.allocs, 0u);
  EXPECT_GE(rs.input_copies, 1u);
  EXPECT_GT(rs.input_copy_bytes, 0u);

  const auto mad = local_lvalue_send(cfg(1, BackendKind::Madness));
  EXPECT_GE(mad.local_copies, 1u);
}

TEST(CopyPolicy, ZeroCopyLocalOverrideFlipsBothBackends) {
  auto pc = cfg(1, BackendKind::Parsec);
  pc.zero_copy_local = 0;  // make PaRSEC pay MADNESS-style local copies
  EXPECT_GE(local_lvalue_send(pc).local_copies, 1u);

  auto mc = cfg(1, BackendKind::Madness);
  mc.zero_copy_local = 1;  // give MADNESS the PaRSEC data-ownership model
  EXPECT_EQ(local_lvalue_send(mc).local_copies, 0u);
}

// ---- streaming reducers: refcounts across remote stream items ----

TEST(SerializeOnce, StreamingReduceReleasesEveryHandle) {
  for (const auto backend : {BackendKind::Parsec, BackendKind::Madness}) {
    World w(cfg(2, backend));
    Edge<Int1, int> in("in"), out_e("out");
    auto producer = make_tt(w,
                            [](const Int1&, int&, std::tuple<Out<Int1, int>>& out) {
                              for (int i = 1; i <= 4; ++i)
                                ttg::send<0>(Int1{0}, i * i, out);
                            },
                            edges(in), edges(out_e), "producer");
    producer->set_keymap([](const Int1&) { return 0; });
    int reduced = 0;
    auto consumer = make_tt(w,
                            [&](const Int1&, int& acc, std::tuple<>&) { reduced = acc; },
                            edges(out_e), std::tuple<>{}, "consumer");
    consumer->set_input_reducer<0>([](int& acc, int&& v) { acc += v; }, 4);
    consumer->set_keymap([](const Int1&) { return 1; });  // remote stream items
    make_graph_executable(*producer);
    make_graph_executable(*consumer);
    producer->invoke(Int1{0}, 0);
    w.fence();
    EXPECT_EQ(reduced, 1 + 4 + 9 + 16);
    EXPECT_EQ(w.data_tracker().live_handles(), 0u);
    const auto& rs = w.data_tracker().rank_stats(0);
    EXPECT_EQ(rs.allocs, 4u);  // one block per remote stream item
    EXPECT_EQ(rs.releases, 4u);
  }
}

// ---- resilience: retransmissions reuse the cached serialized buffer ----

TEST(SerializeOnce, RetransmissionsDoNotReserialize) {
  auto c = cfg(4, BackendKind::Parsec);
  c.faults = sim::FaultPlan::parse("drop=0.4", 7);
  int got = 0;
  const auto cs = broadcast_vectors(c, 3, &got);
  EXPECT_EQ(got, 3);  // recovered: everything still delivered exactly once
  // Drops at 40% on 3 sends + acks virtually guarantee at least one retry
  // with this seed; the retransmit path ships the cached bytes, so the
  // serialization count stays at one archive pass for the whole broadcast.
  EXPECT_GT(cs.retries, 0u);
  EXPECT_EQ(cs.serializations, 1u);
  EXPECT_EQ(cs.serialize_hits, 2u);
}

// ---- application numerics: bit-identical across backends ----

TEST(Numerics, PotrfBitIdenticalAcrossBackends) {
  support::Rng rng(42);
  auto a = linalg::random_spd(rng, 96, 32);
  auto ref = linalg::dense_cholesky(a.to_dense());
  auto run = [&](BackendKind b) {
    World w(cfg(2, b));
    return apps::cholesky::run(w, a);
  };
  const auto pa = run(BackendKind::Parsec);
  const auto ma = run(BackendKind::Madness);
  const Tile dp = pa.matrix.to_dense();
  const Tile dm = ma.matrix.to_dense();
  // Same task graph, same kernels, same per-tile accumulation order: the
  // factors must agree to the last bit regardless of backend or the
  // serialize-once cache.
  EXPECT_EQ(dp.data(), dm.data());
  EXPECT_LT(dp.max_abs_diff(ref), 1e-9);
}

TEST(Numerics, BspmmBitIdenticalPerBackendAndConsistentAcross) {
  sparse::YukawaParams p;
  p.natoms = 24;
  p.max_tile = 32;
  auto a = sparse::yukawa_matrix(p);
  auto run = [&](BackendKind b) {
    World w(cfg(2, b));
    apps::bspmm::Options opt;
    auto res = apps::bspmm::run(w, a, a, opt);
    EXPECT_EQ(w.data_tracker().live_handles(), 0u);
    return res;
  };
  const auto pa = run(BackendKind::Parsec);
  const auto ma = run(BackendKind::Madness);
  // Per backend the run is deterministic: repeating it reproduces the
  // product to the last bit (the serialize-once cache changes no payload).
  EXPECT_EQ(pa.c.to_dense().data(), run(BackendKind::Parsec).c.to_dense().data());
  EXPECT_EQ(ma.c.to_dense().data(), run(BackendKind::Madness).c.to_dense().data());
  // Across backends the streaming GEMM reductions accumulate in backend-
  // specific arrival order, so agreement is to rounding, not to the bit.
  EXPECT_LT(pa.c.to_dense().max_abs_diff(ma.c.to_dense()), 1e-12);
  EXPECT_GT(pa.c.nnz_tiles(), 0u);
}

}  // namespace
