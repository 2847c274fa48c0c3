// Tests of the TTG programming model itself: input matching, streaming
// terminals, broadcast, copy semantics, maps, and backend protocol use.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "linalg/tile.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;
using linalg::Tile;

WorldConfig cfg(int nranks = 2, BackendKind b = BackendKind::Parsec) {
  WorldConfig c;
  c.machine = sim::hawk();
  c.machine.cores_per_node = 2;
  c.nranks = nranks;
  c.backend = b;
  return c;
}

TEST(TtgCore, SingleTaskPipeline) {
  World w(cfg(1));
  Edge<Int1, int> in("in"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1& k, int& v, std::tuple<Out<Int1, int>>& out) {
                      ttg::send<0>(k, v * 2, out);
                    },
                    edges(in), edges(out_e), "double");
  int result = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, int& v) { result = v; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  tt->invoke(Int1{0}, 21);
  w.fence();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(tt->tasks_executed(), 1u);
  EXPECT_EQ(w.unfinished(), 0u);
}

TEST(TtgCore, TwoInputMatchingByKey) {
  World w(cfg(2));
  Edge<Int1, int> a("a"), b("b"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1& k, int& x, int& y, std::tuple<Out<Int1, int>>& out) {
                      ttg::send<0>(k, x + y, out);
                    },
                    edges(a, b), edges(out_e), "add");
  std::map<int, int> results;
  auto sink = make_sink(w, out_e, [&](const Int1& k, int& v) { results[k.i] = v; });
  sink->set_keymap([](const Int1&) { return 0; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  // Deliver inputs out of order and interleaved across keys.
  for (int i = 0; i < 8; ++i) tt->invoke(Int1{i}, 10 * i, i);
  w.fence();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i], 11 * i);
}

TEST(TtgCore, TasksRunOnKeymapRank) {
  World w(cfg(4));
  Edge<Int1, int> in("in");
  std::map<int, int> ran_on;
  auto tt = make_tt(w,
                    [&](const Int1& k, int&, std::tuple<>&) { ran_on[k.i] = w.rank(); },
                    edges(in), std::tuple<>{}, "where");
  tt->set_keymap([](const Int1& k) { return k.i % 4; });
  make_graph_executable(*tt);
  for (int i = 0; i < 8; ++i) tt->invoke(Int1{i}, 0);
  w.fence();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ran_on[i], i % 4);
}

TEST(TtgCore, RemoteSendRoundtripsThroughSerialization) {
  World w(cfg(2));
  Edge<Int1, std::vector<double>> in("in"), out_e("out");
  auto producer = make_tt(
      w,
      [](const Int1& k, std::vector<double>& v,
         std::tuple<Out<Int1, std::vector<double>>>& out) {
        ttg::send<0>(k, std::move(v), out);
      },
      edges(in), edges(out_e), "producer");
  producer->set_keymap([](const Int1&) { return 0; });
  std::vector<double> got;
  auto sink = make_sink(w, out_e, [&](const Int1&, std::vector<double>& v) { got = v; });
  sink->set_keymap([](const Int1&) { return 1; });  // forces a remote hop
  make_graph_executable(*producer);
  make_graph_executable(*sink);
  producer->invoke(Int1{0}, std::vector<double>{1.5, -2.5, 3.25});
  w.fence();
  EXPECT_EQ(got, (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_GE(w.comm().stats().messages, 1u);
}

TEST(TtgCore, SplitmdUsedForTilesOnParsec) {
  World w(cfg(2, BackendKind::Parsec));
  Edge<Int1, Tile> in("in"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1& k, Tile& t, std::tuple<Out<Int1, Tile>>& out) {
                      ttg::send<0>(k, std::move(t), out);
                    },
                    edges(in), edges(out_e), "fwd");
  tt->set_keymap([](const Int1&) { return 0; });
  Tile got;
  auto sink = make_sink(w, out_e, [&](const Int1&, Tile& t) { got = std::move(t); });
  sink->set_keymap([](const Int1&) { return 1; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  Tile t(4, 4);
  t(1, 2) = 7.5;
  tt->invoke(Int1{0}, std::move(t));
  w.fence();
  EXPECT_EQ(w.comm().stats().splitmd_sends, 1u);
  EXPECT_DOUBLE_EQ(got(1, 2), 7.5);
}

TEST(TtgCore, MadnessFallsBackToWholeObject) {
  World w(cfg(2, BackendKind::Madness));
  Edge<Int1, Tile> in("in"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1& k, Tile& t, std::tuple<Out<Int1, Tile>>& out) {
                      ttg::send<0>(k, std::move(t), out);
                    },
                    edges(in), edges(out_e), "fwd");
  tt->set_keymap([](const Int1&) { return 0; });
  Tile got;
  auto sink = make_sink(w, out_e, [&](const Int1&, Tile& t) { got = std::move(t); });
  sink->set_keymap([](const Int1&) { return 1; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  Tile t(3, 3);
  t(0, 0) = -1.25;
  tt->invoke(Int1{0}, std::move(t));
  w.fence();
  EXPECT_EQ(w.comm().stats().splitmd_sends, 0u);
  EXPECT_GE(w.comm().stats().messages, 1u);
  EXPECT_DOUBLE_EQ(got(0, 0), -1.25);
}

TEST(TtgCore, OptimizedBroadcastCoalescesByRank) {
  auto run = [](bool optimized) {
    auto c = cfg(2);
    c.optimized_broadcast = optimized;
    World w(c);
    Edge<Int1, Tile> in("in"), out_e("out");
    auto tt = make_tt(w,
                      [](const Int1&, Tile& t, std::tuple<Out<Int1, Tile>>& out) {
                        // 4 keys, all owned by rank 1.
                        ttg::broadcast<0>(
                            std::vector<Int1>{{1}, {3}, {5}, {7}}, t, out);
                      },
                      edges(in), edges(out_e), "bcaster");
    tt->set_keymap([](const Int1&) { return 0; });
    int received = 0;
    auto sink = make_sink(w, out_e, [&](const Int1&, Tile&) { ++received; });
    sink->set_keymap([](const Int1&) { return 1; });
    make_graph_executable(*tt);
    make_graph_executable(*sink);
    tt->invoke(Int1{0}, Tile(4, 4));
    w.fence();
    EXPECT_EQ(received, 4);
    return w.comm().stats().splitmd_sends + w.comm().stats().messages;
  };
  EXPECT_EQ(run(true), 1u);   // one wire transfer carrying 4 task IDs
  EXPECT_EQ(run(false), 4u);  // Chameleon-style: one per dependence
}

TEST(TtgCore, MultiTerminalBroadcast) {
  World w(cfg(1));
  Edge<Int1, int> in("in"), e0("e0"), e1("e1"), e2("e2");
  auto tt = make_tt(
      w,
      [](const Int1&, int& v,
         std::tuple<Out<Int1, int>, Out<Int1, int>, Out<Int1, int>>& out) {
        // Listing 1 style: single key, single key, key list.
        ttg::broadcast<0, 1, 2>(
            std::make_tuple(Int1{0}, Int1{1}, std::vector<Int1>{{2}, {3}}), v, out);
      },
      edges(in), edges(e0, e1, e2), "multi");
  int c0 = 0, c1 = 0, c2 = 0;
  auto s0 = make_sink(w, e0, [&](const Int1&, int& v) { c0 += v; });
  auto s1 = make_sink(w, e1, [&](const Int1&, int& v) { c1 += v; });
  auto s2 = make_sink(w, e2, [&](const Int1&, int& v) { c2 += v; });
  make_graph_executable(*tt);
  make_graph_executable(*s0);
  make_graph_executable(*s1);
  make_graph_executable(*s2);
  tt->invoke(Int1{9}, 5);
  w.fence();
  EXPECT_EQ(c0, 5);
  EXPECT_EQ(c1, 5);
  EXPECT_EQ(c2, 10);  // two keys on terminal 2
}

TEST(TtgCore, StreamingReducerStaticSize) {
  World w(cfg(2));
  Edge<Int1, int> in("in"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1& k, int& sum, std::tuple<Out<Int1, int>>& out) {
                      ttg::send<0>(k, sum, out);
                    },
                    edges(in), edges(out_e), "reduce");
  tt->set_input_reducer<0>([](int& acc, int&& v) { acc += v; }, 4);
  std::map<int, int> results;
  auto sink = make_sink(w, out_e, [&](const Int1& k, int& v) { results[k.i] = v; });
  sink->set_keymap([](const Int1&) { return 0; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  for (int key = 0; key < 3; ++key)
    for (int i = 1; i <= 4; ++i) tt->invoke(Int1{key}, i * (key + 1));
  w.fence();
  for (int key = 0; key < 3; ++key) EXPECT_EQ(results[key], 10 * (key + 1));
  EXPECT_EQ(tt->tasks_executed(), 3u);
}

TEST(TtgCore, PerKeyArgstreamSize) {
  World w(cfg(1));
  Edge<Int1, int> in("in"), out_e("out");
  auto tt = make_tt(w,
                    [](const Int1& k, int& sum, std::tuple<Out<Int1, int>>& out) {
                      ttg::send<0>(k, sum, out);
                    },
                    edges(in), edges(out_e), "reduce");
  tt->set_input_reducer<0>([](int& acc, int&& v) { acc += v; });  // unbounded
  std::map<int, int> results;
  auto sink = make_sink(w, out_e, [&](const Int1& k, int& v) { results[k.i] = v; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  tt->set_argstream_size<0>(Int1{0}, 2);
  tt->set_argstream_size<0>(Int1{1}, 5);
  for (int i = 0; i < 2; ++i) tt->invoke(Int1{0}, 1);
  for (int i = 0; i < 5; ++i) tt->invoke(Int1{1}, 1);
  w.fence();
  EXPECT_EQ(results[0], 2);
  EXPECT_EQ(results[1], 5);
}

TEST(TtgCore, FinalizeClosesStream) {
  World w(cfg(1));
  Edge<Int1, Void> start("start");
  Edge<Int1, int> stream("stream"), out_e("out");
  // A controller task pushes 3 items then finalizes the stream.
  auto ctl = make_tt(w,
                     [](const Int1& k, Void&,
                        std::tuple<Out<Int1, int>>& out) {
                       for (int i = 1; i <= 3; ++i) ttg::send<0>(k, i, out);
                       ttg::finalize<0>(k, out);
                     },
                     edges(start), edges(stream), "ctl");
  auto red = make_tt(w,
                     [](const Int1& k, int& sum, std::tuple<Out<Int1, int>>& out) {
                       ttg::send<0>(k, sum, out);
                     },
                     edges(stream), edges(out_e), "red");
  red->set_input_reducer<0>([](int& acc, int&& v) { acc += v; });
  int result = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, int& v) { result = v; });
  make_graph_executable(*ctl);
  make_graph_executable(*red);
  make_graph_executable(*sink);
  ctl->invoke(Int1{0}, Void{});
  w.fence();
  EXPECT_EQ(result, 6);
  EXPECT_EQ(w.unfinished(), 0u);
}

TEST(TtgCore, SetSizeViaTerminal) {
  World w(cfg(1));
  Edge<Int1, Void> start("start");
  Edge<Int1, int> stream("stream"), out_e("out");
  auto ctl = make_tt(w,
                     [](const Int1& k, Void&, std::tuple<Out<Int1, int>>& out) {
                       ttg::set_size<0>(k, 2, out);
                       ttg::send<0>(k, 10, out);
                       ttg::send<0>(k, 20, out);
                     },
                     edges(start), edges(stream), "ctl");
  auto red = make_tt(w,
                     [](const Int1& k, int& sum, std::tuple<Out<Int1, int>>& out) {
                       ttg::send<0>(k, sum, out);
                     },
                     edges(stream), edges(out_e), "red");
  red->set_input_reducer<0>([](int& acc, int&& v) { acc += v; });
  int result = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, int& v) { result = v; });
  make_graph_executable(*ctl);
  make_graph_executable(*red);
  make_graph_executable(*sink);
  ctl->invoke(Int1{0}, Void{});
  w.fence();
  EXPECT_EQ(result, 30);
}

TEST(TtgCore, VoidDataPureControlFlow) {
  World w(cfg(2));
  Edge<Int2, Void> ctl("ctl");
  int fired = 0;
  auto tt = make_tt(w, [&](const Int2&, Void&, std::tuple<>&) { ++fired; },
                    edges(ctl), std::tuple<>{}, "control");
  make_graph_executable(*tt);
  for (int i = 0; i < 5; ++i) tt->invoke(Int2{i, i}, Void{});
  w.fence();
  EXPECT_EQ(fired, 5);
}

TEST(TtgCore, VoidKeyPureDataflow) {
  World w(cfg(2));
  Edge<Void, int> e("data");
  int got = 0;
  auto tt = make_tt(w, [&](const Void&, int& v, std::tuple<>&) { got = v; },
                    edges(e), std::tuple<>{}, "pure-data");
  make_graph_executable(*tt);
  tt->invoke(Void{}, 77);
  w.fence();
  EXPECT_EQ(got, 77);
}

TEST(TtgCore, ZeroInputInitiator) {
  World w(cfg(2));
  Edge<Int1, int> out_e("out");
  auto init = make_tt<Int1>(
      w, [](const Int1& k, std::tuple<Out<Int1, int>>& out) { ttg::send<0>(k, k.i, out); },
      std::tuple<>{}, edges(out_e), "init");
  int sum = 0;
  auto sink = make_sink(w, out_e, [&](const Int1&, int& v) { sum += v; });
  sink->set_keymap([](const Int1&) { return 0; });
  make_graph_executable(*init);
  make_graph_executable(*sink);
  for (int i = 0; i < 10; ++i) init->invoke(Int1{i});
  w.fence();
  EXPECT_EQ(sum, 45);
}

TEST(TtgCore, PriorityMapOrdersExecution) {
  auto c = cfg(1);
  c.machine.cores_per_node = 1;
  World w(c);
  Edge<Int1, Void> in("in");
  std::vector<int> order;
  auto tt = make_tt(w, [&](const Int1& k, Void&, std::tuple<>&) { order.push_back(k.i); },
                    edges(in), std::tuple<>{}, "prio");
  tt->set_priomap([](const Int1& k) { return k.i; });
  tt->set_costmap([](const Int1&, const Void&) { return 1.0; });
  make_graph_executable(*tt);
  for (int i = 0; i < 5; ++i) tt->invoke(Int1{i}, Void{});
  w.fence();
  // The first injected task starts immediately; the rest pop by priority.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ((std::vector<int>{order[1], order[2], order[3], order[4]}),
            (std::vector<int>{4, 3, 2, 1}));
}

TEST(TtgCore, CostmapDeterminesMakespan) {
  World w(cfg(1));
  Edge<Int1, Void> in("in");
  auto tt = make_tt(w, [](const Int1&, Void&, std::tuple<>&) {}, edges(in),
                    std::tuple<>{}, "costly");
  tt->set_costmap([](const Int1& k, const Void&) { return k.i == 0 ? 5.0 : 1.0; });
  make_graph_executable(*tt);
  tt->invoke(Int1{0}, Void{});
  tt->invoke(Int1{1}, Void{});
  const double t = w.fence();
  EXPECT_NEAR(t, 5.0, 1e-5);  // both run in parallel on 2 workers
}

TEST(TtgCore, CopySharingStatsByBackend) {
  auto run = [](BackendKind b) {
    World w(cfg(1, b));
    Edge<Int1, Tile> in("in"), out_e("out");
    auto tt = make_tt(w,
                      [](const Int1& k, Tile& t, std::tuple<Out<Int1, Tile>>& out) {
                        ttg::send<0>(k, t, out);  // lvalue send: copy semantics
                      },
                      edges(in), edges(out_e), "copy");
    auto sink = make_sink(w, out_e, [](const Int1&, Tile&) {});
    make_graph_executable(*tt);
    make_graph_executable(*sink);
    tt->invoke(Int1{0}, Tile(16, 16));
    w.fence();
    return w.comm().stats();
  };
  // PaRSEC owns the data: a const-ref/lvalue local send is shared, not
  // copied; MADNESS pays the copy.
  EXPECT_EQ(run(BackendKind::Parsec).local_copies, 0u);
  EXPECT_GE(run(BackendKind::Madness).local_copies, 1u);
}

void trigger_duplicate_input() {
  World w(cfg(1));
  // Two-input task: deliver twice to the SAME terminal before the other
  // terminal ever fires — an unambiguous duplicate on a pending record.
  Edge<Int1, int> a("a"), b("b");
  auto tt = make_tt(w, [](const Int1&, int&, int&, std::tuple<>&) {}, edges(a, b),
                    std::tuple<>{}, "dup");
  make_graph_executable(*tt);
  Out<Int1, int> injector(&w, a.impl_ptr());
  injector.send(Int1{0}, 1);
  injector.send(Int1{0}, 2);
  w.fence();
}

TEST(TtgCoreDeath, DuplicateInputAborts) {
  // GTEST_FLAG_SET only exists in googletest >= 1.12; fall back to the
  // classic flag accessor on older releases.
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  EXPECT_DEATH(trigger_duplicate_input(), "duplicate input");
}

void trigger_stream_size_below_received() {
  World w(cfg(2));
  Edge<Int1, int> in("in");
  auto tt = make_tt(w, [](const Int1&, int&, std::tuple<>&) {}, edges(in), std::tuple<>{},
                    "shrink");
  tt->set_input_reducer<0>([](int& acc, int&& v) { acc += v; });  // unbounded
  make_graph_executable(*tt);
  for (int i = 0; i < 3; ++i) tt->invoke(Int1{7}, 1);
  w.fence();
  tt->set_argstream_size<0>(Int1{7}, 2);  // three items already arrived
}

TEST(TtgCoreDeath, InvariantFailureNamesTtKeyAndRank) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  EXPECT_DEATH(trigger_stream_size_below_received(),
               "TT 'shrink', key \\(7\\), rank [0-9]+: stream size 2 below");
}

/// Rank 0 forwards one value to a sink whose keymap names rank `bad` of a
/// two-rank world.
void send_to_out_of_range_owner(int bad) {
  World w(cfg(2));
  Edge<Int1, int> in("in"), out_e("out");
  auto tt = make_tt(
      w, [](const Int1& k, int& v, std::tuple<Out<Int1, int>>& out) { ttg::send<0>(k, v, out); },
      edges(in), edges(out_e), "fwd");
  tt->set_keymap([](const Int1&) { return 0; });
  auto sink = make_sink(w, out_e, [](const Int1&, int&) {}, "lost");
  sink->set_keymap([bad](const Int1&) { return bad; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  tt->invoke(Int1{4}, 1);
  w.fence();
}

TEST(TtgCoreDeath, OutOfRangeKeymapNamesTtKeyRankAndValue) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  for (const int bad : {2, 9, -1}) {
    const std::string expected = "TT 'lost', key \\(4\\), rank 0: keymap returned rank " +
                                 std::to_string(bad) + ", outside \\[0, 2\\)";
    EXPECT_DEATH(send_to_out_of_range_owner(bad), expected.c_str());
  }
}

TEST(TtgCoreDeath, FenceRequiresExecutable) {
  World w(cfg(1));
  Edge<Int1, int> in("in");
  auto tt = make_tt(w, [](const Int1&, int&, std::tuple<>&) {}, edges(in),
                    std::tuple<>{}, "nonexec");
  EXPECT_THROW(w.fence(), support::ApiError);
}

TEST(TtgCore, UnfinishedDetectsMissingInput) {
  World w(cfg(1));
  Edge<Int1, int> a("a"), b("b");
  auto tt = make_tt(w, [](const Int1&, int&, int&, std::tuple<>&) {}, edges(a, b),
                    std::tuple<>{}, "starved");
  make_graph_executable(*tt);
  // Feed only one of two inputs: the record must stay pending.
  w.run_as(tt->keymap(Int1{0}), [&] {});
  tt->invoke(Int1{0}, 1, 2);  // complete task fires...
  w.fence();
  EXPECT_EQ(w.unfinished(), 0u);
  // ...but a half-delivered one does not.
  Edge<Int1, int> c("c"), d("d");
  auto tt2 = make_tt(w, [](const Int1&, int&, int&, std::tuple<>&) {}, edges(c, d),
                     std::tuple<>{}, "starved2");
  make_graph_executable(*tt2);
  // Deliver to only one terminal by sending through an Out bound to c.
  Out<Int1, int> injector(&w, c.impl_ptr());
  injector.send(Int1{0}, 5);
  w.fence();
  EXPECT_EQ(w.unfinished(), 1u);
}

TEST(TtgCore, TaskIdsOfDifferentTypesAcrossTerminals) {
  // TRSM-style: Int2-keyed task emits to an Int3-keyed consumer.
  World w(cfg(2));
  Edge<Int2, int> in("in");
  Edge<Int3, int> out_e("out");
  auto tt = make_tt(w,
                    [](const Int2& k, int& v, std::tuple<Out<Int3, int>>& out) {
                      ttg::send<0>(Int3{k.i, k.j, v}, v, out);
                    },
                    edges(in), edges(out_e), "rekey");
  Int3 got{};
  auto sink = make_sink(w, out_e, [&](const Int3& k, int&) { got = k; });
  make_graph_executable(*tt);
  make_graph_executable(*sink);
  tt->invoke(Int2{3, 4}, 5);
  w.fence();
  EXPECT_EQ(got, (Int3{3, 4, 5}));
}

}  // namespace
