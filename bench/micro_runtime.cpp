// Micro-benchmarks (google-benchmark) of the substrate hot paths: archive
// serialization, event-engine throughput, scheduler throughput, a small
// end-to-end TTG pipeline, the dense tile kernels and SPD generator on real
// payloads, and the MRA two-scale and projection kernels.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "linalg/kernels.hpp"
#include "linalg/matrix_gen.hpp"
#include "linalg/tile.hpp"
#include "mra/function_tree.hpp"
#include "serialization/traits.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;

void BM_SerializeTile(benchmark::State& state) {
  linalg::Tile t(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  for (auto& v : t.data()) v = 1.5;
  for (auto _ : state) {
    auto buf = ser::to_bytes(t);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.wire_bytes()));
}
BENCHMARK(BM_SerializeTile)->Arg(32)->Arg(128)->Arg(512);

void BM_DeserializeTile(benchmark::State& state) {
  linalg::Tile t(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  const auto buf = ser::to_bytes(t);
  for (auto _ : state) {
    auto out = ser::from_bytes<linalg::Tile>(buf);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.wire_bytes()));
}
BENCHMARK(BM_DeserializeTile)->Arg(32)->Arg(128)->Arg(512);

void BM_EngineEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) e.at(static_cast<double>(i), [] {});
    e.run();
    benchmark::DoNotOptimize(e.events_processed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EngineEvents)->Arg(1024)->Arg(16384);

void BM_EngineCancellableEvents(benchmark::State& state) {
  // The retransmission-timer pattern: arm a cancellable event per message,
  // cancel half of them (the acked ones), drain the rest. Exercises the
  // pooled cancel slots and the heap's skip-without-advancing path.
  for (auto _ : state) {
    sim::Engine e;
    const int n = static_cast<int>(state.range(0));
    std::vector<sim::Engine::CancelToken> tokens;
    tokens.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      tokens.push_back(e.at_cancellable(static_cast<double>(i), [] {}));
    for (int i = 0; i < n; i += 2) sim::Engine::cancel(tokens[static_cast<std::size_t>(i)]);
    e.run();
    benchmark::DoNotOptimize(e.events_processed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EngineCancellableEvents)->Arg(1024)->Arg(16384);

// One construct + dispatch + destroy round-trip of an event closure.
// Arg 0: EventFn, 16-byte capture (inline buffer — the steady-state path).
// Arg 1: EventFn, 88-byte capture from a FnArena (pooled overflow).
// Arg 2: std::function with the same 88-byte capture — the engine's former
//        closure representation, one heap allocation per event.
void BM_EventClosureDispatch(benchmark::State& state) {
  struct Fat {
    std::uint64_t pad[10] = {};
    std::uint64_t* out = nullptr;
    void operator()() const { ++*out; }
  };
  static_assert(sizeof(Fat) > sim::EventFn::kInlineSize);
  static_assert(sizeof(Fat) <= sim::FnArena::kPayload);
  sim::FnArena arena;
  // As on the engine hot path: the draining thread owns the arena it is
  // recycling through, so frees take the non-atomic local-list route.
  sim::FnArena::OwnerScope own(arena);
  std::uint64_t sink = 0;
  const int mode = static_cast<int>(state.range(0));
  for (auto _ : state) {
    switch (mode) {
      case 0: {
        sim::EventFn fn([&sink] { ++sink; });
        fn();
        break;
      }
      case 1: {
        sim::EventFn fn(Fat{.out = &sink}, &arena);
        fn();
        break;
      }
      default: {
        std::function<void()> fn{Fat{.out = &sink}};
        fn();
        break;
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventClosureDispatch)->Arg(0)->Arg(1)->Arg(2);

// Sharded-engine epoch turnover: chains of cross-lane hops, each paying
// exactly the lookahead, so every event is deferred, merged, renumbered and
// redistributed at a barrier. Measures the k-way merge + renumber +
// parallel-redistribution machinery as lane count grows.
void BM_BarrierMergeRenumber(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const int ranks = lanes * 8;
  constexpr int kHops = 32;
  struct Hop {
    sim::Engine* e;
    int ranks;
    int r;
    int left;
    void operator()() const {
      if (left <= 0) return;
      const int nxt = (r + 7) % ranks;
      e->after_on(e->lane_of(nxt), 1e-6, Hop{e, ranks, nxt, left - 1});
    }
  };
  for (auto _ : state) {
    sim::EngineConfig cfg;
    cfg.lanes = lanes;
    cfg.nranks = ranks;
    cfg.lookahead = 1e-6;
    sim::Engine e(cfg);
    for (int r = 0; r < ranks; ++r)
      e.at_on(e.lane_of(r), 0.0, Hop{&e, ranks, r, kHops});
    e.run();
    benchmark::DoNotOptimize(e.events_processed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * ranks *
                          (kHops + 1));
}
BENCHMARK(BM_BarrierMergeRenumber)->Arg(4)->Arg(16)->Arg(64);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    rt::WorldConfig cfg;
    cfg.nranks = 1;
    cfg.machine.cores_per_node = 8;
    rt::World w(cfg);
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i)
      w.scheduler(0).submit({.priority = i % 3, .cost = 1e-6, .body = [] {}});
    w.fence();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SchedulerThroughput)->Arg(1024)->Arg(8192);

void BM_TtgPipeline(benchmark::State& state) {
  for (auto _ : state) {
    rt::WorldConfig cfg;
    cfg.nranks = 4;
    rt::World w(cfg);
    Edge<Int1, int> a("a"), b("b");
    auto tt = make_tt(w,
                      [](const Int1& k, int& v, std::tuple<Out<Int1, int>>& out) {
                        ttg::send<0>(k, v + 1, out);
                      },
                      edges(a), edges(b), "inc");
    long sum = 0;
    auto sink = make_sink(w, b, [&](const Int1&, int& v) { sum += v; });
    make_graph_executable(*tt);
    make_graph_executable(*sink);
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) tt->invoke(Int1{i}, i);
    w.fence();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_TtgPipeline)->Arg(256)->Arg(2048);

// Host-side cost of driving a 32-rank single-owner streaming reduction
// through the simulator: Arg = reduction tree arity (0 = flat funnel into
// the owner, 4 = combined partials at interior ranks). Measures simulator
// event throughput of the two routings, not simulated time.
void BM_StreamingReduceFanIn(benchmark::State& state) {
  const int ranks = 32;
  const int arity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rt::WorldConfig cfg;
    cfg.nranks = ranks;
    cfg.reduce_tree_arity = arity;
    rt::World w(cfg);
    Edge<Int1, Void> start("start");
    Edge<Int1, long long> stream("stream"), out_e("out");
    auto prod = make_tt(w,
                        [](const Int1& k, Void&,
                           std::tuple<Out<Int1, long long>>& out) {
                          ttg::send<0>(Int1{0}, static_cast<long long>(k.i + 1),
                                       out);
                        },
                        edges(start), edges(stream), "produce");
    prod->set_keymap([ranks](const Int1& k) { return k.i % ranks; });
    auto red = make_tt(w,
                       [](const Int1& k, long long& sum,
                          std::tuple<Out<Int1, long long>>& out) {
                         ttg::send<0>(k, sum, out);
                       },
                       edges(stream), edges(out_e), "reduce");
    red->set_input_reducer<0>([](long long& acc, long long&& v) { acc += v; },
                              ranks);
    red->set_keymap([](const Int1&) { return 0; });
    long long sum = 0;
    auto sink = make_sink(w, out_e, [&](const Int1&, long long& v) { sum = v; });
    sink->set_keymap([](const Int1&) { return 0; });
    make_graph_executable(*prod);
    make_graph_executable(*red);
    make_graph_executable(*sink);
    for (int r = 0; r < ranks; ++r) prod->invoke(Int1{r}, Void{});
    w.fence();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * ranks);
}
BENCHMARK(BM_StreamingReduceFanIn)->Arg(0)->Arg(4);

// Dense tile kernels on real b x b tiles: the linalg layer's host cost.
// Args are {kernel, b}; the label names the kernel and "flops" is its rate.
// Each iteration restores the output tile untimed, since potrf and trsm
// overwrite their operand.
void BM_TileKernel(benchmark::State& state) {
  enum Kernel { kGemmNt, kSyrk, kPotrf, kTrsm, kGemmNnAcc };
  static constexpr const char* kNames[] = {"gemm_nt", "syrk", "potrf", "trsm", "gemm_nn_acc"};
  const auto kernel = static_cast<Kernel>(state.range(0));
  const int b = static_cast<int>(state.range(1));
  support::Rng rng(1);
  const linalg::Tile spd = linalg::random_spd_dense(rng, b);
  linalg::Tile l = spd;
  if (!linalg::potrf(l)) state.SkipWithError("tile is not SPD");
  const linalg::Tile x = linalg::random_tile(rng, b, b);
  const linalg::Tile y = linalg::random_tile(rng, b, b);
  const linalg::Tile c = linalg::random_tile(rng, b, b);
  const linalg::Tile& init = kernel == kPotrf ? spd : kernel == kTrsm ? x : c;
  linalg::Tile t;
  for (auto _ : state) {
    state.PauseTiming();
    t = init;
    state.ResumeTiming();
    switch (kernel) {
      case kGemmNt: linalg::gemm_nt(t, x, y); break;
      case kSyrk: linalg::syrk(x, t); break;
      case kPotrf: benchmark::DoNotOptimize(linalg::potrf(t)); break;
      case kTrsm: linalg::trsm(l, t); break;
      case kGemmNnAcc: linalg::gemm_nn_acc(t, x, y); break;
    }
    benchmark::ClobberMemory();
  }
  const double flops[] = {linalg::flops::gemm(b, b, b), linalg::flops::syrk(b, b),
                          linalg::flops::potrf(b), linalg::flops::trsm(b, b),
                          linalg::flops::gemm(b, b, b)};
  state.SetLabel(kNames[kernel]);
  state.counters["flops"] =
      benchmark::Counter(flops[kernel], benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_TileKernel)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {128, 256}})
    ->Unit(benchmark::kMicrosecond);

// The SPD test-matrix generator (B B^T + n I) behind every real POTRF.
void BM_RandomSpd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    support::Rng rng(1);
    benchmark::DoNotOptimize(linalg::random_spd_dense(rng, n));
  }
}
BENCHMARK(BM_RandomSpd)->Arg(512)->Unit(benchmark::kMillisecond);

// The MRA two-scale kernels at order k: one filter of 8 child blocks plus
// one unfilter_all of the parent, the work of one compress task's math.
void BM_TwoScale(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const mra::TwoScale ts(k);
  support::Rng rng(1);
  std::array<std::vector<double>, 8> children;
  for (auto& c : children) {
    c.resize(static_cast<std::size_t>(ts.coeffs_per_node()));
    for (double& v : c) v = rng.uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    const auto parent = ts.filter(children);
    benchmark::DoNotOptimize(parent.data());
    const auto proj = ts.unfilter_all(parent);
    benchmark::DoNotOptimize(proj[7].data());
  }
}
BENCHMARK(BM_TwoScale)->Arg(6)->Arg(10)->Unit(benchmark::kMicrosecond);

// One adaptive-projection step (8 child projections, filter, unfilter_all,
// residual norm) on a context without the projection cache, so every
// iteration does the math. The box is the level-3 box holding the center.
void BM_MraProjectNode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const mra::Gaussian g{3.0e4, 1.0, {0.47, 0.53, 0.51}};
  const mra::MraContext ctx(k, {g});
  const mra::TreeKey key{0, 3, 3, 4, 4};
  for (auto _ : state) benchmark::DoNotOptimize(ctx.project_node(key).dnorm2);
}
BENCHMARK(BM_MraProjectNode)->Arg(10)->Unit(benchmark::kMicrosecond);

}  // namespace
