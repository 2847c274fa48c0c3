// Sharded-engine unit tests: lane mapping, epoch windows, deterministic
// serial-order tie-breaking, shared-lane transactions, cancellables, and the
// threaded lane drain. Everything here runs at the sim::Engine level with
// synthetic events; runtime-level serial-vs-sharded equivalence lives in
// test_scale_equiv.cpp. The threaded cases are the TSan CI leg's target.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace {

using ttg::sim::Engine;
using ttg::sim::EngineConfig;
using ttg::sim::Time;

constexpr double kLat = 1e-3;  // cross-rank latency == lookahead

EngineConfig sharded_cfg(int lanes, int nranks, int threads = 1) {
  EngineConfig cfg;
  cfg.lanes = lanes;
  cfg.nranks = nranks;
  cfg.threads = threads;
  cfg.lookahead = kLat;
  return cfg;
}

struct Rec {
  Time t = 0.0;
  int rank = 0;
  std::uint64_t path = 0;
  bool operator==(const Rec& o) const {
    return t == o.t && rank == o.rank && path == o.path;
  }
};

/// Deterministic event cascade over R synthetic ranks. Every event logs
/// (now, rank, path) into the owning rank's log, then spawns: two same-lane
/// children at sub-window offsets (including a dt = 0 tie, exercising the
/// composite-key tie-break) and one cross-rank send paying >= the lookahead
/// latency. Identical logs across engine configurations == identical
/// execution order.
void cascade(Engine& eng, int nranks, int rank, int depth, std::uint64_t path,
             std::vector<std::vector<Rec>>& logs) {
  logs[static_cast<std::size_t>(rank)].push_back(Rec{eng.now(), rank, path});
  if (depth >= 4) return;
  for (int i = 0; i < 2; ++i) {
    eng.after_on(eng.lane_of(rank), i * 1e-5, [&eng, nranks, rank, depth, path, i,
                                               &logs] {
      cascade(eng, nranks, rank, depth + 1, path * 8 + 1 + static_cast<unsigned>(i),
              logs);
    });
  }
  const int dst = (rank * 5 + depth + 1) % nranks;
  eng.after_on(eng.lane_of(dst), kLat + 1e-6 * (rank + 1),
               [&eng, nranks, dst, depth, path, &logs] {
                 cascade(eng, nranks, dst, depth + 1, path * 8 + 7, logs);
               });
}

std::vector<std::vector<Rec>> run_cascade(Engine& eng, int nranks) {
  std::vector<std::vector<Rec>> logs(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    eng.at_on(eng.lane_of(r), 1e-7 * r, [&eng, nranks, r, &logs] {
      cascade(eng, nranks, r, 0, 1, logs);
    });
  }
  eng.run();
  return logs;
}

TEST(EngineSharded, LaneMappingIsContiguousAndComplete) {
  Engine eng(sharded_cfg(4, 10));
  EXPECT_TRUE(eng.sharded());
  EXPECT_EQ(eng.lanes(), 4);
  int prev = 0;
  for (int r = 0; r < 10; ++r) {
    const int l = eng.lane_of(r);
    EXPECT_GE(l, prev);  // contiguous rank blocks, monotone in rank
    EXPECT_LT(l, eng.lanes());
    prev = l;
  }
  EXPECT_EQ(eng.lane_of(0), 0);
  EXPECT_EQ(eng.lane_of(9), eng.lanes() - 1);
  // Lanes are clamped to the rank count.
  Engine small(sharded_cfg(16, 3));
  EXPECT_EQ(small.lanes(), 3);
}

TEST(EngineSharded, SerialConfigSelectsReferenceEngine) {
  Engine eng(EngineConfig{});
  EXPECT_FALSE(eng.sharded());
  EXPECT_EQ(eng.lanes(), 1);
  EXPECT_EQ(eng.lane_of(7), 0);
  // at_on / after_on / shared degrade to plain scheduling and inline calls.
  int seen = 0;
  eng.at_on(0, 1.0, [&] { seen += 1; });
  eng.shared([&] { seen += 10; });
  EXPECT_EQ(seen, 10);
  EXPECT_EQ(eng.run(), 1.0);
  EXPECT_EQ(seen, 11);
}

TEST(EngineSharded, CascadeMatchesSerialExactly) {
  Engine serial{};
  const auto want = run_cascade(serial, 8);
  std::uint64_t total = 0;
  for (const auto& l : want) total += l.size();
  EXPECT_EQ(serial.events_processed(), total);
  for (const int lanes : {1, 2, 4, 8}) {
    Engine eng(sharded_cfg(lanes, 8));
    const auto got = run_cascade(eng, 8);
    EXPECT_EQ(got, want) << "lanes=" << lanes;
    EXPECT_EQ(eng.events_processed(), serial.events_processed())
        << "lanes=" << lanes;
    EXPECT_TRUE(eng.idle());
  }
}

TEST(EngineSharded, CascadeFinalTimeMatchesSerial) {
  Engine serial{};
  run_cascade(serial, 6);
  Engine eng(sharded_cfg(3, 6));
  run_cascade(eng, 6);
  // run() already returned inside run_cascade; compare the final clocks.
  EXPECT_EQ(eng.now(), serial.now());
}

TEST(EngineSharded, ThreadedDrainMatchesSerial) {
  Engine serial{};
  const auto want = run_cascade(serial, 8);
  for (const int threads : {2, 4}) {
    Engine eng(sharded_cfg(4, 8, threads));
    const auto got = run_cascade(eng, 8);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

TEST(EngineSharded, RepeatedRunsAreBitIdentical) {
  Engine a(sharded_cfg(4, 8, 2));
  Engine b(sharded_cfg(4, 8, 2));
  EXPECT_EQ(run_cascade(a, 8), run_cascade(b, 8));
}

TEST(EngineSharded, SharedTransactionsReplayInSerialOrder) {
  // Events on every lane, with colliding times across lanes, each append to
  // one shared log through Engine::shared(). The shared order must equal the
  // serial engine's inline call order.
  auto workload = [](Engine& eng, std::vector<int>& order) {
    for (int r = 0; r < 6; ++r) {
      for (int k = 0; k < 3; ++k) {
        eng.at_on(eng.lane_of(r), 1e-4 * k, [&eng, &order, r, k] {
          eng.shared([&order, r, k] { order.push_back(r * 10 + k); });
          // A follow-up same-lane event inside the window, which also logs:
          // interleaves lane events with transaction replays.
          eng.after_on(eng.lane_of(r), 1e-5, [&eng, &order, r, k] {
            eng.shared([&order, r, k] { order.push_back(100 + r * 10 + k); });
          });
        });
      }
    }
    eng.run();
  };
  std::vector<int> want;
  Engine serial{};
  workload(serial, want);
  ASSERT_EQ(want.size(), 36u);
  for (const int lanes : {1, 3, 6}) {
    std::vector<int> got;
    Engine eng(sharded_cfg(lanes, 6));
    workload(eng, got);
    EXPECT_EQ(got, want) << "lanes=" << lanes;
  }
}

TEST(EngineSharded, SharedSeesCallersVirtualNow) {
  // During barrier replay the clock must rewind to the caller's now.
  std::vector<Time> serial_times, sharded_times;
  auto workload = [](Engine& eng, std::vector<Time>& times) {
    for (int r = 0; r < 4; ++r) {
      eng.at_on(eng.lane_of(r), 1e-5 * (r + 1),
                [&eng, &times] { eng.shared([&eng, &times] { times.push_back(eng.now()); }); });
    }
    eng.run();
  };
  Engine serial{};
  workload(serial, serial_times);
  Engine eng(sharded_cfg(4, 4));
  workload(eng, sharded_times);
  EXPECT_EQ(sharded_times, serial_times);
}

TEST(EngineSharded, CancelAcrossEpochsSkipsTheEvent) {
  Engine eng(sharded_cfg(2, 4));
  int fired = 0;
  Engine::CancelToken token;
  // Arm a timer far beyond the epoch window (it is deferred + renumbered),
  // then cancel it from a later event on the same lane but a later epoch.
  eng.at_on(0, 0.0, [&] {
    token = eng.after_cancellable(10 * kLat, [&] { fired += 1; });
  });
  eng.at_on(0, 3 * kLat, [&] { Engine::cancel(token); });
  eng.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.events_processed(), 2u);  // the cancelled timer never counts
  EXPECT_EQ(eng.pooled_cancel_slots(), 1u);
}

TEST(EngineSharded, CancelledInWindowTimerSkipsToo) {
  Engine serial{};
  Engine eng(sharded_cfg(2, 4));
  for (Engine* e : {&serial, &eng}) {
    int fired = 0;
    e->at_on(0, 0.0, [&, e] {
      auto token = e->after_cancellable(1e-5, [&] { fired += 100; });
      e->after_on(0, 1e-6, [&, token] { Engine::cancel(token); });
    });
    e->run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(e->events_processed(), 2u);
  }
}

TEST(EngineSharded, SlotPoolRecyclesPerLane) {
  Engine eng(sharded_cfg(2, 4));
  for (int round = 0; round < 3; ++round) {
    const Time base = eng.now();
    for (int r = 0; r < 4; ++r) {
      eng.at_on(eng.lane_of(r), base + 1e-6 * (r + 1), [&eng, r] {
        eng.after_cancellable(1e-6, [] {});
      });
    }
    eng.run();
    // Every armed timer fired and returned its slot to its lane's pool; the
    // pool never grows beyond one slot per rank.
    EXPECT_LE(eng.pooled_cancel_slots(), 4u);
  }
}

TEST(EngineSharded, DriverPushesBetweenRunsStaySerial) {
  // Multiple run() calls (one per fence) with driver pushes in between must
  // keep a monotone clock and consistent ordering. The cross-lane order is
  // observed through shared(), which is the engine's serial-order witness.
  Engine serial{};
  Engine eng(sharded_cfg(3, 6));
  for (Engine* e : {&serial, &eng}) {
    std::vector<int> order;
    auto mark = [e, &order](int id) {
      return [e, &order, id] { e->shared([&order, id] { order.push_back(id); }); };
    };
    e->at_on(e->lane_of(1), 1e-4, mark(1));
    e->run();
    e->at_on(e->lane_of(5), e->now() + 1e-4, mark(2));
    e->at_on(e->lane_of(0), e->now() + 1e-4, mark(3));
    e->run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
  EXPECT_EQ(eng.now(), serial.now());
}

EngineConfig adaptive_cfg(int lanes, int nranks, int threads = 1,
                          double cap = 64.0) {
  EngineConfig cfg = sharded_cfg(lanes, nranks, threads);
  cfg.adaptive = true;
  cfg.window_cap = cap;
  return cfg;
}

TEST(EngineSharded, ThreadedBarrierDeterministicAcrossThreadCounts) {
  // The barrier's parallel phases (pre-sorted drain, k-way merge, threaded
  // redistribution) must produce the serial pop order at every thread count,
  // including threads > lanes (idle workers) and threads > hardware cores.
  Engine serial{};
  const auto want = run_cascade(serial, 8);
  for (const int threads : {1, 2, 4, 8}) {
    Engine eng(sharded_cfg(8, 8, threads));
    const auto got = run_cascade(eng, 8);
    EXPECT_EQ(got, want) << "threads=" << threads;
    EXPECT_EQ(eng.events_processed(), serial.events_processed())
        << "threads=" << threads;
  }
}

TEST(EngineSharded, StatsCountersTrackTheRun) {
  Engine eng(sharded_cfg(4, 8, 2));
  run_cascade(eng, 8);
  const auto st = eng.stats();
  EXPECT_GT(st.epochs, 0u);
  EXPECT_GT(st.deferred_events, 0u);  // the cascade hops cross-lane
  EXPECT_GE(st.run_seconds, st.barrier_seconds);
  EXPECT_GE(st.barrier_seconds, 0.0);
  // Serial engines keep the sharded counters at zero but still time the run.
  Engine serial{};
  run_cascade(serial, 8);
  EXPECT_EQ(serial.stats().epochs, 0u);
  EXPECT_GT(serial.stats().run_seconds, 0.0);
}

TEST(EngineSharded, AdaptiveWindowsMatchSerialExactly) {
  Engine serial{};
  const auto want = run_cascade(serial, 8);
  for (const int threads : {1, 4}) {
    Engine eng(adaptive_cfg(4, 8, threads));
    const auto got = run_cascade(eng, 8);
    EXPECT_EQ(got, want) << "adaptive threads=" << threads;
    EXPECT_EQ(eng.now(), serial.now());
    EXPECT_EQ(eng.events_processed(), serial.events_processed());
  }
}

TEST(EngineSharded, AdaptiveExtensionsAmortizeEpochs) {
  // A sparse same-lane chain (events 10 lookaheads apart, every other lane
  // idle) forces the conservative engine through one ~lookahead-wide epoch
  // per event; the adaptive engine sees the other lanes' next-event time at
  // infinity, extends the window to the cap, and batches several events per
  // epoch. The chain itself must be untouched by the partition.
  auto chain = [](Engine& eng, std::vector<Time>& log) {
    struct Step {
      Engine* e;
      std::vector<Time>* log;
      int left;
      void operator()() const {
        log->push_back(e->now());
        if (left > 0) e->after_on(0, 10 * kLat, Step{e, log, left - 1});
      }
    };
    eng.at_on(0, kLat, Step{&eng, &log, 31});
    eng.run();
  };
  std::vector<Time> want;
  Engine serial{};
  chain(serial, want);
  ASSERT_EQ(want.size(), 32u);

  std::vector<Time> conservative_log, adaptive_log;
  Engine cons(sharded_cfg(4, 8));
  chain(cons, conservative_log);
  Engine adap(adaptive_cfg(4, 8));
  chain(adap, adaptive_log);
  EXPECT_EQ(conservative_log, want);
  EXPECT_EQ(adaptive_log, want);
  EXPECT_GT(adap.stats().adaptive_extensions, 0u);
  EXPECT_LT(adap.stats().epochs, cons.stats().epochs);
}

TEST(EngineSharded, DegenerateEpochWindowStillTerminates) {
  // Regression for the std::nextafter epoch guard: at t ~ 1e18 a lookahead
  // of 1e-9 vanishes in double rounding (start + lookahead == start), so an
  // unguarded window would drain zero events per epoch and spin forever.
  // The guard widens the window by one ULP; ties at the epoch start must
  // still replay in serial push order.
  constexpr Time kHuge = 1e18;
  auto workload = [](Engine& eng, std::vector<int>& order) {
    for (int r = 0; r < 4; ++r) {
      eng.at_on(eng.lane_of(r), kHuge, [&eng, &order, r] {
        eng.shared([&order, r] { order.push_back(r); });
        eng.after_on(eng.lane_of(r), 0.0, [&eng, &order, r] {
          eng.shared([&order, r] { order.push_back(10 + r); });
        });
      });
    }
    eng.run();
  };
  std::vector<int> want;
  Engine serial{};
  workload(serial, want);
  ASSERT_EQ(want.size(), 8u);
  for (const bool adaptive : {false, true}) {
    EngineConfig cfg = sharded_cfg(4, 4);
    cfg.lookahead = 1e-9;
    cfg.adaptive = adaptive;
    std::vector<int> got;
    Engine eng(cfg);
    workload(eng, got);
    EXPECT_EQ(got, want) << "adaptive=" << adaptive;
    EXPECT_EQ(eng.now(), serial.now());
    EXPECT_GT(eng.stats().epochs, 0u);
  }
}

// A closure two uint64 lanes too big for EventFn's inline buffer: forces the
// arena (or heap-fallback) path while staying under FnArena::kPayload.
struct FatPayload {
  std::uint64_t pad[7] = {1, 2, 3, 4, 5, 6, 7};
  std::uint64_t* sink;
  void operator()() const { *sink += pad[6]; }
};
static_assert(sizeof(FatPayload) > ttg::sim::EventFn::kInlineSize);
static_assert(sizeof(FatPayload) <= ttg::sim::FnArena::kPayload);

TEST(EventFnTest, InlineDispatchAndMove) {
  using ttg::sim::EventFn;
  std::uint64_t hits = 0;
  EventFn fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(hits, 1u);
  moved.reset();
  EXPECT_FALSE(static_cast<bool>(moved));
}

TEST(EventFnTest, ArenaOverflowRecyclesBlocks) {
  using ttg::sim::EventFn;
  using ttg::sim::FnArena;
  FnArena arena;
  const std::uint64_t heap_before = EventFn::heap_allocations();
  std::uint64_t sink = 0;
  // First wave populates the slab; every later wave reuses freed blocks.
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<EventFn> fns;
    for (int i = 0; i < 64; ++i) fns.emplace_back(FatPayload{.sink = &sink}, &arena);
    for (auto& f : fns) f();
  }
  EXPECT_EQ(sink, 4u * 64u * 7u);
  EXPECT_EQ(arena.slabs_allocated(), 1u);  // 256-block slab covers all waves
  EXPECT_EQ(EventFn::heap_allocations(), heap_before);
}

TEST(EventFnTest, NullArenaAndOversizeFallBackToHeapCounted) {
  using ttg::sim::EventFn;
  const std::uint64_t before = EventFn::heap_allocations();
  std::uint64_t sink = 0;
  {
    EventFn no_arena(FatPayload{.sink = &sink});  // fat + no arena -> heap
    no_arena();
  }
  EXPECT_EQ(EventFn::heap_allocations(), before + 1);
  struct Huge {
    std::uint64_t pad[32];
    std::uint64_t* sink;
    void operator()() const { *sink += 1; }
  };
  static_assert(sizeof(Huge) > ttg::sim::FnArena::kPayload);
  ttg::sim::FnArena arena;
  {
    EventFn oversize(Huge{.pad = {}, .sink = &sink}, &arena);  // arena too small
    oversize();
  }
  EXPECT_EQ(EventFn::heap_allocations(), before + 2);
  EXPECT_EQ(arena.slabs_allocated(), 0u);
  EXPECT_EQ(sink, 8u);
}

TEST(EngineSharded, FatClosuresStayInArenasAcrossEpochs) {
  // Capture-heavy timers (> inline size) must come from the per-lane arenas:
  // after a warm-up wave, further waves on the same engine allocate no new
  // slabs and never touch the heap fallback.
  Engine eng(sharded_cfg(2, 4));
  std::uint64_t sink = 0;
  auto wave = [&] {
    const Time base = eng.now();
    for (int r = 0; r < 4; ++r) {
      eng.at_on(eng.lane_of(r), base + kLat * (r + 1),
                FatPayload{.sink = &sink});
      // Cancellable fat timers exercise slot + arena recycling together.
      eng.at_on(eng.lane_of(r), base + kLat * (r + 1) + 1e-6, [&eng, &sink] {
        eng.after_cancellable(1e-6, FatPayload{.sink = &sink});
      });
    }
    eng.run();
  };
  const std::uint64_t heap_before = ttg::sim::EventFn::heap_allocations();
  wave();
  const auto warm = eng.stats();
  for (int i = 0; i < 3; ++i) wave();
  const auto done = eng.stats();
  EXPECT_EQ(done.fn_arena_slabs, warm.fn_arena_slabs);  // steady state: flat
  EXPECT_EQ(ttg::sim::EventFn::heap_allocations(), heap_before);
  EXPECT_EQ(done.fn_heap_allocs, warm.fn_heap_allocs);
  EXPECT_GT(sink, 0u);
  EXPECT_LE(eng.pooled_cancel_slots(), 4u);
}

// GTEST_FLAG_SET only exists in googletest >= 1.12; fall back to the classic
// flag accessor on older releases.
void use_threadsafe_death_tests() {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
}

TEST(EngineShardedDeathTest, CrossLaneEventInsideLookaheadAborts) {
  use_threadsafe_death_tests();
  EXPECT_DEATH(
      {
        Engine eng(sharded_cfg(4, 8));
        eng.at_on(0, 0.0, [&eng] {
          // Tries to reach another lane in under the lookahead: forbidden.
          eng.after_on(eng.lanes() - 1, 1e-9, [] {});
        });
        eng.run();
      },
      "cross-lane event inside the lookahead window");
}

TEST(EngineShardedDeathTest, AdaptiveWindowStillRejectsLookaheadViolations) {
  use_threadsafe_death_tests();
  EXPECT_DEATH(
      {
        Engine eng(adaptive_cfg(4, 8));
        // Park late events on the other lanes (multi-active epoch, so the
        // windows stay conservative): adaptive mode must enforce the same
        // cross-lane latency contract as the conservative engine.
        for (int l = 1; l < 4; ++l) eng.at_on(l, 20 * kLat, [] {});
        eng.at_on(0, 0.0, [&eng] {
          eng.after_on(1, kLat / 2, [] {});  // sub-lookahead hop: forbidden
        });
        eng.run();
      },
      "cross-lane event inside the lookahead window");
}

}  // namespace
