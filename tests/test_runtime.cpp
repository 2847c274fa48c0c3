// Unit tests for the runtime substrate: scheduler semantics, world/rank
// context, backend communication engines, and the BSP executor.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/bsp.hpp"
#include "runtime/world.hpp"

namespace {

using namespace ttg;
using rt::BackendKind;
using rt::BspExecutor;
using rt::World;
using rt::WorldConfig;

WorldConfig small_world(BackendKind b = BackendKind::Parsec, int nranks = 2) {
  WorldConfig cfg;
  cfg.machine = sim::hawk();
  cfg.machine.cores_per_node = 2;
  cfg.nranks = nranks;
  cfg.backend = b;
  return cfg;
}

TEST(Scheduler, RunsTasksOnWorkers) {
  World w(small_world());
  int done = 0;
  w.scheduler(0).submit({.cost = 1.0, .body = [&] { ++done; }});
  w.scheduler(0).submit({.cost = 1.0, .body = [&] { ++done; }});
  w.scheduler(0).submit({.cost = 1.0, .body = [&] { ++done; }});
  const double t = w.fence();
  EXPECT_EQ(done, 3);
  // 3 unit tasks on 2 workers: makespan 2.
  EXPECT_DOUBLE_EQ(t, 2.0);
  EXPECT_EQ(w.scheduler(0).tasks_run(), 3u);
  EXPECT_DOUBLE_EQ(w.scheduler(0).busy_time(), 3.0);
}

TEST(Scheduler, PriorityOrdersQueue) {
  auto cfg = small_world();
  cfg.machine.cores_per_node = 1;
  World w(cfg);
  auto& s = w.scheduler(0);
  std::vector<int> order;
  // Submit a blocker so the rest queue up, then they should pop by priority.
  s.submit({.cost = 1.0, .body = [&] { order.push_back(-1); }});
  s.submit({.priority = 1, .cost = 1.0, .body = [&] { order.push_back(1); }});
  s.submit({.priority = 3, .cost = 1.0, .body = [&] { order.push_back(3); }});
  s.submit({.priority = 2, .cost = 1.0, .body = [&] { order.push_back(2); }});
  w.fence();
  EXPECT_EQ(order, (std::vector<int>{-1, 3, 2, 1}));
}

TEST(Scheduler, FifoAmongEqualPriorities) {
  auto cfg = small_world();
  cfg.machine.cores_per_node = 1;
  World w(cfg);
  auto& s = w.scheduler(0);
  std::vector<int> order;
  s.submit({.cost = 1.0, .body = [&] { order.push_back(0); }});
  for (int i = 1; i <= 4; ++i)
    s.submit({.priority = 7, .cost = 1.0, .body = [&order, i] { order.push_back(i); }});
  w.fence();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CrossJobTieBreakIsDeterministic) {
  // Equal-priority tasks of different jobs pop in (priority desc, job id
  // asc, enqueue seq asc) order under Strict fairness — submission
  // interleaving across jobs must not perturb the order.
  auto cfg = small_world();
  cfg.machine.cores_per_node = 1;
  World w(cfg);
  auto& s = w.scheduler(0);
  std::vector<std::pair<int, int>> order;  // (job, tag)
  s.submit({.cost = 1.0, .body = [&] { order.emplace_back(0, 0); }});  // blocker
  s.submit({.job = rt::JobId{2}, .priority = 5, .cost = 1.0,
            .body = [&] { order.emplace_back(2, 0); }});
  s.submit({.job = rt::JobId{1}, .priority = 5, .cost = 1.0,
            .body = [&] { order.emplace_back(1, 0); }});
  s.submit({.job = rt::JobId{3}, .priority = 7, .cost = 1.0,
            .body = [&] { order.emplace_back(3, 0); }});
  s.submit({.job = rt::JobId{1}, .priority = 5, .cost = 1.0,
            .body = [&] { order.emplace_back(1, 1); }});
  s.submit({.job = rt::JobId{2}, .priority = 5, .cost = 1.0,
            .body = [&] { order.emplace_back(2, 1); }});
  w.fence();
  const std::vector<std::pair<int, int>> want{
      {0, 0},          // blocker
      {3, 0},          // priority 7 beats everything
      {1, 0}, {1, 1},  // then job 1's priority-5 tasks, FIFO
      {2, 0}, {2, 1},  // then job 2's, FIFO
  };
  EXPECT_EQ(order, want);
}

TEST(Scheduler, WeightedRoundRobinInterleavesByWeight) {
  auto cfg = small_world();
  cfg.machine.cores_per_node = 1;
  World w(cfg);
  auto& s = w.scheduler(0);
  s.set_fairness(rt::FairnessMode::WeightedRR);
  s.configure_job(rt::JobId{1}, /*weight=*/1, /*inflight_cap=*/0);
  s.configure_job(rt::JobId{2}, /*weight=*/2, /*inflight_cap=*/0);
  std::vector<int> order;
  s.submit({.cost = 1.0, .body = [&] { order.push_back(0); }});  // blocker
  for (int i = 0; i < 3; ++i) {
    s.submit({.job = rt::JobId{1}, .cost = 1.0, .body = [&] { order.push_back(1); }});
    s.submit({.job = rt::JobId{2}, .cost = 1.0, .body = [&] { order.push_back(2); }});
  }
  w.fence();
  // Credit rounds: job 1 gets 1 slot, job 2 gets 2 per round (jobs scanned
  // in ascending id within a round).
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 2, 1, 2, 1}));
}

TEST(Scheduler, InflightCapLimitsConcurrency) {
  auto cfg = small_world();  // 2 workers on rank 0
  World w(cfg);
  auto& s = w.scheduler(0);
  s.configure_job(rt::JobId{1}, /*weight=*/1, /*inflight_cap=*/1);
  for (int i = 0; i < 4; ++i) s.submit({.job = rt::JobId{1}, .cost = 1.0, .body = [] {}});
  const double t = w.fence();
  const auto& jc = s.job_counters(rt::JobId{1});
  EXPECT_EQ(jc.tasks_run, 4u);
  EXPECT_EQ(jc.max_inflight, 1);
  EXPECT_DOUBLE_EQ(t, 4.0);  // fully serialized despite 2 workers
}

TEST(Scheduler, ChargeExtendsWorkerBusyTime) {
  auto cfg = small_world();
  cfg.machine.cores_per_node = 1;
  World w(cfg);
  w.scheduler(0).submit({.cost = 1.0, .body = [&] {
    EXPECT_DOUBLE_EQ(w.scheduler(0).charge(0.5), 0.5);
    EXPECT_DOUBLE_EQ(w.scheduler(0).charge(0.25), 0.75);
  }});
  w.scheduler(0).submit({.cost = 1.0, .body = [] {}});
  const double t = w.fence();
  EXPECT_DOUBLE_EQ(t, 2.75);  // 1 + 0.75 post-body + 1
}

TEST(Scheduler, ChargeOutsideTaskIsFree) {
  World w(small_world());
  EXPECT_DOUBLE_EQ(w.scheduler(0).charge(123.0), 0.0);
}

TEST(World, RankContextNestsAndRestores) {
  World w(small_world(BackendKind::Parsec, 4));
  EXPECT_EQ(w.rank(), 0);
  w.run_as(2, [&] {
    EXPECT_EQ(w.rank(), 2);
    w.run_as(3, [&] { EXPECT_EQ(w.rank(), 3); });
    EXPECT_EQ(w.rank(), 2);
  });
  EXPECT_EQ(w.rank(), 0);
  // An ApiError thrown inside the scope restores the rank and job too.
  EXPECT_THROW(w.run_as(3, rt::JobId{2},
                        [] { TTG_REQUIRE(false, "thrown inside run_as"); }),
               support::ApiError);
  EXPECT_EQ(w.rank(), 0);
  EXPECT_EQ(w.current_job(), rt::kDefaultJob);
}

TEST(World, BackendSelection) {
  World wp(small_world(BackendKind::Parsec));
  World wm(small_world(BackendKind::Madness));
  EXPECT_STREQ(wp.comm().name(), "parsec");
  EXPECT_STREQ(wm.comm().name(), "madness");
  EXPECT_TRUE(wp.comm().supports_splitmd());
  EXPECT_FALSE(wm.comm().supports_splitmd());
  EXPECT_TRUE(wp.comm().zero_copy_local());
  EXPECT_FALSE(wm.comm().zero_copy_local());
  // MADNESS pays more per task (futures) than PaRSEC.
  EXPECT_GT(wm.comm().task_overhead(), wp.comm().task_overhead());
}

TEST(World, SplitmdCanBeDisabled) {
  auto cfg = small_world();
  cfg.enable_splitmd = false;
  World w(cfg);
  EXPECT_FALSE(w.comm().supports_splitmd());
}

TEST(CommEngines, SendSideCpuProfiles) {
  World wp(small_world(BackendKind::Parsec));
  World wm(small_world(BackendKind::Madness));
  const std::size_t big = 1 << 20;
  // PaRSEC's splitmd/trivial paths avoid staging copies; MADNESS always
  // serializes whole objects.
  EXPECT_LT(wp.comm().send_side_cpu(big, ser::Protocol::SplitMetadata),
            wm.comm().send_side_cpu(big, ser::Protocol::SplitMetadata));
  EXPECT_LT(wp.comm().send_side_cpu(big, ser::Protocol::Trivial),
            wm.comm().send_side_cpu(big, ser::Protocol::Trivial));
  // Archive types pay a copy on both engines.
  EXPECT_GT(wp.comm().send_side_cpu(big, ser::Protocol::Archive),
            wp.comm().send_side_cpu(big, ser::Protocol::Trivial));
}

TEST(CommEngines, MessageDeliveryEntersDestination) {
  World w(small_world(BackendKind::Parsec, 2));
  bool delivered = false;
  w.comm().send_message(0, 1, 4096, [&] { delivered = true; });
  w.fence();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(w.comm().stats().messages, 1u);
}

TEST(CommEngines, SplitmdProtocolPhases) {
  World w(small_world(BackendKind::Parsec, 2));
  std::vector<int> phases;
  w.comm().send_splitmd(0, 1, 64, 1 << 20, [&] { phases.push_back(1); },
                        [&] { phases.push_back(2); }, [&] { phases.push_back(3); });
  w.fence();
  EXPECT_EQ(phases, (std::vector<int>{1, 2, 3}));  // metadata, payload, release
}

TEST(CommEngines, MadnessAmServerSerializes) {
  // Two large messages to the same destination finish later than one: the
  // single AM server thread deserializes them one after the other.
  auto run_one = [](int nmsgs) {
    World w(small_world(BackendKind::Madness, 3));
    for (int i = 0; i < nmsgs; ++i) w.comm().send_message(1 + (i % 2), 0, 1 << 20, [] {});
    return w.fence();
  };
  const double one = run_one(1);
  const double two = run_one(2);
  EXPECT_GT(two, one * 1.2);
}

TEST(Bsp, ListScheduleMakespan) {
  EXPECT_DOUBLE_EQ(BspExecutor::list_schedule({4, 3, 2, 1}, 2), 5.0);
  EXPECT_DOUBLE_EQ(BspExecutor::list_schedule({1, 1, 1, 1}, 4), 1.0);
  EXPECT_DOUBLE_EQ(BspExecutor::list_schedule({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(BspExecutor::list_schedule({10}, 64), 10.0);
}

TEST(Bsp, ComputePhaseBarriers) {
  BspExecutor bsp(sim::hawk(), 2);
  bsp.compute_phase({1.0, 3.0});
  EXPECT_GE(bsp.clock(0), 3.0);  // barrier synchronized to the max
  EXPECT_GE(bsp.clock(1), 3.0);
}

TEST(Bsp, BroadcastTreeDepth) {
  BspExecutor b2(sim::hawk(), 2), b8(sim::hawk(), 8);
  b2.broadcast(0, 1 << 20);
  b8.broadcast(0, 1 << 20);
  EXPECT_GT(b8.now(), b2.now());  // log2(8) = 3 hops vs 1
  EXPECT_EQ(b2.messages(), 1u);
  EXPECT_EQ(b8.messages(), 7u);
}

TEST(Bsp, P2pAdvancesBothClocks) {
  BspExecutor bsp(sim::hawk(), 2);
  bsp.compute(0, 5.0);
  bsp.p2p(0, 1, 1 << 20);
  EXPECT_GT(bsp.clock(1), 5.0);  // receiver waited for the sender
  EXPECT_GT(bsp.bytes_sent(), 0u);
}

TEST(Bsp, FabricTimeScalesWithBytes) {
  BspExecutor bsp(sim::hawk(), 16);
  EXPECT_GT(bsp.fabric_time(1ull << 30), bsp.fabric_time(1ull << 20));
}

TEST(World, FlopsAccounting) {
  World w(small_world());
  w.add_flops(1e9);
  w.add_flops(5e8);
  EXPECT_DOUBLE_EQ(w.total_flops(), 1.5e9);
}

TEST(Trace, RecordsNamedTasks) {
  World w(small_world());
  w.enable_tracing();
  w.scheduler(0).submit({.priority = 1, .cost = 2.0, .name = "alpha", .body = [] {}});
  w.scheduler(0).submit({.cost = 3.0, .name = "beta", .body = [] {}});
  w.scheduler(1).submit({.cost = 1.0, .name = "alpha", .body = [] {}});
  w.fence();
  const auto& rec = w.tracer().records();
  ASSERT_EQ(rec.size(), 3u);
  auto sum = w.tracer().summarize();
  EXPECT_EQ(sum["alpha"].count, 2u);
  EXPECT_DOUBLE_EQ(sum["alpha"].total_time, 3.0);
  EXPECT_DOUBLE_EQ(sum["alpha"].max_time, 2.0);
  EXPECT_EQ(sum["beta"].count, 1u);
}

TEST(Trace, StartEndSpanIncludesCharges) {
  auto cfg = small_world();
  cfg.machine.cores_per_node = 1;
  World w(cfg);
  w.enable_tracing();
  w.scheduler(0).submit({.cost = 1.0, .name = "t",
                         .body = [&] { w.scheduler(0).charge(0.5); }});
  w.fence();
  const auto& r = w.tracer().records().at(0);
  EXPECT_DOUBLE_EQ(r.start, 0.0);
  EXPECT_DOUBLE_EQ(r.end, 1.5);
}

TEST(Trace, UnnamedTasksNotRecorded) {
  World w(small_world());
  w.enable_tracing();
  w.scheduler(0).submit({.cost = 1.0, .body = [] {}});
  w.fence();
  EXPECT_EQ(w.tracer().size(), 0u);
}

TEST(Trace, BusyPerRankAndUtilization) {
  World w(small_world());  // 2 ranks x 2 workers
  w.enable_tracing();
  w.scheduler(0).submit({.cost = 2.0, .name = "x", .body = [] {}});
  w.scheduler(1).submit({.cost = 2.0, .name = "x", .body = [] {}});
  const double makespan = w.fence();
  auto busy = w.tracer().busy_per_rank(2);
  EXPECT_DOUBLE_EQ(busy[0], 2.0);
  EXPECT_DOUBLE_EQ(busy[1], 2.0);
  EXPECT_NEAR(w.tracer().utilization(2, 2, makespan), 0.5, 1e-12);
}

TEST(Trace, SummaryTableRenders) {
  World w(small_world());
  w.enable_tracing();
  w.scheduler(0).submit({.cost = 1.0, .name = "kernel", .body = [] {}});
  w.fence();
  const auto s = w.tracer().summary_table();
  EXPECT_NE(s.find("kernel"), std::string::npos);
  EXPECT_NE(s.find("count"), std::string::npos);
}

TEST(Trace, TtTasksCarryTemplateNames) {
  // End-to-end: TT-created tasks appear under the template's name.
  World w(small_world());
  w.enable_tracing();
  // (exercised through the ttg layer in test_ttg_core; here via scheduler)
  w.scheduler(0).submit({.priority = 2, .cost = 1.0, .name = "POTRF", .body = [] {}});
  w.scheduler(0).submit({.priority = 1, .cost = 1.0, .name = "TRSM", .body = [] {}});
  w.fence();
  auto sum = w.tracer().summarize();
  EXPECT_EQ(sum.size(), 2u);
}

}  // namespace
