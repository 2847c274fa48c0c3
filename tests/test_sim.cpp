// Unit tests for the discrete-event engine, resources, and machine models.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/resource.hpp"

namespace {

using namespace ttg::sim;

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.at(3.0, [&] { order.push_back(3); });
  e.at(1.0, [&] { order.push_back(1); });
  e.at(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(e.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SimultaneousEventsAreFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.at(1.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] {
    ++fired;
    e.after(1.0, [&] {
      ++fired;
      e.after(1.0, [&] { ++fired; });
    });
  });
  EXPECT_DOUBLE_EQ(e.run(), 3.0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.events_processed(), 3u);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, NowAdvancesMonotonically) {
  Engine e;
  double last = -1.0;
  for (double t : {5.0, 1.0, 3.0})
    e.at(t, [&, t] {
      EXPECT_GE(e.now(), last);
      EXPECT_DOUBLE_EQ(e.now(), t);
      last = e.now();
    });
  e.run();
}

TEST(Engine, SchedulingInPastAborts) {
  Engine e;
  e.at(5.0, [&] {
    EXPECT_DEATH(e.at(1.0, [] {}), "past");
  });
  e.run();
}

TEST(Engine, CancelledEventsLeaveNoTrace) {
  Engine e;
  int fired = 0;
  auto t1 = e.at_cancellable(1.0, [&] { ++fired; });
  auto t2 = e.at_cancellable(2.0, [&] { ++fired; });
  e.at(3.0, [&] { ++fired; });
  Engine::cancel(t2);
  EXPECT_DOUBLE_EQ(e.run(), 3.0);
  EXPECT_EQ(fired, 2);
  // A cancelled event does not count as processed.
  EXPECT_EQ(e.events_processed(), 2u);
  (void)t1;
}

TEST(Engine, CancellingOnlyPendingEventsDoesNotAdvanceClock) {
  Engine e;
  auto t = e.at_cancellable(7.0, [] { FAIL() << "cancelled event ran"; });
  Engine::cancel(t);
  EXPECT_DOUBLE_EQ(e.run(), 0.0);
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(Engine, CancelSlotsRecycleThroughThePool) {
  Engine e;
  // Arm/fire a batch of cancellable timers: every slot returns to the pool.
  for (int i = 0; i < 8; ++i) e.after_cancellable(1.0 + i, [] {});
  e.run();
  EXPECT_EQ(e.pooled_cancel_slots(), 8u);
  // Re-arming draws from the pool instead of growing it.
  auto t = e.after_cancellable(1.0, [] {});
  EXPECT_EQ(e.pooled_cancel_slots(), 7u);
  // A stale token (slot already recycled) is invalidated by the generation
  // stamp: cancelling it is a no-op for the slot's next occupant.
  e.run();
  EXPECT_EQ(e.pooled_cancel_slots(), 8u);
  auto t2 = e.after_cancellable(1.0, [] {});
  Engine::cancel(t);  // stale: must not cancel t2's occupancy
  int fired = 0;
  Engine::cancel(t2);  // fresh: does cancel
  e.after(2.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pooled_cancel_slots(), 8u);
}

TEST(FifoResource, SerializesRequests) {
  Engine e;
  FifoResource r(e, "nic");
  std::vector<double> done;
  e.at(0.0, [&] {
    r.submit(2.0, [&] { done.push_back(e.now()); });
    r.submit(3.0, [&] { done.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 5.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(r.busy_time(), 5.0);
}

TEST(FifoResource, IdleGapsNotCharged) {
  Engine e;
  FifoResource r(e, "nic");
  e.at(0.0, [&] { r.submit(1.0, [] {}); });
  e.at(10.0, [&] { r.submit(1.0, [] {}); });
  EXPECT_DOUBLE_EQ(e.run(), 11.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 2.0);
}

TEST(Machine, PresetsAreSane) {
  for (const auto& m : {hawk(), seawulf()}) {
    EXPECT_GT(m.cores_per_node, 0);
    EXPECT_GT(m.core_gflops, 0.0);
    EXPECT_GT(m.nic_bw, 0.0);
    EXPECT_GT(m.net_latency, 0.0);
    EXPECT_GT(m.bisection_factor, 0.0);
    EXPECT_LE(m.bisection_factor, 1.0);
  }
  EXPECT_EQ(hawk().name, "Hawk");
  EXPECT_EQ(seawulf().name, "Seawulf");
  // Hawk's HDR200 is faster than Seawulf's FDR.
  EXPECT_GT(hawk().nic_bw, seawulf().nic_bw);
}

TEST(Machine, TimeHelpers) {
  const auto m = hawk();
  EXPECT_DOUBLE_EQ(m.flops_time(m.core_gflops * 1e9), 1.0);
  EXPECT_DOUBLE_EQ(m.flops_time(m.core_gflops * 1e9, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(m.wire_time(static_cast<std::size_t>(m.nic_bw)), 1.0);
  EXPECT_GT(m.node_gflops(), m.core_gflops);
}

}  // namespace
