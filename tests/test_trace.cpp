// Tests for the structured observability subsystem: causality graph and
// critical-path analysis, Chrome-trace export (parsed back with the
// in-repo JSON parser), per-rank counter conservation, backend
// distinction (MADNESS copies vs PaRSEC splitmd), the scheduler
// semantics the tracer makes observable (priority-first FIFO tie-break,
// charge() accounting), and trace on/off invariance of every result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/bspmm/bspmm_ttg.hpp"
#include "apps/cholesky/cholesky_ttg.hpp"
#include "linalg/matrix_gen.hpp"
#include "sparse/yukawa_gen.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "ttg/ttg.hpp"

namespace {

using namespace ttg;
namespace json = support::json;

rt::WorldConfig tiny_world(rt::BackendKind b = rt::BackendKind::Parsec,
                           int nranks = 2, int workers = 2) {
  rt::WorldConfig cfg;
  cfg.machine = sim::hawk();
  cfg.machine.cores_per_node = workers;
  cfg.nranks = nranks;
  cfg.backend = b;
  return cfg;
}

/// A traced tiled-Cholesky run on ghost tiles (no numerics, full comm).
/// When `keep` is given, the caller owns the returned World.
rt::CommCounters traced_potrf(rt::BackendKind b, int nranks, int n, int bs,
                              std::string* chrome_json = nullptr,
                              rt::World** keep = nullptr) {
  auto ghost = linalg::ghost_matrix(n, bs);
  auto* world = new rt::World(tiny_world(b, nranks));
  world->enable_tracing();
  apps::cholesky::Options opt;
  opt.collect = false;
  apps::cholesky::run(*world, ghost, opt);
  auto totals = world->tracer().totals();
  if (chrome_json != nullptr) *chrome_json = world->tracer().chrome_trace_json();
  if (keep != nullptr) {
    *keep = world;
  } else {
    delete world;
  }
  return totals;
}

rt::CommCounters traced_bspmm(rt::BackendKind b, int nranks) {
  sparse::YukawaParams p;
  p.natoms = 40;
  p.max_tile = 64;
  p.threshold = 1e-6;
  p.box = 120.0;
  p.ghost = true;
  auto a = sparse::yukawa_matrix(p);
  rt::World world(tiny_world(b, nranks));
  world.enable_tracing();
  apps::bspmm::Options opt;
  opt.collect = false;
  apps::bspmm::run(world, a, a, opt);
  return world.tracer().totals();
}

// --- critical path ------------------------------------------------------

TEST(CriticalPath, DiamondHasExactLength) {
  // A -> {B, C} -> D on one rank with zero runtime overhead: every span is
  // exactly its costmap value, so the longest chain is A + C + D.
  auto cfg = tiny_world(rt::BackendKind::Parsec, /*nranks=*/1, /*workers=*/2);
  cfg.task_overhead_override = 0.0;
  rt::World world(cfg);
  world.enable_tracing();

  Edge<Int1, double> in("in"), ab("ab"), ac("ac"), bd("bd"), cd("cd");
  auto a = make_tt(
      world,
      [](const Int1& k, double& v,
         std::tuple<Out<Int1, double>, Out<Int1, double>>& out) {
        ttg::send<0>(k, double(v), out);
        ttg::send<1>(k, double(v), out);
      },
      edges(in), edges(ab, ac), "A");
  auto b = make_tt(
      world,
      [](const Int1& k, double& v, std::tuple<Out<Int1, double>>& out) {
        ttg::send<0>(k, double(v), out);
      },
      edges(ab), edges(bd), "B");
  auto c = make_tt(
      world,
      [](const Int1& k, double& v, std::tuple<Out<Int1, double>>& out) {
        ttg::send<0>(k, double(v), out);
      },
      edges(ac), edges(cd), "C");
  auto d = make_tt(
      world, [](const Int1&, double&, double&, std::tuple<>&) {},
      edges(bd, cd), std::tuple<>{}, "D");

  a->set_costmap([](const Int1&, const double&) { return 1.0; });
  b->set_costmap([](const Int1&, const double&) { return 2.0; });
  c->set_costmap([](const Int1&, const double&) { return 5.0; });
  d->set_costmap([](const Int1&, const double&, const double&) { return 3.0; });

  make_graph_executable(*a);
  make_graph_executable(*b);
  make_graph_executable(*c);
  make_graph_executable(*d);
  a->invoke(Int1{0}, 1.0);
  const double makespan = world.fence();

  auto cp = world.tracer().critical_path();
  EXPECT_DOUBLE_EQ(cp.length, 9.0);  // A(1) + C(5) + D(3)
  EXPECT_DOUBLE_EQ(makespan, 9.0);
  ASSERT_EQ(cp.hops.size(), 3u);
  EXPECT_EQ(cp.hops[0].label, "A");
  EXPECT_EQ(cp.hops[1].label, "C");
  EXPECT_EQ(cp.hops[2].label, "D");
  for (const auto& h : cp.hops) {
    EXPECT_EQ(h.kind, rt::CriticalHop::Kind::Task);
  }
  // The report renders the same chain.
  const auto report = world.tracer().critical_path_report();
  EXPECT_NE(report.find("critical path"), std::string::npos);
  EXPECT_NE(report.find("C"), std::string::npos);
}

TEST(CriticalPath, RemoteChainContainsMessageHop) {
  // A on rank 0 feeds B on rank 1: the longest chain must thread through
  // the message, task -> msg -> task.
  auto cfg = tiny_world(rt::BackendKind::Parsec, /*nranks=*/2, /*workers=*/1);
  rt::World world(cfg);
  world.enable_tracing();

  Edge<Int1, double> in("in"), ab("ab");
  auto a = make_tt(
      world,
      [](const Int1& k, double& v, std::tuple<Out<Int1, double>>& out) {
        ttg::send<0>(k, double(v), out);
      },
      edges(in), edges(ab), "A");
  auto b = make_tt(world, [](const Int1&, double&, std::tuple<>&) {}, edges(ab),
                   std::tuple<>{}, "B");
  a->set_keymap([](const Int1&) { return 0; });
  b->set_keymap([](const Int1&) { return 1; });
  a->set_costmap([](const Int1&, const double&) { return 1e-6; });
  b->set_costmap([](const Int1&, const double&) { return 1e-6; });
  make_graph_executable(*a);
  make_graph_executable(*b);
  a->invoke(Int1{0}, 42.0);
  const double makespan = world.fence();

  auto cp = world.tracer().critical_path();
  ASSERT_EQ(cp.hops.size(), 3u);
  EXPECT_EQ(cp.hops[0].label, "A");
  EXPECT_EQ(cp.hops[0].kind, rt::CriticalHop::Kind::Task);
  EXPECT_EQ(cp.hops[1].kind, rt::CriticalHop::Kind::Message);
  EXPECT_EQ(cp.hops[1].rank, 1);  // message hop reports the destination
  EXPECT_EQ(cp.hops[2].label, "B");
  EXPECT_EQ(cp.hops[2].rank, 1);
  EXPECT_GT(cp.hops[1].duration, 0.0);
  EXPECT_LE(cp.length, makespan + 1e-12);

  // The message node is the task's recorded predecessor.
  ASSERT_EQ(world.tracer().messages().size(), 1u);
  const auto& msg = world.tracer().messages().front();
  EXPECT_EQ(msg.edge, "B");
  EXPECT_EQ(msg.src, 0);
  EXPECT_EQ(msg.dst, 1);
  EXPECT_GT(msg.bytes, 0u);
  EXPECT_GE(msg.recv_time, msg.send_time);
}

// --- Chrome-trace export ------------------------------------------------

TEST(ChromeTrace, ExportParsesBackAndIsWellFormed) {
  std::string text;
  traced_potrf(rt::BackendKind::Parsec, 2, 256, 64, &text);

  const json::Value doc = json::parse(text);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_GT(events.size(), 0u);

  std::size_t spans = 0, metadata = 0;
  bool saw_potrf = false;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").as_string();
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    EXPECT_TRUE(e.has("name"));
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      EXPECT_GE(e.at("ts").as_number(), 0.0);
      if (e.at("name").as_string() == "POTRF") saw_potrf = true;
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(metadata, 0u);  // process/thread naming for Perfetto
  EXPECT_TRUE(saw_potrf);   // template names survive into the trace
}

TEST(ChromeTrace, FileRoundTrip) {
  rt::World* world = nullptr;
  traced_potrf(rt::BackendKind::Parsec, 2, 128, 64, nullptr, &world);
  ASSERT_NE(world, nullptr);

  const std::string path = "/tmp/ttg_test_trace_roundtrip.json";
  world->tracer().write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), world->tracer().chrome_trace_json());
  const json::Value doc = json::parse(ss.str());
  EXPECT_GT(doc.at("traceEvents").size(), 0u);
  std::remove(path.c_str());
  delete world;
}

TEST(ChromeTrace, Fig12BinaryTraceRoundTrips) {
  // Acceptance: run the actual fig12_bspmm binary with --trace and parse
  // the Chrome-trace files it writes (one per traced configuration).
  const std::string stem = "/tmp/ttg_test_fig12_trace";
  const std::string cmd = std::string(TTG_BENCH_DIR) +
                          "/fig12_bspmm --natoms 40 --trace " + stem +
                          ".json > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  for (const char* label : {"parsec-8nodes", "madness-8nodes"}) {
    const std::string path = stem + "." + label + ".json";
    SCOPED_TRACE(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const json::Value doc = json::parse(ss.str());
    const auto& events = doc.at("traceEvents").as_array();
    ASSERT_GT(events.size(), 0u);
    bool saw_multiply = false;
    for (const auto& e : events) {
      if (e.at("ph").as_string() == "X" &&
          e.at("name").as_string() == "MultiplyAdd") {
        saw_multiply = true;
        break;
      }
    }
    EXPECT_TRUE(saw_multiply);  // the Fig. 10 GEMM template is on the tracks
  }
  // All twelve configuration files, not just the two checked in depth.
  for (const char* nodes : {"8", "16", "32", "64", "128", "256"}) {
    for (const char* backend : {"parsec", "madness"}) {
      const std::string path =
          stem + "." + backend + "-" + nodes + "nodes.json";
      std::ifstream in(path);
      EXPECT_TRUE(in.good()) << path;
      in.close();
      std::remove(path.c_str());
    }
  }
}

TEST(ChromeTrace, DeterministicAcrossIdenticalRuns) {
  // The virtual clock is deterministic, so two identical runs must export
  // byte-identical traces.
  std::string first, second;
  traced_potrf(rt::BackendKind::Madness, 2, 256, 64, &first);
  traced_potrf(rt::BackendKind::Madness, 2, 256, 64, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ChromeTrace, DeviceSpansStartAtTheKernelOnOneTrackPerGpu) {
  // Four 1 s kernels forced onto the GPU lanes at t = 0: each span must
  // start when its kernel does (not at dispatch, which would fold the lane's
  // FIFO wait into it), so the spans of one GPU are disjoint, and every GPU
  // renders on its own named Chrome track.
  for (const int gpus : {1, 2}) {
    auto cfg = tiny_world(rt::BackendKind::Parsec, /*nranks=*/1, /*workers=*/1);
    cfg.machine.gpus_per_node = gpus;
    cfg.machine.gpu_launch_overhead = 0.0;
    cfg.device = rt::DevicePlacement::Always;
    rt::World w(cfg);
    w.enable_tracing();
    for (int i = 0; i < 4; ++i) {
      w.scheduler(0).submit({.cost = 1.0, .name = "kernel",
                             .device = rt::DeviceCall{.cost = 1.0, .datums = {}},
                             .body = [] {}});
    }
    EXPECT_DOUBLE_EQ(w.fence(), 4.0 / gpus);
    EXPECT_EQ(w.scheduler(0).device_stats().device_tasks, 4u);

    std::map<int, std::vector<std::pair<double, double>>> spans;  // by track
    for (const auto& r : w.tracer().records())
      spans[r.worker].emplace_back(r.start, r.end);
    ASSERT_EQ(spans.size(), static_cast<std::size_t>(gpus));
    double traced = 0.0;
    for (auto& [track, on_gpu] : spans) {
      std::sort(on_gpu.begin(), on_gpu.end());
      for (std::size_t i = 0; i < on_gpu.size(); ++i) {
        traced += on_gpu[i].second - on_gpu[i].first;
        if (i > 0) {
          EXPECT_GE(on_gpu[i].first, on_gpu[i - 1].second) << "track " << track;
        }
      }
    }
    EXPECT_DOUBLE_EQ(traced, w.scheduler(0).device_busy());  // 4 s of GPU work

    std::set<int> kernel_tids;
    std::set<std::string> gpu_tracks;
    const json::Value doc = json::parse(w.tracer().chrome_trace_json());
    for (const auto& e : doc.at("traceEvents").as_array()) {
      const std::string& name = e.at("name").as_string();
      if (e.at("ph").as_string() == "X" && name == "kernel") {
        kernel_tids.insert(static_cast<int>(e.at("tid").as_number()));
      } else if (name == "thread_name") {
        const std::string& track = e.at("args").at("name").as_string();
        if (track.rfind("gpu ", 0) == 0) gpu_tracks.insert(track);
      }
    }
    EXPECT_EQ(kernel_tids.size(), static_cast<std::size_t>(gpus));
    EXPECT_EQ(gpu_tracks.size(), static_cast<std::size_t>(gpus));
  }
}

// --- counter conservation ----------------------------------------------

TEST(Conservation, PotrfBytesSentEqualReceived) {
  for (auto b : {rt::BackendKind::Parsec, rt::BackendKind::Madness}) {
    auto t = traced_potrf(b, 4, 512, 64);
    SCOPED_TRACE(rt::to_string(b));
    EXPECT_GT(t.msg_sends, 0u);
    EXPECT_EQ(t.msg_sends, t.msg_recvs);
    EXPECT_GT(t.bytes_sent, 0u);
    EXPECT_EQ(t.bytes_sent, t.bytes_received);
  }
}

TEST(Conservation, BspmmBytesSentEqualReceived) {
  for (auto b : {rt::BackendKind::Parsec, rt::BackendKind::Madness}) {
    auto t = traced_bspmm(b, 4);
    SCOPED_TRACE(rt::to_string(b));
    EXPECT_GT(t.msg_sends, 0u);
    EXPECT_EQ(t.msg_sends, t.msg_recvs);
    EXPECT_GT(t.bytes_sent, 0u);
    EXPECT_EQ(t.bytes_sent, t.bytes_received);
  }
}

// --- backend distinction ------------------------------------------------

TEST(Backends, MadnessSerializesMoreThanParsecSplitmd) {
  // Section II-C/II-D: PaRSEC ships contiguous payloads through the
  // split-metadata RMA path (no staging copies); MADNESS serializes the
  // whole object on both sides. Same workload, same message count — the
  // copy counters must tell the backends apart.
  auto parsec = traced_bspmm(rt::BackendKind::Parsec, 4);
  auto madness = traced_bspmm(rt::BackendKind::Madness, 4);

  EXPECT_EQ(parsec.msg_sends, madness.msg_sends);
  EXPECT_GT(parsec.splitmd_sends, 0u);
  EXPECT_EQ(madness.splitmd_sends, 0u);
  EXPECT_GT(madness.whole_object_sends, parsec.whole_object_sends);
  // MADNESS pays >= 1 more serialization copy than PaRSEC for the run
  // (in fact one more per splitmd-eligible message).
  EXPECT_GE(madness.serialization_copies, parsec.serialization_copies + 1);
}

TEST(Backends, ParsecRecordsRmaGets) {
  rt::World* world = nullptr;
  auto t = traced_potrf(rt::BackendKind::Parsec, 4, 512, 64, nullptr, &world);
  ASSERT_NE(world, nullptr);
  EXPECT_GT(t.rma_gets, 0u);
  EXPECT_GT(t.rma_latency_total, 0.0);
  EXPECT_GT(t.rma_latency_max, 0.0);
  ASSERT_FALSE(world->tracer().rma_events().empty());
  for (const auto& r : world->tracer().rma_events()) {
    EXPECT_GE(r.latency(), 0.0);
    EXPECT_GT(r.bytes, 0u);
  }
  delete world;
}

TEST(Backends, MadnessRecordsServerQueueing) {
  rt::World* world = nullptr;
  auto t = traced_potrf(rt::BackendKind::Madness, 4, 512, 64, nullptr, &world);
  ASSERT_NE(world, nullptr);
  EXPECT_EQ(t.rma_gets, 0u);  // no RMA data plane in the MADNESS backend
  EXPECT_GT(t.server_busy, 0.0);
  ASSERT_FALSE(world->tracer().server_events().empty());
  for (const auto& s : world->tracer().server_events()) {
    EXPECT_GE(s.wait, 0.0);
    EXPECT_GT(s.service, 0.0);
  }
  delete world;
}

// --- wire occupancy -----------------------------------------------------

TEST(Wire, TransfersAreRecordedWithPositiveDuration) {
  rt::World* world = nullptr;
  traced_potrf(rt::BackendKind::Parsec, 4, 512, 64, nullptr, &world);
  ASSERT_NE(world, nullptr);
  ASSERT_FALSE(world->tracer().wire_events().empty());
  for (const auto& wv : world->tracer().wire_events()) {
    EXPECT_NE(wv.src, wv.dst);
    EXPECT_GT(wv.bytes, 0u);
    EXPECT_GT(wv.end, wv.start);
  }
  delete world;
}

// --- scheduler semantics, asserted through tracer counters --------------

TEST(SchedulerSemantics, PriorityFirstThenFifoTieBreak) {
  auto cfg = tiny_world(rt::BackendKind::Parsec, 1, /*workers=*/1);
  rt::World w(cfg);
  w.enable_tracing();
  // A blocker occupies the single worker so the rest queue up; the queue
  // must pop by priority, FIFO among equals.
  w.scheduler(0).submit({.cost = 1.0, .name = "blocker", .body = [] {}});
  w.scheduler(0).submit({.priority = 1, .cost = 1.0, .name = "low-first", .body = [] {}});
  w.scheduler(0).submit({.priority = 1, .cost = 1.0, .name = "low-second",
                         .body = [] {}});
  w.scheduler(0).submit({.priority = 2, .cost = 1.0, .name = "high", .body = [] {}});
  w.fence();

  const auto& rec = w.tracer().records();
  ASSERT_EQ(rec.size(), 4u);
  auto start_of = [&](const std::string& name) {
    for (const auto& r : rec) {
      if (r.name == name) return r.start;
    }
    ADD_FAILURE() << "no task named " << name;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(start_of("blocker"), 0.0);
  EXPECT_DOUBLE_EQ(start_of("high"), 1.0);        // highest priority first
  EXPECT_DOUBLE_EQ(start_of("low-first"), 2.0);   // then FIFO among equals
  EXPECT_DOUBLE_EQ(start_of("low-second"), 3.0);

  // exec_seq mirrors the execution order.
  auto seq_of = [&](const std::string& name) {
    for (const auto& r : rec) {
      if (r.name == name) return r.exec_seq;
    }
    return std::uint64_t{0};
  };
  EXPECT_LT(seq_of("blocker"), seq_of("high"));
  EXPECT_LT(seq_of("high"), seq_of("low-first"));
  EXPECT_LT(seq_of("low-first"), seq_of("low-second"));
}

TEST(SchedulerSemantics, ChargeExtendsSpanAndIsCounted) {
  auto cfg = tiny_world(rt::BackendKind::Parsec, 1, /*workers=*/1);
  rt::World w(cfg);
  w.enable_tracing();
  w.scheduler(0).submit({.cost = 1.0, .name = "worker-task",
                         .body = [&] { w.scheduler(0).charge(0.25); }});
  w.scheduler(0).submit({.cost = 1.0, .name = "follower", .body = [] {}});
  const double makespan = w.fence();

  const auto& rec = w.tracer().records();
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_DOUBLE_EQ(rec[0].end - rec[0].start, 1.25);
  // The worker stays occupied through the charge: the follower cannot
  // start before 1.25.
  EXPECT_DOUBLE_EQ(rec[1].start, 1.25);
  EXPECT_DOUBLE_EQ(makespan, 2.25);
  EXPECT_DOUBLE_EQ(w.tracer().rank_counters(0).charged_cpu, 0.25);
  EXPECT_DOUBLE_EQ(w.tracer().totals().charged_cpu, 0.25);
}

TEST(SchedulerSemantics, WorkerIdsStayWithinRankGeometry) {
  auto cfg = tiny_world(rt::BackendKind::Parsec, 1, /*workers=*/2);
  rt::World w(cfg);
  w.enable_tracing();
  for (int i = 0; i < 6; ++i) {
    w.scheduler(0).submit({.cost = 1.0, .name = "t", .body = [] {}});
  }
  w.fence();
  bool saw_w0 = false, saw_w1 = false;
  for (const auto& r : w.tracer().records()) {
    ASSERT_GE(r.worker, 0);
    ASSERT_LT(r.worker, 2);
    saw_w0 |= r.worker == 0;
    saw_w1 |= r.worker == 1;
  }
  EXPECT_TRUE(saw_w0);
  EXPECT_TRUE(saw_w1);  // 6 unit tasks over 2 workers use both
}

// --- reports render -----------------------------------------------------

TEST(Reports, BreakdownTableCoversAllRanks) {
  rt::World* world = nullptr;
  traced_potrf(rt::BackendKind::Parsec, 4, 256, 64, nullptr, &world);
  ASSERT_NE(world, nullptr);
  const auto table = world->tracer().breakdown_table(world->engine().now());
  const std::string text = table.str();
  for (const char* col : {"rank", "busy[s]", "idle[s]", "sends", "recvs"}) {
    EXPECT_NE(text.find(col), std::string::npos) << col;
  }
  delete world;
}

// --- tracing never changes results -------------------------------------

/// Everything a run produces besides its trace. The counter structs are
/// plain aggregates, so memcmp compares every field.
struct RunCounts {
  double makespan = 0.0;
  std::uint64_t events = 0;
  rt::CommStats comm{};
  net::NetStats net{};
  rt::DataTracker::RankStats data{};
  std::vector<rt::StealStats> steal;
  std::vector<rt::DeviceStats> device;
};

RunCounts counts_of(rt::World& w, double makespan) {
  RunCounts c;
  c.makespan = makespan;
  c.events = w.engine().events_processed();
  c.comm = w.comm().stats();
  c.net = w.network().stats();
  c.data = w.data_tracker().totals();
  for (int r = 0; r < w.nranks(); ++r) {
    c.steal.push_back(w.scheduler(r).steal_stats());
    c.device.push_back(w.scheduler(r).device_stats());
  }
  return c;
}

void expect_same_counts(const RunCounts& traced, const RunCounts& plain) {
  EXPECT_EQ(traced.makespan, plain.makespan);  // bit-identical, not near
  EXPECT_EQ(traced.events, plain.events);
  EXPECT_EQ(0, std::memcmp(&traced.comm, &plain.comm, sizeof(rt::CommStats)));
  EXPECT_EQ(0, std::memcmp(&traced.net, &plain.net, sizeof(net::NetStats)));
  EXPECT_EQ(0, std::memcmp(&traced.data, &plain.data,
                           sizeof(rt::DataTracker::RankStats)));
  ASSERT_EQ(traced.steal.size(), plain.steal.size());
  for (std::size_t r = 0; r < plain.steal.size(); ++r) {
    EXPECT_EQ(0, std::memcmp(&traced.steal[r], &plain.steal[r],
                             sizeof(rt::StealStats)))
        << "rank " << r;
    EXPECT_EQ(0, std::memcmp(&traced.device[r], &plain.device[r],
                             sizeof(rt::DeviceStats)))
        << "rank " << r;
  }
}

TEST(TraceOnOff, ResultsAndCountersBitIdentical) {
  // Real POTRF with stealing and greedy GPU placement on PaRSEC: every
  // scheduler count lives outside the Tracer and must not move with it.
  support::Rng rng(5);
  const auto spd = linalg::random_spd(rng, 768, 128);
  auto potrf = [&](bool traced) {
    rt::WorldConfig cfg = tiny_world(rt::BackendKind::Parsec, 2, 2);
    cfg.work_stealing = true;
    cfg.device = rt::DevicePlacement::Greedy;
    rt::World w(cfg);
    if (traced) w.enable_tracing();
    const auto res = apps::cholesky::run(w, spd);
    return counts_of(w, res.makespan);
  };
  const RunCounts plain = potrf(false);
  std::uint64_t steals = 0, device_tasks = 0;
  for (std::size_t r = 0; r < plain.steal.size(); ++r) {
    steals += plain.steal[r].steals_local + plain.steal[r].steals_remote;
    device_tasks += plain.device[r].device_tasks;
  }
  EXPECT_GT(steals, 0u);
  EXPECT_GT(device_tasks, 0u);
  expect_same_counts(potrf(true), plain);

  // MADNESS bspmm: AM-server queueing and whole-object serialization.
  sparse::YukawaParams p;
  p.natoms = 40;
  p.max_tile = 64;
  p.ghost = true;
  const auto a = sparse::yukawa_matrix(p);
  auto bspmm = [&](bool traced) {
    rt::World w(tiny_world(rt::BackendKind::Madness, 4));
    if (traced) w.enable_tracing();
    apps::bspmm::Options opt;
    opt.collect = false;
    const auto res = apps::bspmm::run(w, a, a, opt);
    return counts_of(w, res.makespan);
  };
  const RunCounts mad = bspmm(false);
  EXPECT_GT(mad.comm.serializations, 0u);
  expect_same_counts(bspmm(true), mad);
}

// --- JSON parser (support layer) ---------------------------------------

TEST(Json, ParsesScalarsContainersAndEscapes) {
  const auto v = json::parse(
      R"({"a": [1, 2.5, -3e2], "s": "q\"\\\nA", "t": true, "n": null})");
  EXPECT_DOUBLE_EQ(v.at("a").at(std::size_t{0}).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("a").at(std::size_t{1}).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("a").at(std::size_t{2}).as_number(), -300.0);
  EXPECT_EQ(v.at("s").as_string(), "q\"\\\nA");
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_FALSE(v.has("missing"));
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), support::ApiError);
  EXPECT_THROW(json::parse("[1, ]"), support::ApiError);
  EXPECT_THROW(json::parse("{\"a\": 1} trailing"), support::ApiError);
  EXPECT_THROW(json::parse("\"unterminated"), support::ApiError);
  // Deep nesting throws instead of overflowing the stack.
  EXPECT_THROW(json::parse(std::string(1000000, '[')), support::ApiError);
  EXPECT_NO_THROW(json::parse(std::string(512, '[') + std::string(512, ']')));
  EXPECT_THROW(json::parse(std::string(513, '[') + std::string(513, ']')), support::ApiError);
  // The RFC 8259 number grammar, finite values only.
  for (const char* bad : {"01", "-01", "+1", ".5", "1.", "-", "1e", "1e+", "1.e3", "1e999",
                          "-1e999", "Infinity", "NaN", "0x10"})
    EXPECT_THROW(json::parse(bad), support::ApiError) << bad;
  for (const char* good : {"0", "-0", "10", "0.5", "-1.25e-3", "1E+2", "1e-400"})
    EXPECT_NO_THROW(json::parse(good)) << good;
  // Lone surrogates and raw control characters in strings.
  for (const char* bad : {R"("\ud800")", R"("\ud800x")", R"("\ud800\u0041")",
                          R"("\udc00")", "\"a\tb\"", "\"a\nb\"", "\"\x1f\""})
    EXPECT_THROW(json::parse(bad), support::ApiError) << bad;
  EXPECT_THROW(json::parse(std::string("\"\0\"", 3)), support::ApiError);
}

TEST(Json, CombinesSurrogatePairsIntoUtf8) {
  EXPECT_EQ(json::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(json::parse(R"("\u00e9\u20ac")").as_string(), "\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(json::parse(R"("\u0009")").as_string(), "\t");
}

}  // namespace
