// Multi-tenant serving mode: seeded multi-job interleaving stress tests
// (determinism, per-job correctness and isolation), graph-instantiation
// cache semantics, fairness/admission control, and the bit-identity of the
// serving path with the historical single-DAG path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/cholesky/cholesky_ttg.hpp"
#include "apps/fw_apsp/fw_ttg.hpp"
#include "apps/serve/job_graphs.hpp"
#include "linalg/matrix_gen.hpp"
#include "runtime/world.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using namespace ttg;
using rt::BackendKind;
using rt::GraphKey;
using rt::World;
using rt::WorldConfig;
using apps::serve::JobGraph;
using apps::serve::ResultMap;

// Small mixed workload (kept tiny: this suite also runs under ASan/UBSan).
std::vector<GraphKey> stress_kinds() {
  return {
      GraphKey{"potrf", {384, 128, 0, 0}},
      GraphKey{"bspmm", {3, 32, 40, 0}},
      GraphKey{"fw", {256, 128, 0, 0}},
  };
}

std::uint64_t job_seed(std::uint64_t base, int i) {
  return base + static_cast<std::uint64_t>(i) * 7919ULL;
}

struct StreamOutcome {
  double makespan = 0.0;
  std::vector<double> latencies;           ///< by job index
  std::vector<std::uint64_t> job_traffic;  ///< messages + splitmd per job
  std::vector<ResultMap> results;          ///< by job index
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Run a seeded randomized multi-job stream: kinds cycle, arrivals are
/// hashed-random, admission is bounded. Everything returned is a pure
/// function of (backend, nranks, seed, njobs, fault_spec).
StreamOutcome run_stream(BackendKind b, int nranks, std::uint64_t seed,
                         int njobs, int max_concurrent,
                         const std::string& fault_spec = "") {
  WorldConfig cfg;
  cfg.machine = sim::hawk();
  cfg.machine.cores_per_node = 4;
  cfg.nranks = nranks;
  cfg.backend = b;
  if (!fault_spec.empty()) cfg.faults = sim::FaultPlan::parse(fault_spec, 99);
  World world(cfg);
  auto& jm = world.jobs();
  jm.set_max_concurrent(max_concurrent);

  const auto kinds = stress_kinds();
  StreamOutcome out;
  out.results.resize(static_cast<std::size_t>(njobs));

  double clock = 0.0;
  for (int i = 0; i < njobs; ++i) {
    clock += 0.004 * support::hash_uniform(seed, /*stream=*/11, i);
    const GraphKey key = kinds[static_cast<std::size_t>(i) % kinds.size()];
    const std::uint64_t s = job_seed(seed, i);
    world.engine().at(clock, [&world, &jm, &out, i, key, s]() {
      rt::JobSpec spec;
      spec.name = key.kind;
      jm.submit(spec, [&world, &out, i, key, s](rt::JobId id) {
        auto g = apps::serve::acquire_graph(world, key);
        g->start(s, [&world, &out, i, id, g]() {
          out.results[static_cast<std::size_t>(i)] = g->result();
          apps::serve::release_graph(world, g);
          world.jobs().complete(id);
        });
      });
    });
  }

  out.makespan = world.fence();
  EXPECT_EQ(jm.completed(), static_cast<std::size_t>(njobs));
  out.latencies = jm.latencies();
  for (int i = 0; i < njobs; ++i) {
    const auto& js = world.comm().job_stats(static_cast<rt::JobId>(i + 1));
    out.job_traffic.push_back(js.messages + js.splitmd_sends);
    // Per-job data-lifecycle isolation: at fence every job's DataCopy
    // handles are back to zero (a cross-job leak would park live handles
    // on some job forever).
    const auto& ds = world.data_tracker().job_stats(static_cast<rt::JobId>(i + 1));
    EXPECT_EQ(ds.live_handles, 0u) << "job " << i + 1 << " leaked handles";
    EXPECT_EQ(ds.live_bytes, 0u) << "job " << i + 1 << " leaked bytes";
    EXPECT_GT(ds.allocs, 0u) << "job " << i + 1 << " never allocated data";
    EXPECT_EQ(ds.allocs, ds.releases);
  }
  out.cache_hits = jm.cache().stats().hits;
  out.cache_misses = jm.cache().stats().misses;
  return out;
}

/// Solo reference: the same kind+seed job alone in a fresh world.
ResultMap run_solo(BackendKind b, int nranks, const GraphKey& key,
                   std::uint64_t s) {
  WorldConfig cfg;
  cfg.machine = sim::hawk();
  cfg.machine.cores_per_node = 4;
  cfg.nranks = nranks;
  cfg.backend = b;
  World world(cfg);
  ResultMap out;
  world.jobs().submit(rt::JobSpec{key.kind, 1, 0}, [&world, &out, key, s](rt::JobId id) {
    auto g = apps::serve::acquire_graph(world, key);
    g->start(s, [&world, &out, id, g]() {
      out = g->result();
      apps::serve::release_graph(world, g);
      world.jobs().complete(id);
    });
  });
  world.fence();
  return out;
}

void expect_streams_identical(const StreamOutcome& a, const StreamOutcome& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.job_traffic, b.job_traffic);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i)
    EXPECT_EQ(a.results[i], b.results[i]) << "job " << i << " result drifted";
}

TEST(MultiJobStress, RerunsBitIdenticalOnBothBackends) {
  for (const BackendKind b : {BackendKind::Parsec, BackendKind::Madness}) {
    const auto r1 = run_stream(b, 4, 1234, 9, 3);
    const auto r2 = run_stream(b, 4, 1234, 9, 3);
    expect_streams_identical(r1, r2);
    // A different seed is a genuinely different run.
    const auto r3 = run_stream(b, 4, 4321, 9, 3);
    EXPECT_NE(r1.makespan, r3.makespan);
  }
}

TEST(MultiJobStress, RerunsBitIdenticalUnderFaults) {
  // Drops force ReliableLink retransmissions and rank 1 straggles: the
  // perturbed schedule must still replay bit-identically per seed.
  const std::string spec = "drop=0.02,straggler=1:1.7";
  for (const BackendKind b : {BackendKind::Parsec, BackendKind::Madness}) {
    const auto r1 = run_stream(b, 4, 777, 6, 2, spec);
    const auto r2 = run_stream(b, 4, 777, 6, 2, spec);
    expect_streams_identical(r1, r2);
  }
}

TEST(MultiJobStress, PerJobResultsMatchSoloRuns) {
  const auto kinds = stress_kinds();
  for (const BackendKind b : {BackendKind::Parsec, BackendKind::Madness}) {
    const auto r = run_stream(b, 4, 2024, 9, 3);
    for (int i = 0; i < 9; ++i) {
      const GraphKey key = kinds[static_cast<std::size_t>(i) % kinds.size()];
      const ResultMap solo = run_solo(b, 4, key, job_seed(2024, i));
      const ResultMap& got = r.results[static_cast<std::size_t>(i)];
      ASSERT_EQ(got.size(), solo.size()) << key.kind << " job " << i;
      if (key.kind == "bspmm") {
        // Streaming tile_add folds in arrival order, which depends on the
        // interleaving: equal up to summation-order rounding.
        for (const auto& [coord, norm] : solo) {
          const auto it = got.find(coord);
          ASSERT_NE(it, got.end());
          EXPECT_NEAR(it->second, norm, 1e-9 * (1.0 + std::abs(norm)));
        }
      } else {
        // Single-assignment dataflow: values are timing-independent.
        EXPECT_EQ(got, solo) << key.kind << " job " << i;
      }
    }
  }
}

TEST(GraphCache, CountsHitsMissesAndEvictions) {
  WorldConfig cfg;
  cfg.nranks = 2;
  World world(cfg);
  auto& cache = world.jobs().cache();
  const GraphKey key{"potrf", {256, 128, 0, 0}};

  auto g1 = apps::serve::acquire_graph(world, key);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Exclusive checkout: a concurrent same-key job builds its own instance.
  auto g2 = apps::serve::acquire_graph(world, key);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(g1.get(), g2.get());

  apps::serve::release_graph(world, g1);
  EXPECT_EQ(cache.size(), 1u);
  auto g3 = apps::serve::acquire_graph(world, key);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(g3.get(), g1.get());

  // Structure mutation after caching invalidates the pooled entry.
  apps::serve::release_graph(world, g3);
  g3->apply_keymap(KeymapKind::Cyclic);  // set_keymap bumps the mutation counters
  auto g4 = apps::serve::acquire_graph(world, key);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_NE(g4.get(), g3.get());
}

TEST(GraphCache, CachedInstanceRunsBitIdenticalToRebuilt) {
  // Two sequential same-seed jobs; in one world job 2 reuses job 1's warm
  // instance (cache hit), in the other a mutation between the jobs forces
  // an eviction so job 2 rebuilds from scratch. Job 2 starts at the same
  // virtual time in both worlds, so every latency and result value must
  // match bitwise: a warm instance is indistinguishable from a fresh one.
  const GraphKey key{"potrf", {384, 128, 0, 0}};
  auto run_two = [&](bool evict_between) {
    WorldConfig cfg;
    cfg.nranks = 4;
    auto world = std::make_unique<World>(cfg);
    auto& jm = world->jobs();
    std::vector<ResultMap> results;
    std::function<void()> submit_one = [&]() {
      jm.submit(rt::JobSpec{"potrf", 1, 0}, [&](rt::JobId id) {
        auto g = apps::serve::acquire_graph(*world, key);
        g->start(5, [&, id, g]() {
          results.push_back(g->result());
          apps::serve::release_graph(*world, g);
          if (evict_between && jm.submitted() < 2) g->apply_keymap(KeymapKind::Cyclic);
          jm.complete(id);
          if (jm.submitted() < 2) submit_one();
        });
      });
    };
    submit_one();
    world->fence();
    EXPECT_EQ(jm.completed(), 2u);
    if (evict_between) {
      EXPECT_EQ(jm.cache().stats().hits, 0u);
      EXPECT_EQ(jm.cache().stats().misses, 2u);
      EXPECT_EQ(jm.cache().stats().evictions, 1u);
    } else {
      EXPECT_EQ(jm.cache().stats().hits, 1u);
      EXPECT_EQ(jm.cache().stats().misses, 1u);
    }
    return std::make_pair(jm.latencies(), std::move(results));
  };
  const auto [lat_hit, res_hit] = run_two(/*evict_between=*/false);
  const auto [lat_rebuilt, res_rebuilt] = run_two(/*evict_between=*/true);
  EXPECT_EQ(lat_hit, lat_rebuilt);
  ASSERT_EQ(res_hit.size(), 2u);
  EXPECT_EQ(res_hit, res_rebuilt);
  // potrf values are timing-independent, so the two jobs also agree.
  EXPECT_EQ(res_hit[0], res_hit[1]);
}

TEST(GraphCache, KeymapSwitchEvictsAndRebuildsBitIdentical) {
  // Serving analogue of the apps' --keymap knob. apply_keymap() re-applies
  // every TT's placement map via set_keymap, which bumps the mutation
  // counters: a pooled instance rekeyed after release is stale, so the next
  // same-key acquire must evict and rebuild. And because placement moves
  // tasks without touching numerics, a job on the rekeyed (node-aware)
  // graph produces the bitwise-identical factor as the cyclic run.
  WorldConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  World world(cfg);
  auto& cache = world.jobs().cache();
  const GraphKey key{"potrf", {384, 128, 0, 0}};

  auto run_job = [&world](const std::shared_ptr<apps::serve::JobGraph>& g,
                          std::uint64_t seed) {
    ResultMap out;
    world.jobs().submit(rt::JobSpec{"potrf", 1, 0},
                        [&world, &out, &g, seed](rt::JobId id) {
                          g->start(seed, [&world, &out, &g, id]() {
                            out = g->result();
                            world.jobs().complete(id);
                          });
                        });
    world.fence();
    return out;
  };

  // Job 1: cyclic placement (the build default), then cache the instance.
  auto g1 = apps::serve::acquire_graph(world, key);
  EXPECT_EQ(cache.stats().misses, 1u);
  const ResultMap cyclic = run_job(g1, 5);
  apps::serve::release_graph(world, g1);

  // Switching the keymap on the pooled instance bumps its mutation count...
  const std::uint64_t before = g1->mutation_count();
  g1->apply_keymap(KeymapKind::NodeAware);
  EXPECT_GT(g1->mutation_count(), before);

  // ...so the next acquire evicts it and rebuilds from scratch.
  auto g2 = apps::serve::acquire_graph(world, key);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_NE(g2.get(), g1.get());

  // Job 2 on the rebuilt instance, rekeyed to node-aware while checked out:
  // same seed, bitwise-identical result (POTRF is timing-independent).
  g2->apply_keymap(KeymapKind::NodeAware);
  const ResultMap node_aware = run_job(g2, 5);
  EXPECT_EQ(node_aware, cyclic);
  apps::serve::release_graph(world, g2);

  // release_graph stamps the mutation count at release time, so a rekey
  // done before release does not poison the pool: next acquire is a hit.
  auto g3 = apps::serve::acquire_graph(world, key);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(g3.get(), g2.get());
  apps::serve::release_graph(world, g3);
}

TEST(Admission, BoundsConcurrencyAndAdmitsFifo) {
  WorldConfig cfg;
  cfg.nranks = 2;
  World world(cfg);
  auto& jm = world.jobs();
  jm.set_max_concurrent(1);
  const GraphKey key{"potrf", {256, 128, 0, 0}};
  std::vector<int> completion_order;
  for (int i = 0; i < 3; ++i) {
    jm.submit(rt::JobSpec{"j" + std::to_string(i), 1, 0},
              [&world, &jm, &completion_order, i, key](rt::JobId id) {
                EXPECT_LE(jm.running(), 1);
                auto g = apps::serve::acquire_graph(world, key);
                g->start(static_cast<std::uint64_t>(i),
                         [&world, &jm, &completion_order, i, id, g]() {
                           completion_order.push_back(i);
                           apps::serve::release_graph(world, g);
                           jm.complete(id);
                         });
              });
  }
  EXPECT_EQ(jm.running(), 1);
  EXPECT_EQ(jm.pending(), 2u);
  world.fence();
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(jm.cache().stats().hits, 2u);  // serialized jobs share one instance
}

TEST(Admission, ShardedEngineRejectedUpFront) {
  // Serving on a sharded engine is not supported, so asking for the
  // JobManager fails loudly instead of running jobs anyway.
  WorldConfig cfg;
  cfg.nranks = 4;
  cfg.engine_lanes = 2;
  World world(cfg);
  EXPECT_THROW((void)world.jobs(), support::ApiError);
}

TEST(Fairness, InflightCapHonoredThroughServingPath) {
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.machine.cores_per_node = 4;
  World world(cfg);
  auto& jm = world.jobs();
  const GraphKey key{"potrf", {768, 128, 0, 0}};
  rt::JobSpec spec;
  spec.name = "capped";
  spec.inflight_cap = 2;
  jm.submit(spec, [&world, key](rt::JobId id) {
    auto g = apps::serve::acquire_graph(world, key);
    g->start(9, [&world, id, g]() {
      apps::serve::release_graph(world, g);
      world.jobs().complete(id);
    });
  });
  world.fence();
  for (int r = 0; r < 2; ++r) {
    const auto& jc = world.scheduler(r).job_counters(1);
    EXPECT_GT(jc.tasks_run, 0u);
    EXPECT_LE(jc.max_inflight, 2);
    EXPECT_EQ(jc.inflight, 0);
    EXPECT_EQ(jc.submitted, jc.tasks_run);
  }
}

TEST(Fairness, CapOnHeavyJobBoundsLightJobLatency) {
  const GraphKey heavy{"potrf", {1024, 128, 0, 0}};
  const GraphKey light{"potrf", {256, 128, 0, 0}};

  auto run_pair = [&](int heavy_cap) {
    WorldConfig cfg;
    cfg.nranks = 2;
    cfg.machine.cores_per_node = 2;
    World world(cfg);
    auto& jm = world.jobs();
    auto launch = [&world](const GraphKey& key, rt::JobSpec spec,
                           std::uint64_t s) {
      world.jobs().submit(spec, [&world, key, s](rt::JobId id) {
        auto g = apps::serve::acquire_graph(world, key);
        g->start(s, [&world, id, g]() {
          apps::serve::release_graph(world, g);
          world.jobs().complete(id);
        });
      });
    };
    rt::JobSpec hs;
    hs.name = "heavy";
    hs.inflight_cap = heavy_cap;
    launch(heavy, hs, 1);
    // The light job arrives once the heavy job's tasks flood the queues.
    world.engine().at(1e-4, [&]() { launch(light, rt::JobSpec{"light", 1, 0}, 2); });
    world.fence();
    return jm.latencies();
  };

  const auto uncapped = run_pair(/*heavy_cap=*/0);
  const auto capped = run_pair(/*heavy_cap=*/1);
  ASSERT_EQ(uncapped.size(), 2u);
  ASSERT_EQ(capped.size(), 2u);
  // Capping the heavy job's per-rank in-flight tasks must strictly improve
  // the light job's latency (it no longer waits behind a full pipeline).
  EXPECT_LT(capped[1], uncapped[1]);
  // And the light job must not be starved outright: it finishes well
  // before the heavy job despite sharing every worker.
  EXPECT_LT(capped[1], capped[0]);
}

/// Summed GPU placements over every rank of `w`.
std::uint64_t device_tasks(World& w) {
  std::uint64_t n = 0;
  for (int r = 0; r < w.nranks(); ++r) n += w.scheduler(r).device_stats().device_tasks;
  return n;
}

/// Norms of the tiles an app run collected, keyed like a job's ResultMap:
/// the lower triangle for POTRF, every tile for FW.
ResultMap tile_norms(const linalg::TiledMatrix& m, bool lower) {
  ResultMap out;
  for (int i = 0; i < m.ntiles(); ++i)
    for (int j = 0; j <= (lower ? i : m.ntiles() - 1); ++j) out[{i, j}] = m.tile(i, j).norm();
  return out;
}

TEST(ServeJobs, SingleJobBitIdenticalToSingleDagPath) {
  // Serving POTRF/FW jobs run the apps' own graph handles, and the
  // multi-tenant path (job 1, per-job queues, ambient-job plumbing) adds
  // zero events and zero charges: one job matches apps::*::run exactly in
  // makespan, message counters, GPU placements and every output tile.
  struct Row {
    const char* kind;
    int n;
    BackendKind backend;
    rt::DevicePlacement device = rt::DevicePlacement::Off;
  };
  const Row rows[] = {
      {"potrf", 512, BackendKind::Parsec},
      {"potrf", 512, BackendKind::Madness},
      {"fw", 384, BackendKind::Parsec},
      {"fw", 384, BackendKind::Madness},
      {"potrf", 768, BackendKind::Parsec, rt::DevicePlacement::Always},
  };
  const int bs = 128;
  const std::uint64_t seed = 42;
  for (const Row& row : rows) {
    const bool potrf = std::string(row.kind) == "potrf";
    SCOPED_TRACE(std::string(row.kind) + " n=" + std::to_string(row.n) + " " +
                 rt::to_string(row.backend));
    WorldConfig cfg;
    cfg.nranks = 4;
    cfg.backend = row.backend;
    cfg.device = row.device;

    World plain(cfg);
    support::Rng rng(seed);
    double app_makespan = 0.0;
    ResultMap app_norms;
    if (potrf) {
      const auto res = apps::cholesky::run(plain, linalg::random_spd(rng, row.n, bs));
      app_makespan = res.makespan;
      app_norms = tile_norms(res.matrix, /*lower=*/true);
    } else {
      const auto res = apps::fw::run(plain, linalg::random_adjacency(rng, row.n, bs));
      app_makespan = res.makespan;
      app_norms = tile_norms(res.matrix, /*lower=*/false);
    }

    World serve(cfg);
    ResultMap job_norms;
    const GraphKey key{row.kind, {row.n, bs, 0, 0}};
    serve.jobs().submit(rt::JobSpec{row.kind, 1, 0},
                        [&serve, &job_norms, key, seed](rt::JobId id) {
                          auto g = apps::serve::acquire_graph(serve, key);
                          g->start(seed, [&serve, &job_norms, id, g]() {
                            job_norms = g->result();
                            apps::serve::release_graph(serve, g);
                            serve.jobs().complete(id);
                          });
                        });
    const double makespan = serve.fence();

    EXPECT_EQ(makespan, app_makespan);
    EXPECT_EQ(serve.comm().stats().messages, plain.comm().stats().messages);
    EXPECT_EQ(serve.comm().stats().splitmd_sends, plain.comm().stats().splitmd_sends);
    EXPECT_EQ(serve.comm().stats().serializations, plain.comm().stats().serializations);
    EXPECT_EQ(device_tasks(serve), device_tasks(plain));
    if (row.device != rt::DevicePlacement::Off) {
      EXPECT_GT(device_tasks(plain), 0u);
    }
    EXPECT_EQ(job_norms, app_norms);
  }
}

}  // namespace
