// Serving-mode job graphs: reusable, restartable template-graph instances
// for the multi-tenant JobManager (ROADMAP serving mode).
//
// Each JobGraph wraps one compiled TTG DAG — the apps' own restartable
// graph handles (apps::cholesky::Graph, apps::fw::Graph) or a compact
// block-sparse matmul with a streaming reduction — built once against a
// World and then *restarted* per job: start(seed) generates that job's
// input data and injects it through the graph's INITIATOR; completion is
// detected by the RESULT sink counting arrivals (no fence needed, so many
// jobs can be in flight in one engine run). Instances plug into
// rt::GraphCache through mutation_count(): a job whose GraphKey matches a
// pooled, unmutated instance reuses it instead of rebuilding the TT wiring.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/job.hpp"
#include "runtime/world.hpp"
#include "ttg/keymaps.hpp"

namespace ttg::apps::serve {

/// Per-tile Frobenius norms of a job's output, keyed by tile coordinate.
/// Order-independent and cheap to compare: two runs of the same job agree
/// exactly (POTRF/FW) or to reduction-order rounding (bspmm).
using ResultMap = std::map<std::pair<int, int>, double>;

/// One compiled, restartable template graph. Exactly one job may be active
/// on an instance at a time (the GraphCache checks instances out
/// exclusively); per-run state is reset by start().
class JobGraph {
 public:
  virtual ~JobGraph() = default;
  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;

  [[nodiscard]] const rt::GraphKey& key() const { return key_; }

  /// Sum of the TT-structure mutation counters; rt::GraphCache compares
  /// this against the value stamped at release to detect stale instances.
  [[nodiscard]] std::uint64_t mutation_count() const {
    std::uint64_t m = 0;
    for (const rt::TTBase* tt : tts_) m += tt->mutations();
    return m;
  }

  /// Begin one job: (re)generate the input data from `seed` and inject it.
  /// `on_done` fires inside the task body that delivers the last RESULT
  /// tile — i.e. at the job's completion instant on the virtual clock.
  virtual void start(std::uint64_t seed, std::function<void()> on_done) = 0;

  /// Output of the most recently completed (or active) run.
  [[nodiscard]] const ResultMap& result() const { return result_; }

  /// RESULT arrivals the active run still waits for (0 = idle/complete).
  [[nodiscard]] bool running() const { return running_; }

  /// Switch the placement keymap of every TT in the wiring (the serving
  /// analogue of the apps' --keymap knob): POTRF and FW jobs call their app
  /// graph's place(). Each set_keymap bumps that TT's mutation counter, so
  /// a pooled instance rekeyed after release is stale and the next same-key
  /// acquire evicts and rebuilds it. The bspmm graph has no keymap knob.
  virtual void apply_keymap(KeymapKind /*kind*/) {
    TTG_CHECK(false, "job graph '" + key_.kind + "' has no keymap hook");
  }

 protected:
  explicit JobGraph(rt::GraphKey key) : key_(std::move(key)) {}

  /// Arm per-run completion state (call first in start()).
  void begin_run(int expected, std::function<void()> on_done) {
    TTG_CHECK(!running_, "job graph '" + key_.kind + "' is already running");
    TTG_CHECK(expected > 0, "job graph with no expected results");
    running_ = true;
    arrived_ = 0;
    expected_ = expected;
    result_.clear();
    on_done_ = std::move(on_done);
  }

  /// One RESULT tile arrived; fires on_done on the last one.
  void finish_one() {
    TTG_CHECK(running_, "result arrived on an idle job graph");
    if (++arrived_ < expected_) return;
    running_ = false;
    auto done = std::move(on_done_);
    on_done_ = nullptr;
    if (done) done();
  }

  rt::GraphKey key_;
  std::vector<rt::TTBase*> tts_;   ///< every TT of the wiring (for counters)
  ResultMap result_;
  int arrived_ = 0;
  int expected_ = 0;
  bool running_ = false;
  std::function<void()> on_done_;
};

/// Build a fresh graph instance for `key`:
///   kind "potrf":  params = {n, block}   — tiled Cholesky (apps::cholesky::Graph)
///   kind "fw":     params = {n, block}   — Floyd-Warshall (apps::fw::Graph)
///   kind "bspmm":  params = {nt, block, density_pct} — block-sparse matmul
///                  with a streaming tile_add reduction per output tile
std::shared_ptr<JobGraph> make_graph(rt::World& world, const rt::GraphKey& key);

/// Cache-aware acquire: reuse a pooled instance from the world's
/// JobManager cache when one with an unchanged structure exists, else
/// build. Pair with release_graph() when the job completes.
std::shared_ptr<JobGraph> acquire_graph(rt::World& world, const rt::GraphKey& key);

/// Return an instance to the world's cache for later same-key jobs.
void release_graph(rt::World& world, std::shared_ptr<JobGraph> g);

}  // namespace ttg::apps::serve
