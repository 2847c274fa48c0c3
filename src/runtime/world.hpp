// World: one simulated distributed execution context.
//
// A World bundles the virtual cluster (engine + machine model + network),
// the per-rank schedulers, and the backend communication engine. It plays
// the role of ttg::World / the default execution context in the real TTG
// implementation: template tasks register with it, `fence()` drains all
// outstanding work (TTG's global termination detection), and the current
// rank context says on whose behalf code is presently executing (the
// simulator is SPMD over R ranks inside one OS process).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "runtime/collective.hpp"
#include "runtime/comm.hpp"
#include "runtime/datacopy.hpp"
#include "runtime/job.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace ttg::rt {

/// Which of the two TTG backends executes this world (Section II-D).
enum class BackendKind { Parsec, Madness };

[[nodiscard]] const char* to_string(BackendKind k);

/// Device-plane task placement (DESIGN.md "Device placement & residency").
/// Off   — host-only; every checked-in baseline, bit-identical to the
///         pre-device runtime even for TTs that registered a device op.
/// Greedy — per-task cost model: run on the GPU whose queue-wait + staging
///         of non-resident inputs + launch + kernel beats the host, else
///         stay on the host.
/// Always — force every task with a device variant onto a GPU (ablation
///         arm; shows why the cost model matters).
enum class DevicePlacement { Off, Greedy, Always };

[[nodiscard]] const char* to_string(DevicePlacement p);

/// Construction parameters for a World. The ablation knobs correspond to
/// the features the paper introduced (optimized broadcast, splitmd) so the
/// benches can turn them off individually.
struct WorldConfig {
  sim::MachineModel machine = sim::hawk();
  int nranks = 1;
  int workers_per_rank = 0;  ///< 0 → machine.cores_per_node
  BackendKind backend = BackendKind::Parsec;
  // Intra-node work-stealing substrate (DESIGN.md "Intra-node scheduling").
  // Off = the historical single-queue scheduler, bit-identical to every
  // checked-in baseline. On = per-core deques with steal-half; victim draws
  // derive from `seed`, steal distances from machine.steal_latency_* and
  // machine.sockets_per_node.
  bool work_stealing = false;
  std::uint64_t seed = 1;  ///< world seed (steal victim selection)
  bool optimized_broadcast = true;  ///< group broadcast keys by destination rank
  bool enable_splitmd = true;       ///< allow the split-metadata protocol
  // Data-lifecycle CopyPolicy overrides (bench/ablation_copies): tri-state,
  // -1 = backend default, 0/1 = force off/on.
  int zero_copy_local = -1;   ///< share vs copy local const-ref sends
  int serialize_once = -1;    ///< cache a broadcast's serialized form
  // Collective-routing CollectivePolicy overrides (bench/ablation_broadcast,
  // bench/ablation_reduce): negative = backend default.
  int broadcast_tree_arity = -1;  ///< 0/1 = flat, k >= 2 = k-ary spanning tree
  double am_flush_window = -1.0;  ///< 0 = no coalescing, > 0 = window [s]
  int reduce_tree_arity = -1;     ///< 0/1 = flat, k >= 2 = k-ary reduction tree
  int collective_adaptive = -1;   ///< 0/1 = force pick_arity adaptation off/on
  // Machine topology for tree layout: consecutive ranks sharing a node are
  // packed into the same subtree before a route crosses the network.
  int ranks_per_node = 1;  ///< <= 1: every rank is its own node
  double task_overhead_override = -1.0;  ///< <0 → backend default
  double am_cpu_factor = 1.0;  ///< scales per-message CPU (Chameleon-like profile)
  sim::FaultPlan faults;       ///< fault-injection plan; default-constructed = off
  // Sharded-engine selection (DESIGN.md "Sharded discrete-event engine").
  // 0 = the serial reference engine (every checked-in baseline); >= 1 shards
  // ranks onto that many event lanes under conservative lookahead, with
  // results bit-identical to serial (tests/test_scale_equiv.cpp). Sharded
  // multi-tenant serving (JobManager) is not supported yet: jobs() throws.
  int engine_lanes = 0;
  int engine_threads = 1;  ///< OS threads draining lanes and redistributing
                           ///< at barriers (sharded engine only)
  double engine_lookahead = -1.0;  ///< <= 0 → net_latency * min latency factor
  /// Adaptive lookahead: when a low-traffic phase leaves every pending
  /// event on a single lane (a straggler finishing a tail, gaps between
  /// serving-mode jobs), extend that lane's epoch window up to
  /// engine_window_cap lookaheads so one wide epoch replaces many barrier
  /// crossings. Bit-identical to the conservative window for any workload;
  /// off by default so the conservative path stays the reference.
  bool engine_adaptive_lookahead = false;
  /// Cap on adaptive windows, in lookahead units past the epoch start
  /// (bounds per-epoch deferred-buffer growth). Ignored unless adaptive.
  double engine_window_cap = 64.0;
  // Heterogeneous device plane (DESIGN.md "Device placement & residency").
  // Off = host-only, bit-identical to the pre-device runtime; Greedy/Always
  // enable machine.gpus_per_node simulated GPUs per rank with cost-model /
  // forced placement of TT device variants.
  DevicePlacement device = DevicePlacement::Off;
};

/// Type-erased base of every template task, for registration and
/// quiescence checking.
class TTBase {
 public:
  virtual ~TTBase() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  /// Task records created but not yet fired (on any rank). Nonzero after a
  /// drained fence indicates an incomplete graph (missing messages).
  [[nodiscard]] virtual std::size_t pending_records() const = 0;
  /// Number of task bodies executed (all ranks).
  [[nodiscard]] virtual std::uint64_t tasks_executed() const = 0;

  /// Times a structure-affecting setter (keymap/priomap/costmap/reducer)
  /// has been called. The GraphCache stores this at release and refuses to
  /// reuse an instance mutated since (stale-entry eviction).
  [[nodiscard]] std::uint64_t mutations() const { return mutations_; }
  void note_mutation() { ++mutations_; }

  bool executable = false;  ///< set by make_graph_executable

 protected:
  std::uint64_t mutations_ = 0;
};

class World {
 public:
  explicit World(WorldConfig cfg);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const sim::MachineModel& machine() const { return cfg_.machine; }
  [[nodiscard]] const WorldConfig& config() const { return cfg_; }
  [[nodiscard]] CommEngine& comm() { return *comm_; }
  /// Machine topology used for tree layout (collective::build_tree).
  [[nodiscard]] collective::Topology topology() const {
    return collective::Topology{cfg_.ranks_per_node > 1 ? cfg_.ranks_per_node : 1};
  }
  [[nodiscard]] int nranks() const { return cfg_.nranks; }
  [[nodiscard]] int workers_per_rank() const { return workers_; }

  /// Rank on whose behalf code is currently executing.
  [[nodiscard]] int rank() const { return current_rank_; }

  /// Serving-mode job on whose behalf code is currently executing
  /// (kDefaultJob outside multi-tenant runs). CommEngine, DataTracker, and
  /// Tracer all read this through their job-source pointer, so everything a
  /// task does — sends, DataCopy allocations, trace nodes — is attributed
  /// to its job without any per-call plumbing.
  [[nodiscard]] JobId current_job() const { return current_job_; }

  /// Execute `fn` as rank `r` within job `j`, restoring both on exit, also
  /// when `fn` throws: the one scope through which code enters a rank and a
  /// job. Deferred engine callbacks capture the job at issue time and
  /// re-enter it here. On a sharded engine this also sets the ambient event
  /// lane to r's lane, so engine pushes made by `fn` (task completions, send
  /// charges) land on the lane that owns the rank without per-call plumbing.
  template <typename F>
  void run_as(int r, JobId j, F&& fn) {
    TTG_CHECK(r >= 0 && r < nranks(), "rank out of range");
    sim::Engine::LaneScope lane(engine_, engine_.lane_of(r));
    struct Restore {
      World& w;
      int rank;
      JobId job;
      ~Restore() {
        w.current_rank_ = rank;
        w.current_job_ = job;
      }
    } restore{*this, current_rank_, current_job_};
    current_rank_ = r;
    current_job_ = j;
    fn();
  }
  /// Execute `fn` as rank `r` within the current job.
  template <typename F>
  void run_as(int r, F&& fn) {
    run_as(r, current_job_, std::forward<F>(fn));
  }

  /// Multi-tenant job admission/lifecycle (lazily created; owns the
  /// graph-instantiation cache). Throws ApiError on a sharded engine, which
  /// does not support serving yet.
  [[nodiscard]] JobManager& jobs();

  [[nodiscard]] Scheduler& scheduler(int r) { return *sched_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] Scheduler& scheduler() { return scheduler(current_rank_); }

  /// Drain all outstanding events (tasks, messages); global termination
  /// detection. Returns the virtual time reached — across the whole run,
  /// i.e. the cumulative makespan after several fences. Once drained, the
  /// data-lifecycle layer is audited: every DataCopy refcount must be back
  /// to zero (throws support::ApiError on a leak).
  sim::Time fence();

  /// Per-rank data-lifecycle accounting (always on).
  [[nodiscard]] DataTracker& data_tracker() { return data_; }
  [[nodiscard]] const DataTracker& data_tracker() const { return data_; }

  /// Sum of pending task records across all registered template tasks.
  [[nodiscard]] std::size_t unfinished() const;

  void register_tt(TTBase* tt);
  void deregister_tt(TTBase* tt);

  /// Flop accounting for GFLOP/s reporting in benches.
  void add_flops(double f) { flops_ += f; }
  [[nodiscard]] double total_flops() const { return flops_; }

  /// Turn on per-task execution tracing (PaRSEC-style profiling). Call
  /// before injecting work; records accumulate across fences.
  void enable_tracing();
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr; }
  /// The trace (valid only after enable_tracing()).
  [[nodiscard]] Tracer& tracer() {
    TTG_CHECK(tracer_ != nullptr, "tracing not enabled");
    return *tracer_;
  }

  /// Aggregate busy time across all workers of all ranks.
  [[nodiscard]] double total_busy_time() const;

 private:
  WorldConfig cfg_;
  int workers_;
  // data_ and tracer_ are declared before engine_ on purpose: closures still
  // queued in the engine at destruction can own DataCopy blocks, and a
  // block's destructor reports into both.
  DataTracker data_;
  std::unique_ptr<Tracer> tracer_;
  sim::Engine engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<CommEngine> comm_;
  std::vector<std::unique_ptr<Scheduler>> sched_;
  std::vector<TTBase*> tts_;
  std::unique_ptr<JobManager> jobs_;
  int current_rank_ = 0;
  JobId current_job_ = kDefaultJob;
  double flops_ = 0.0;
};

/// Validate a template task for execution (all worlds' TTs must be marked
/// executable before fence(), mirroring ttg::make_graph_executable).
void make_graph_executable(TTBase& tt);

}  // namespace ttg::rt
