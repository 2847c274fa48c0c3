// Per-rank task scheduler: a pool of virtual cores over two queueing
// substrates.
//
// Each simulated rank runs `MachineModel::cores_per_node` worker cores
// (overridable per World via WorldConfig::workers_per_rank). Ready tasks
// carry a priority — the paper added priority maps to TTG precisely so the
// runtime can favor the critical path (e.g. small-k panels in POTRF) — and
// are dispatched through one of two substrates:
//
//   single queue (default, WorldConfig::work_stealing = off)
//     All cores pull from one per-rank priority queue,
//     highest-priority-first, FIFO among equals. This is the historical
//     scheduler every checked-in CI baseline was produced with; the steal
//     substrate below degenerates to it bit-identically when disabled
//     (pinned by tests/test_steal.cpp).
//
//   per-core deques with steal-half (WorldConfig::work_stealing = on)
//     Every core owns a deque. Tasks made ready inside a task body land on
//     the executing core's deque (producer-consumer locality); tasks made
//     ready outside any body (graph injection, message delivery) are placed
//     round-robin. A core pops its own deque LIFO (depth-first along its
//     continuation); a core whose deque runs dry first drains the per-job
//     overflow heaps, then steals the oldest half of a victim's deque —
//     same-socket victims first, then cross-socket, paying the NUMA-ish
//     steal distance from MachineModel::steal_latency_{local,remote}.
//     Victim selection is a pure function of (World seed, rank, attempt
//     ordinal), so seeded reruns are bit-identical. Priorities still order
//     the overflow heaps but not the deques: locality wins over priority
//     inside a core, which is exactly the trade work-stealing runtimes
//     make.
//
// Multi-tenancy (either substrate): every task belongs to a job (JobId; 0
// is the default job). A job may carry an in-flight cap: at most that many
// of its tasks occupy workers of this rank simultaneously; excess ready
// tasks stay queued even if workers are idle (admission pressure yields to
// other jobs). Capped jobs always queue through their per-job heap — never
// through a deque — so cap accounting is identical under stealing. A freed
// worker arbitrates between jobs' heaps under the rank's fairness policy:
//
//   Strict     — the globally best head by (priority desc, job id asc,
//                enqueue seq asc). Deterministic across jobs by
//                construction, never by map iteration accident; with a
//                single job it degenerates to the historical
//                (priority, FIFO) order bit-identically.
//   WeightedRR — weighted round-robin over jobs' ready queues: each
//                eligible job spends `weight` credits per round, queues are
//                visited in ascending JobId order, and within one job the
//                (priority, FIFO) order is preserved.
//
// Execution model: a task's body (real C++ code) runs at its *completion*
// instant on the virtual clock. Inputs are immutable once the task is
// ready, so running the body at start or at end of its virtual duration is
// observationally equivalent, and doing it at the end lets sends issued by
// the body take effect at exactly the right time without an effect buffer.
// CPU time charged *during* the body (serialization copies on sends) extends
// the worker's busy period beyond the nominal cost.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "runtime/job.hpp"
#include "runtime/trace.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace ttg::rt {

class DataTracker;  // runtime/datacopy.hpp

/// Work-stealing knobs for one rank's scheduler (wired by the World from
/// MachineModel + WorldConfig; see the header comment).
struct StealConfig {
  bool enabled = false;
  std::uint64_t seed = 1;         ///< World seed; victim draws derive from it
  int sockets = 1;                ///< sockets per node (cores split evenly)
  double latency_local = 0.0;     ///< intra-socket steal cost [s]
  double latency_remote = 0.0;    ///< cross-socket steal cost [s]
};

/// Per-rank work-stealing counters (surfaced in --trace-summary and the
/// bench --json outputs; all zero when stealing is off).
struct StealStats {
  std::uint64_t steals_local = 0;   ///< successful same-socket steals
  std::uint64_t steals_remote = 0;  ///< successful cross-socket steals
  std::uint64_t steal_fail = 0;     ///< scans that found every deque empty
  std::uint64_t tasks_stolen = 0;   ///< tasks moved by all steals
};

/// Device-plane knobs for one rank's scheduler (wired by the World from
/// MachineModel + WorldConfig::device; see DESIGN.md "Device placement &
/// residency"). Disabled = the historical host-only scheduler, bit-identical
/// to every checked-in baseline.
struct DeviceConfig {
  bool enabled = false;
  bool always = false;  ///< force every device-capable task onto a GPU
  int gpus = 0;         ///< accelerator lanes on this rank's node share
  double launch_overhead = 0.0;  ///< per-dispatched-kernel cost [s]
  double stage_latency = 0.0;    ///< per-H2D/D2H-transfer latency [s]
  double stage_bw = 1.0;         ///< host<->device bandwidth [B/s]
  std::uint64_t hbm_bytes = 0;   ///< device-memory capacity per GPU [B]
};

/// One datum a device task touches: a stable app-chosen tile tag, its
/// size, and whether the kernel writes it (a written resident is dirty and
/// pays a D2H transfer if evicted). Mirrors the ttg::device::Input/Output
/// declarations of real TTG device tasks.
struct DeviceDatum {
  std::uint64_t tag = 0;
  std::uint64_t bytes = 0;
  bool write = false;
};

/// A task's device variant (the op_cuda alternative to the host op):
/// device-kernel seconds plus the datums the kernel touches. Staging and
/// launch overhead are *not* included in `cost`; the scheduler derives them
/// from residency state and the DeviceConfig.
struct DeviceCall {
  double cost = 0.0;
  std::vector<DeviceDatum> datums;
};

/// One ready task, as every caller hands it to Scheduler::submit: `cost`
/// virtual seconds of host compute, then `body` runs (and may add post-body
/// CPU via charge()). A non-empty `name` records the task in the tracer, if
/// tracing is on, with `key` as its rendered task ID. `device` is the
/// task's device variant, consulted only when the device plane is on.
struct Task {
  JobId job = kDefaultJob;
  int priority = 0;
  double cost = 0.0;
  std::string name{}, key{};
  std::optional<DeviceCall> device{};
  std::function<void()> body{};
};

/// Per-rank device-plane counters (all zero when the plane is disabled).
struct DeviceStats {
  std::uint64_t device_tasks = 0;   ///< device-capable tasks placed on a GPU
  std::uint64_t host_tasks = 0;     ///< device-capable tasks kept on the host
  std::uint64_t h2d_transfers = 0;  ///< cold-input staging transfers
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_transfers = 0;  ///< dirty-eviction writebacks
  std::uint64_t d2h_bytes = 0;
  std::uint64_t residency_hits = 0;    ///< inputs already resident on the GPU
  std::uint64_t residency_misses = 0;  ///< inputs that had to be staged
  std::uint64_t evictions = 0;         ///< residents pushed out under pressure
};

/// Priority scheduler over `workers` virtual cores of one rank.
class Scheduler {
 public:
  /// Per-job scheduling counters (tests assert cap compliance on these).
  struct JobCounters {
    std::uint64_t submitted = 0;  ///< tasks enqueued for this job
    std::uint64_t tasks_run = 0;  ///< bodies executed
    int inflight = 0;             ///< tasks currently occupying workers
    int max_inflight = 0;         ///< peak of inflight over the run
  };

  Scheduler(sim::Engine& engine, int rank, int workers);

  /// Enqueue a ready task. With the device plane on, a task carrying a
  /// device variant is placed by the greedy cost model
  ///   min(host cost, device cost + launch + staging for non-resident
  ///       inputs + lane queue wait)
  /// (or forced onto a GPU under DeviceConfig::always); every other task
  /// takes the host path.
  void submit(Task task);

  /// Install per-job scheduling knobs (WRR weight, in-flight cap). Raising
  /// a cap dispatches newly-eligible queued tasks onto idle workers.
  void configure_job(JobId job, int weight, int inflight_cap);

  /// Select how freed workers arbitrate between jobs' ready queues.
  void set_fairness(FairnessMode mode) { fairness_ = mode; }
  [[nodiscard]] FairnessMode fairness() const { return fairness_; }

  /// Arm (or disable) the per-core deque substrate. Call before any task is
  /// submitted; the off state is the historical single-queue scheduler.
  void configure_steal(const StealConfig& cfg);
  [[nodiscard]] const StealConfig& steal_config() const { return steal_; }
  [[nodiscard]] const StealStats& steal_stats() const { return steal_stats_; }

  /// Arm the device plane: per-GPU FIFO resource lanes plus the residency
  /// table. Call before any task is submitted; disabled (the default) sends
  /// every task down the host path, device variant or not, bit-identically.
  void configure_device(const DeviceConfig& cfg);
  [[nodiscard]] const DeviceConfig& device_config() const { return device_; }
  [[nodiscard]] const DeviceStats& device_stats() const { return device_stats_; }
  /// Busy seconds summed over this rank's GPU lanes.
  [[nodiscard]] double device_busy() const;
  /// Payload bytes currently resident across this rank's GPUs (the
  /// scheduler-side view World::fence() reconciles against the DataTracker).
  [[nodiscard]] std::uint64_t device_resident_bytes() const;

  /// Device-residency sink (the World's DataTracker): staged and evicted
  /// bytes are reported into it when set.
  void set_data_tracker(DataTracker* tracker) { data_tracker_ = tracker; }

  /// Per-job counters (a zero record for jobs never seen on this rank).
  [[nodiscard]] const JobCounters& job_counters(JobId job) const;

  /// Attach an execution tracer (owned by the World).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr; }

  /// Scale all compute on this rank by `f` (>1 models a straggler: thermal
  /// throttling, a noisy neighbor, a degraded socket). Applies to task costs
  /// and in-body charges alike; 1.0 is an exact no-op.
  void set_compute_factor(double f);
  [[nodiscard]] double compute_factor() const { return compute_factor_; }

  /// Extend the currently-executing task's worker occupancy by `dt` seconds
  /// (serialization copies issued from inside a task body). Returns the
  /// total post-body CPU accumulated *including* this charge, so the caller
  /// can delay dependent actions (e.g. wire injection) until the copy is
  /// done. Returns 0 outside a task body (graph injection is uncharged).
  double charge(double dt);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int workers() const { return workers_; }
  [[nodiscard]] double busy_time() const { return busy_; }
  /// Busy seconds of one core (task spans + charges + steal scans).
  [[nodiscard]] double core_busy(int worker) const {
    return core_busy_[static_cast<std::size_t>(worker)];
  }
  /// Socket a core belongs to (cores split evenly over the configured
  /// sockets; the last socket absorbs the remainder).
  [[nodiscard]] int socket_of(int worker) const;
  [[nodiscard]] std::uint64_t tasks_run() const { return tasks_run_; }

 private:
  struct Ready {
    JobId job;
    int priority;
    std::uint64_t seq;
    double cost;
    std::function<void()> body;
    std::uint32_t trace_node;  ///< Tracer node id, or Tracer::kNoNode
  };
  struct Worse {
    bool operator()(const Ready& a, const Ready& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;  // max-heap
      return a.seq > b.seq;                                          // FIFO ties
    }
  };
  /// One job's ready queue + scheduling knobs and counters.
  struct JobQueue {
    std::priority_queue<Ready, std::vector<Ready>, Worse> heap;
    int weight = 1;        ///< WRR share
    int cap = 0;           ///< in-flight cap (0 = unlimited)
    int credits = 0;       ///< remaining WRR credits this round
    JobCounters counters;
  };

  /// One device-resident tile on one GPU.
  struct Resident {
    std::uint64_t bytes = 0;
    std::uint64_t last_use = 0;  ///< LRU ordinal (monotone dispatch clock)
    bool dirty = false;          ///< written on device; eviction pays a D2H
  };

  /// Greedy placement of a device-capable task: the GPU to run it on, or
  /// -1 to keep it on the host.
  [[nodiscard]] int pick_gpu(JobId job, double host_cost, const DeviceCall& dev) const;
  /// Commit `dev`'s datums to GPU `gpu`'s residency table (hits, stagings,
  /// evictions, residency bytes to the tracker); returns the staging seconds
  /// the dispatch pays before the kernel can launch.
  double stage_datums(JobId job, int gpu, const DeviceCall& dev);
  /// Queue one placed device task (its `cost` is the lane service time) on
  /// its GPU lane.
  void start_device(Ready task, int gpu);
  void start(Ready task, int worker);
  /// Run a task's body at its completion instant: `worker` is the host core
  /// it occupies (-1 on a GPU lane) and `track` its trace track. Records the
  /// trace span from `t_start` and returns the post-body CPU the body charged.
  double run_body(Ready& task, int worker, int track, double t_start);
  /// A core finished its task (post-body charges drained): find it more
  /// work or park it on the idle list.
  void release_worker(int worker, JobId job);
  /// Steal-mode scan: steal the oldest half of a victim deque (same-socket
  /// victims first) or park the core. Only called with every local source
  /// (own deque, job heaps) exhausted.
  void try_steal(int worker);
  [[nodiscard]] static bool eligible(const JobQueue& jq) {
    return !jq.heap.empty() && (jq.cap == 0 || jq.counters.inflight < jq.cap);
  }
  /// Cross-job head order: (priority desc, job id asc, enqueue seq asc).
  [[nodiscard]] static bool head_before(const Ready& a, const Ready& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.job != b.job) return a.job < b.job;
    return a.seq < b.seq;
  }
  static Ready pop_top(JobQueue& jq);
  /// Pick the next task a freed worker should run (fairness policy applied);
  /// false when no job has an eligible ready task.
  bool pop_next(Ready& out);
  /// Dispatch eligible queued tasks onto idle workers (after a cap raise).
  void dispatch_idle();

  sim::Engine& engine_;
  int rank_;
  int workers_;
  std::vector<int> idle_workers_;  ///< free worker indices (LIFO)
  std::uint64_t next_seq_ = 0;
  std::uint64_t tasks_run_ = 0;
  double busy_ = 0.0;
  std::vector<double> core_busy_;  ///< per-core slice of busy_
  double compute_factor_ = 1.0;
  bool in_task_ = false;
  int current_worker_ = -1;  ///< core whose body is executing (-1 outside)
  double* charge_accum_ = nullptr;
  Tracer* tracer_ = nullptr;
  FairnessMode fairness_ = FairnessMode::Strict;
  std::map<JobId, JobQueue> queues_;  ///< ordered: deterministic job scans
  // --- steal substrate (empty/zero when steal_.enabled is false) ---
  StealConfig steal_;
  StealStats steal_stats_;
  std::vector<std::deque<Ready>> deques_;  ///< per-core deques (steal mode)
  std::uint64_t steal_attempts_ = 0;       ///< victim-draw ordinal
  int rr_cursor_ = 0;  ///< round-robin core for outside-body submissions
  // --- device plane (empty/zero when device_.enabled is false) ---
  DeviceConfig device_;
  DeviceStats device_stats_;
  DataTracker* data_tracker_ = nullptr;
  std::vector<std::unique_ptr<sim::FifoResource>> gpu_lanes_;
  /// Per-GPU residency: (job, tile tag) -> resident entry. Keyed by job so
  /// concurrent serving-mode jobs never alias each other's tiles; ordered,
  /// so LRU scans are deterministic.
  std::vector<std::map<std::pair<JobId, std::uint64_t>, Resident>> gpu_resident_;
  std::vector<std::uint64_t> gpu_resident_bytes_;
  std::uint64_t device_clock_ = 0;  ///< LRU ordinal source
};

}  // namespace ttg::rt
