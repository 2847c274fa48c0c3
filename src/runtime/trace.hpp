// Structured runtime observability (PaRSEC-style profiling, grown up).
//
// When enabled on a World, the Tracer collects a typed event stream from
// every layer of the runtime:
//
//   * task spans     — TT name, task key, rank, worker, priority, virtual
//                      start/end (recorded by the Scheduler);
//   * message events — send/recv with byte counts and the consumer terminal
//                      name (recorded by the output-terminal send paths);
//   * server events  — queueing delay + service time on the backend's
//                      message-processing resource: the PaRSEC comm thread
//                      or the MADNESS active-message server thread;
//   * RMA events     — one-sided get latency in the PaRSEC splitmd path;
//   * wire spans     — per-transfer NIC/fabric occupancy (recorded by the
//                      Network through an observer callback).
//
// Tasks and messages double as nodes of a causality graph: a task that
// sends a message is the message's predecessor, and a message whose
// delivery completes a task's inputs is that task's predecessor (local
// sends link tasks directly). Node ids are allocated in causal order, so
// the graph is a DAG in id order and supports a linear-time critical-path
// walk. Everything is queryable programmatically — per-rank sums over the
// stream, the critical path, per-rank busy/idle/comm breakdowns — and
// exportable as Chrome-trace JSON loadable in chrome://tracing or Perfetto.
//
// The Tracer counts nothing the stream does not carry. Runtime counts live
// with the layer that produces them, always on: CommStats (comm,
// collectives, resilience), DataTracker (data lifecycle), the Scheduler's
// StealStats/DeviceStats, and NetStats.
//
// All records are keyed to the *virtual* clock and produced by the
// deterministic event engine, so two runs of the same workload produce
// byte-identical traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "runtime/job.hpp"
#include "sim/fault.hpp"

namespace ttg::support {
class Table;
}

namespace ttg::rt {

/// One executed task instance (also a node of the causality graph).
struct TaskTrace {
  std::string name;   ///< template task name
  std::string key;    ///< task ID rendered via key_to_string (may be empty)
  JobId job = kDefaultJob;  ///< serving-mode job the task belongs to
  int rank = 0;
  int worker = -1;    ///< worker index within the rank, assigned at start
  int priority = 0;
  double start = 0.0; ///< virtual seconds
  double end = 0.0;   ///< virtual seconds (includes post-body send CPU)
  std::uint64_t exec_seq = 0;        ///< global body-execution order
  std::uint32_t node = 0;            ///< this task's causality-graph node id
  std::vector<std::uint32_t> preds;  ///< node ids this task depends on
  bool executed = false;             ///< body ran (false only mid-run)
};

/// One remote message (whole-object or splitmd), also a graph node.
struct MsgTrace {
  std::string edge;  ///< consumer terminal (TT) name
  JobId job = kDefaultJob;  ///< serving-mode job the message belongs to
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  bool splitmd = false;
  double send_time = -1.0;  ///< injection into the comm layer at src
  double recv_time = -1.0;  ///< delivery into the consumer at dst
  std::uint32_t node = 0;
  std::vector<std::uint32_t> preds;
};

/// Queueing on a backend message-processing thread (comm/AM server).
struct ServerTrace {
  int rank = 0;      ///< rank whose server processed the message
  double at = 0.0;   ///< arrival time at the server queue
  double wait = 0.0; ///< time spent queued behind earlier messages
  double service = 0.0;
};

/// One one-sided get in the PaRSEC splitmd data plane.
struct RmaTrace {
  int src = 0;  ///< rank the payload was fetched from
  int dst = 0;  ///< fetching rank
  std::uint64_t bytes = 0;
  double issued = 0.0;
  double landed = 0.0;
  [[nodiscard]] double latency() const { return landed - issued; }
};

/// One payload transfer occupying the simulated wire.
struct WireTrace {
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  double start = 0.0;  ///< injection into the sender NIC
  double end = 0.0;    ///< delivery out of the receiver NIC
};

/// One fault-injection or recovery action (drop, duplicate, retry, …);
/// recorded by the Network (injections) and the ReliableLink (recovery).
struct FaultTrace {
  sim::FaultKind kind = sim::FaultKind::Drop;
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  double t = 0.0;  ///< virtual time of the event
};

/// Per-template aggregate.
struct TraceSummary {
  std::uint64_t count = 0;
  double total_time = 0.0;
  double max_time = 0.0;
};

/// Per-rank sums over the event stream (message, copy, CPU-charge, server
/// and RMA records), queryable by tests.
struct CommCounters {
  std::uint64_t msg_sends = 0;       ///< remote messages issued by this rank
  std::uint64_t msg_recvs = 0;       ///< remote messages delivered here
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t splitmd_sends = 0;       ///< messages using the RMA data plane
  std::uint64_t whole_object_sends = 0;  ///< messages serialized whole
  std::uint64_t serialization_copies = 0;  ///< payload staging/unstaging copies
  std::uint64_t rma_gets = 0;
  double charged_cpu = 0.0;   ///< CPU charged inside task bodies (send copies)
  double server_wait = 0.0;   ///< queueing on the comm/AM server thread
  double server_busy = 0.0;   ///< service time on the comm/AM server thread
  double rma_latency_total = 0.0;
  double rma_latency_max = 0.0;
};

/// One hop of the critical path.
struct CriticalHop {
  enum class Kind { Task, Message };
  Kind kind = Kind::Task;
  std::string label;  ///< TT name (task) or consumer terminal name (message)
  std::string key;    ///< task key, empty for messages
  int rank = 0;       ///< executing rank (task) or destination rank (message)
  double start = 0.0;
  double duration = 0.0;
};

/// The longest task→message→task chain through the run.
struct CriticalPath {
  double length = 0.0;  ///< sum of hop durations (virtual seconds)
  std::vector<CriticalHop> hops;  ///< in causal order, root first
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

  /// Fix the world geometry (called by World::enable_tracing); used for
  /// per-rank tables and Chrome-trace track layout.
  void configure(int nranks, int workers_per_rank);
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] int workers_per_rank() const { return workers_per_rank_; }

  /// Bind the ambient-job source (the World's current-job variable); new
  /// task/message nodes are stamped with the job ambient at creation.
  void set_job_source(const JobId* source) { job_source_ = source; }
  [[nodiscard]] JobId current_job() const {
    return job_source_ != nullptr ? *job_source_ : kDefaultJob;
  }

  // --- causality context (which node is currently executing) ---

  [[nodiscard]] std::uint32_t context() const { return ctx_; }
  void set_context(std::uint32_t node) { ctx_ = node; }
  void clear_context() { ctx_ = kNoNode; }

  // --- recording: scheduler layer ---

  /// Allocate a task node at submit time; links it to the current context
  /// (the task or message that caused the submission), if any.
  std::uint32_t task_created(std::string name, std::string key, int rank, int priority);
  /// Fill in execution data when the task body has run.
  void task_executed(std::uint32_t node, int worker, double start, double end);
  /// CPU charged inside a task body (serialization copies on sends).
  void add_charged_cpu(int rank, double dt) { counters(rank).charged_cpu += dt; }

  // --- recording: terminal / message layer ---

  /// Allocate a message node (at send-issue time, inside the sender's body
  /// so the producing task becomes its predecessor) and count the send.
  std::uint32_t message_created(std::string edge, int src, int dst, std::uint64_t bytes,
                                bool splitmd);
  /// The message entered the comm layer (post send-side staging).
  void message_sent(std::uint32_t node, double t);
  /// The message was delivered into the consumer at dst; counts the recv.
  void message_delivered(std::uint32_t node, double t);
  /// Payload staging/unstaging copies paid for a message.
  void add_copies(int rank, int n) {
    counters(rank).serialization_copies += static_cast<std::uint64_t>(n);
  }

  // --- recording: backend comm engines ---

  void record_server(int rank, double at, double wait, double service);
  void record_rma(int src, int dst, std::uint64_t bytes, double issued, double landed);

  // --- recording: network layer ---

  void record_wire(int src, int dst, std::uint64_t bytes, double start, double end);

  // --- recording: fault injection & recovery ---

  void record_fault(sim::FaultKind kind, int src, int dst, std::uint64_t bytes,
                    double t);

  // --- queries ---

  [[nodiscard]] const std::vector<TaskTrace>& records() const { return tasks_; }
  [[nodiscard]] const std::vector<MsgTrace>& messages() const { return msgs_; }
  [[nodiscard]] const std::vector<ServerTrace>& server_events() const { return server_; }
  [[nodiscard]] const std::vector<RmaTrace>& rma_events() const { return rma_; }
  [[nodiscard]] const std::vector<WireTrace>& wire_events() const { return wire_; }
  [[nodiscard]] const std::vector<FaultTrace>& fault_events() const { return faults_; }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  void clear();

  /// Per-rank counters (zero-initialized for ranks never seen).
  [[nodiscard]] const CommCounters& rank_counters(int rank) const;
  /// Counters summed over all ranks.
  [[nodiscard]] CommCounters totals() const;

  /// Aggregate by template-task name.
  [[nodiscard]] std::map<std::string, TraceSummary> summarize() const;

  /// Per-job aggregate over the task stream (serving mode).
  struct JobTotals {
    std::uint64_t tasks = 0;
    std::uint64_t messages = 0;
    double task_time = 0.0;  ///< summed executed-span durations
  };
  [[nodiscard]] std::map<JobId, JobTotals> job_totals() const;

  /// Busy seconds per rank.
  [[nodiscard]] std::vector<double> busy_per_rank(int nranks) const;

  /// Average worker utilization over [0, makespan].
  [[nodiscard]] double utilization(int nranks, int workers_per_rank,
                                   double makespan) const;

  /// Longest dependency chain (tasks + messages) by summed duration.
  [[nodiscard]] CriticalPath critical_path() const;

  // --- rendering ---

  /// Render the per-template summary as an aligned text block.
  [[nodiscard]] std::string summary_table() const;

  /// Per-rank busy/idle/comm breakdown over [0, makespan].
  [[nodiscard]] support::Table breakdown_table(double makespan) const;

  /// The critical path as an aligned text report.
  [[nodiscard]] std::string critical_path_report() const;

  /// Fault/recovery events aggregated by kind as an aligned text report
  /// (empty string when no fault events were recorded).
  [[nodiscard]] std::string fault_report() const;

  /// Chrome-trace ("traceEvents") JSON: tasks on per-worker tracks grouped
  /// by rank, server/RMA activity on backend tracks, transfers on a
  /// synthetic "network" process. Load in chrome://tracing or Perfetto.
  [[nodiscard]] std::string chrome_trace_json() const;
  /// Write chrome_trace_json() to `path` (throws support::ApiError on I/O
  /// failure).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct NodeRef {
    enum class Kind : std::uint8_t { Task, Message } kind;
    std::uint32_t index;  ///< into tasks_ or msgs_
  };

  CommCounters& counters(int rank);
  std::uint32_t new_node(NodeRef::Kind kind, std::uint32_t index);
  void link_from_context(std::vector<std::uint32_t>& preds);

  int nranks_ = 0;
  int workers_per_rank_ = 0;
  const JobId* job_source_ = nullptr;
  std::uint32_t ctx_ = kNoNode;
  std::uint64_t next_exec_seq_ = 0;
  std::vector<TaskTrace> tasks_;
  std::vector<MsgTrace> msgs_;
  std::vector<ServerTrace> server_;
  std::vector<RmaTrace> rma_;
  std::vector<WireTrace> wire_;
  std::vector<FaultTrace> faults_;
  std::vector<NodeRef> nodes_;
  std::vector<CommCounters> counters_;
};

}  // namespace ttg::rt
