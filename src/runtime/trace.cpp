#include "runtime/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"
#include "support/table.hpp"

namespace ttg::rt {

void Tracer::configure(int nranks, int workers_per_rank) {
  nranks_ = nranks;
  workers_per_rank_ = workers_per_rank;
  if (static_cast<int>(counters_.size()) < nranks)
    counters_.resize(static_cast<std::size_t>(nranks));
}

CommCounters& Tracer::counters(int rank) {
  if (rank >= static_cast<int>(counters_.size()))
    counters_.resize(static_cast<std::size_t>(rank) + 1);
  return counters_[static_cast<std::size_t>(rank)];
}

const CommCounters& Tracer::rank_counters(int rank) const {
  static const CommCounters kZero{};
  if (rank < 0 || rank >= static_cast<int>(counters_.size())) return kZero;
  return counters_[static_cast<std::size_t>(rank)];
}

CommCounters Tracer::totals() const {
  CommCounters t;
  for (const auto& c : counters_) {
    t.msg_sends += c.msg_sends;
    t.msg_recvs += c.msg_recvs;
    t.bytes_sent += c.bytes_sent;
    t.bytes_received += c.bytes_received;
    t.splitmd_sends += c.splitmd_sends;
    t.whole_object_sends += c.whole_object_sends;
    t.serialization_copies += c.serialization_copies;
    t.rma_gets += c.rma_gets;
    t.charged_cpu += c.charged_cpu;
    t.server_wait += c.server_wait;
    t.server_busy += c.server_busy;
    t.rma_latency_total += c.rma_latency_total;
    t.rma_latency_max = std::max(t.rma_latency_max, c.rma_latency_max);
  }
  return t;
}

std::uint32_t Tracer::new_node(NodeRef::Kind kind, std::uint32_t index) {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(NodeRef{kind, index});
  return id;
}

void Tracer::link_from_context(std::vector<std::uint32_t>& preds) {
  if (ctx_ != kNoNode) preds.push_back(ctx_);
}

std::uint32_t Tracer::task_created(std::string name, std::string key, int rank,
                                   int priority) {
  TaskTrace t;
  t.name = std::move(name);
  t.key = std::move(key);
  t.job = current_job();
  t.rank = rank;
  t.priority = priority;
  link_from_context(t.preds);
  t.node = new_node(NodeRef::Kind::Task, static_cast<std::uint32_t>(tasks_.size()));
  tasks_.push_back(std::move(t));
  return tasks_.back().node;
}

void Tracer::task_executed(std::uint32_t node, int worker, double start, double end) {
  TTG_CHECK(node < nodes_.size() && nodes_[node].kind == NodeRef::Kind::Task,
            "task_executed on a non-task node");
  TaskTrace& t = tasks_[nodes_[node].index];
  t.worker = worker;
  t.start = start;
  t.end = end;
  t.exec_seq = next_exec_seq_++;
  t.executed = true;
}

std::uint32_t Tracer::message_created(std::string edge, int src, int dst,
                                      std::uint64_t bytes, bool splitmd) {
  MsgTrace m;
  m.edge = std::move(edge);
  m.job = current_job();
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.splitmd = splitmd;
  link_from_context(m.preds);
  m.node = new_node(NodeRef::Kind::Message, static_cast<std::uint32_t>(msgs_.size()));
  msgs_.push_back(std::move(m));
  auto& c = counters(src);
  c.msg_sends += 1;
  c.bytes_sent += bytes;
  (splitmd ? c.splitmd_sends : c.whole_object_sends) += 1;
  return msgs_.back().node;
}

void Tracer::message_sent(std::uint32_t node, double t) {
  TTG_CHECK(node < nodes_.size() && nodes_[node].kind == NodeRef::Kind::Message,
            "message_sent on a non-message node");
  msgs_[nodes_[node].index].send_time = t;
}

void Tracer::message_delivered(std::uint32_t node, double t) {
  TTG_CHECK(node < nodes_.size() && nodes_[node].kind == NodeRef::Kind::Message,
            "message_delivered on a non-message node");
  MsgTrace& m = msgs_[nodes_[node].index];
  m.recv_time = t;
  auto& c = counters(m.dst);
  c.msg_recvs += 1;
  c.bytes_received += m.bytes;
}

void Tracer::record_server(int rank, double at, double wait, double service) {
  server_.push_back(ServerTrace{rank, at, wait, service});
  auto& c = counters(rank);
  c.server_wait += wait;
  c.server_busy += service;
}

void Tracer::record_rma(int src, int dst, std::uint64_t bytes, double issued,
                        double landed) {
  rma_.push_back(RmaTrace{src, dst, bytes, issued, landed});
  auto& c = counters(dst);
  c.rma_gets += 1;
  const double lat = landed - issued;
  c.rma_latency_total += lat;
  c.rma_latency_max = std::max(c.rma_latency_max, lat);
}

void Tracer::record_wire(int src, int dst, std::uint64_t bytes, double start,
                         double end) {
  wire_.push_back(WireTrace{src, dst, bytes, start, end});
}

void Tracer::record_fault(sim::FaultKind kind, int src, int dst, std::uint64_t bytes,
                          double t) {
  faults_.push_back(FaultTrace{kind, src, dst, bytes, t});
}

void Tracer::clear() {
  ctx_ = kNoNode;
  next_exec_seq_ = 0;
  tasks_.clear();
  msgs_.clear();
  server_.clear();
  rma_.clear();
  wire_.clear();
  faults_.clear();
  nodes_.clear();
  counters_.assign(counters_.size(), CommCounters{});
}

std::map<std::string, TraceSummary> Tracer::summarize() const {
  std::map<std::string, TraceSummary> out;
  for (const auto& r : tasks_) {
    if (!r.executed) continue;
    auto& s = out[r.name];
    s.count += 1;
    const double dt = r.end - r.start;
    s.total_time += dt;
    if (dt > s.max_time) s.max_time = dt;
  }
  return out;
}

std::map<JobId, Tracer::JobTotals> Tracer::job_totals() const {
  std::map<JobId, JobTotals> out;
  for (const auto& r : tasks_) {
    if (!r.executed) continue;
    auto& j = out[r.job];
    j.tasks += 1;
    j.task_time += r.end - r.start;
  }
  for (const auto& m : msgs_) out[m.job].messages += 1;
  return out;
}

std::vector<double> Tracer::busy_per_rank(int nranks) const {
  std::vector<double> busy(static_cast<std::size_t>(nranks), 0.0);
  for (const auto& r : tasks_) {
    if (!r.executed) continue;
    busy[static_cast<std::size_t>(r.rank)] += r.end - r.start;
  }
  return busy;
}

double Tracer::utilization(int nranks, int workers_per_rank, double makespan) const {
  if (makespan <= 0.0) return 0.0;
  double busy = 0.0;
  for (const auto& r : tasks_) {
    if (r.executed) busy += r.end - r.start;
  }
  return busy / (static_cast<double>(nranks) * workers_per_rank * makespan);
}

CriticalPath Tracer::critical_path() const {
  CriticalPath out;
  const std::size_t n = nodes_.size();
  if (n == 0) return out;
  // Node ids are allocated in causal order (a predecessor always exists
  // before its successor), so a single id-order pass is a topological walk.
  std::vector<double> score(n, 0.0);
  std::vector<std::uint32_t> from(n, kNoNode);
  auto duration = [&](std::uint32_t id) -> double {
    const NodeRef& ref = nodes_[id];
    if (ref.kind == NodeRef::Kind::Task) {
      const TaskTrace& t = tasks_[ref.index];
      return t.executed ? t.end - t.start : 0.0;
    }
    const MsgTrace& m = msgs_[ref.index];
    return (m.send_time >= 0.0 && m.recv_time >= 0.0) ? m.recv_time - m.send_time : 0.0;
  };
  auto preds_of = [&](std::uint32_t id) -> const std::vector<std::uint32_t>& {
    const NodeRef& ref = nodes_[id];
    return ref.kind == NodeRef::Kind::Task ? tasks_[ref.index].preds
                                           : msgs_[ref.index].preds;
  };
  std::uint32_t best = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    double base = 0.0;
    for (std::uint32_t p : preds_of(id)) {
      if (score[p] > base) {
        base = score[p];
        from[id] = p;
      }
    }
    score[id] = base + duration(id);
    if (score[id] > score[best]) best = id;
  }
  out.length = score[best];
  for (std::uint32_t id = best; id != kNoNode; id = from[id]) {
    const NodeRef& ref = nodes_[id];
    CriticalHop hop;
    hop.duration = duration(id);
    if (ref.kind == NodeRef::Kind::Task) {
      const TaskTrace& t = tasks_[ref.index];
      hop.kind = CriticalHop::Kind::Task;
      hop.label = t.name;
      hop.key = t.key;
      hop.rank = t.rank;
      hop.start = t.start;
    } else {
      const MsgTrace& m = msgs_[ref.index];
      hop.kind = CriticalHop::Kind::Message;
      hop.label = m.edge;
      hop.rank = m.dst;
      hop.start = m.send_time;
    }
    out.hops.push_back(std::move(hop));
  }
  std::reverse(out.hops.begin(), out.hops.end());
  return out;
}

std::string Tracer::summary_table() const {
  std::string out = "template        count      total[s]     max[s]\n";
  char buf[128];
  for (const auto& [name, s] : summarize()) {
    std::snprintf(buf, sizeof buf, "%-14s %7llu  %12.6f %10.6f\n", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_time, s.max_time);
    out += buf;
  }
  return out;
}

support::Table Tracer::breakdown_table(double makespan) const {
  support::Table t("per-rank breakdown",
                   {"rank", "tasks", "busy[s]", "idle[s]", "util%", "sends", "recvs",
                    "sent[B]", "recvd[B]", "copies", "srv wait[s]"});
  const int nr = std::max(nranks_, static_cast<int>(counters_.size()));
  std::vector<double> busy(static_cast<std::size_t>(std::max(nr, 1)), 0.0);
  std::vector<std::uint64_t> ntasks(busy.size(), 0);
  for (const auto& r : tasks_) {
    if (!r.executed) continue;
    if (r.rank >= static_cast<int>(busy.size())) continue;
    busy[static_cast<std::size_t>(r.rank)] += r.end - r.start;
    ntasks[static_cast<std::size_t>(r.rank)] += 1;
  }
  const double capacity = std::max(1, workers_per_rank_) * makespan;
  for (int r = 0; r < nr; ++r) {
    const auto& c = rank_counters(r);
    const double b = busy[static_cast<std::size_t>(r)];
    t.add_row({std::to_string(r), std::to_string(ntasks[static_cast<std::size_t>(r)]),
               support::fmt(b, 6), support::fmt(std::max(0.0, capacity - b), 6),
               support::fmt(capacity > 0 ? 100.0 * b / capacity : 0.0, 1),
               std::to_string(c.msg_sends), std::to_string(c.msg_recvs),
               std::to_string(c.bytes_sent), std::to_string(c.bytes_received),
               std::to_string(c.serialization_copies), support::fmt(c.server_wait, 6)});
  }
  return t;
}

std::string Tracer::critical_path_report() const {
  const CriticalPath cp = critical_path();
  std::ostringstream os;
  os << "critical path: " << cp.hops.size() << " hops, "
     << support::fmt(cp.length * 1e6, 2) << " us\n";
  support::Table t("critical path (root first)",
                   {"#", "kind", "name", "key", "rank", "start[us]", "dur[us]"});
  for (std::size_t i = 0; i < cp.hops.size(); ++i) {
    const auto& h = cp.hops[i];
    t.add_row({std::to_string(i), h.kind == CriticalHop::Kind::Task ? "task" : "msg",
               h.label, h.key, std::to_string(h.rank), support::fmt(h.start * 1e6, 2),
               support::fmt(h.duration * 1e6, 2)});
  }
  os << t.str();
  return os.str();
}

std::string Tracer::fault_report() const {
  if (faults_.empty()) return std::string();
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, Agg> by_kind;
  for (const auto& f : faults_) {
    auto& a = by_kind[sim::to_string(f.kind)];
    a.count += 1;
    a.bytes += f.bytes;
  }
  support::Table t("fault/recovery events", {"kind", "count", "bytes"});
  for (const auto& [kind, a] : by_kind) {
    t.add_row({kind, std::to_string(a.count), std::to_string(a.bytes)});
  }
  return t.str();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// Greedy interval-to-lane packing so overlapping spans land on distinct
/// Chrome-trace threads (Perfetto requires spans within a tid to nest).
class Lanes {
 public:
  int assign(double start, double end) {
    for (std::size_t i = 0; i < free_at_.size(); ++i) {
      if (free_at_[i] <= start + 1e-15) {
        free_at_[i] = end;
        return static_cast<int>(i);
      }
    }
    free_at_.push_back(end);
    return static_cast<int>(free_at_.size()) - 1;
  }
  [[nodiscard]] int count() const { return static_cast<int>(free_at_.size()); }

 private:
  std::vector<double> free_at_;
};

}  // namespace

std::string Tracer::chrome_trace_json() const {
  // Track layout, per rank process (pid == rank), with G the GPU lanes that
  // ran device tasks (at least one track is reserved for them):
  //   tid 0..W-1         worker timelines (task spans)
  //   tid W..W+G-1       GPU lanes (device task spans; the scheduler records
  //                      them on track W+gpu)
  //   tid W+G            backend message-processing thread (comm/AM server)
  //   tid W+G+1+lane     inbound message spans (send->recv)
  //   tid W+G+99+lane    RMA gets landing at this rank
  // plus a synthetic "network" process (pid == nranks) for wire occupancy.
  const int w = std::max(1, workers_per_rank_);
  int nr = std::max(1, nranks_);
  int gpus = 0;
  for (const auto& t : tasks_) {
    nr = std::max(nr, t.rank + 1);
    if (t.executed) gpus = std::max(gpus, t.worker - w + 1);
  }
  const int server_tid = w + std::max(1, gpus);
  const int net_pid = nr;
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) os << ",";
    first = false;
    os << "\n" << ev;
  };
  auto meta = [&](int pid, int tid, const char* what, const std::string& name) {
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) + ",\"tid\":" +
         std::to_string(tid) + ",\"name\":\"" + what + "\",\"args\":{\"name\":\"" +
         json_escape(name) + "\"}}");
  };
  for (int r = 0; r < nr; ++r) {
    meta(r, 0, "process_name", "rank " + std::to_string(r));
    for (int i = 0; i < w; ++i)
      meta(r, i, "thread_name", "worker " + std::to_string(i));
    for (int g = 0; g < gpus; ++g)
      meta(r, w + g, "thread_name", "gpu " + std::to_string(g));
    meta(r, server_tid, "thread_name", "comm server");
  }
  meta(net_pid, 0, "process_name", "network");

  // Task spans.
  for (const auto& t : tasks_) {
    if (!t.executed) continue;
    emit("{\"ph\":\"X\",\"pid\":" + std::to_string(t.rank) + ",\"tid\":" +
         std::to_string(t.worker) + ",\"ts\":" + num(t.start * 1e6) + ",\"dur\":" +
         num((t.end - t.start) * 1e6) + ",\"name\":\"" + json_escape(t.name) +
         "\",\"args\":{\"key\":\"" + json_escape(t.key) +
         "\",\"priority\":" + std::to_string(t.priority) + "}}");
  }
  // Server (comm/AM thread) service spans; FIFO, so they never overlap.
  for (const auto& s : server_) {
    emit("{\"ph\":\"X\",\"pid\":" + std::to_string(s.rank) + ",\"tid\":" +
         std::to_string(server_tid) + ",\"ts\":" + num((s.at + s.wait) * 1e6) +
         ",\"dur\":" + num(s.service * 1e6) +
         ",\"name\":\"serve\",\"args\":{\"wait_us\":" + num(s.wait * 1e6) + "}}");
  }
  // Inbound message spans, lane-packed per destination rank.
  {
    std::vector<Lanes> lanes(static_cast<std::size_t>(nr));
    for (const auto& m : msgs_) {
      if (m.send_time < 0.0 || m.recv_time < 0.0 || m.dst >= nr) continue;
      const int lane = lanes[static_cast<std::size_t>(m.dst)].assign(m.send_time,
                                                                     m.recv_time);
      emit("{\"ph\":\"X\",\"pid\":" + std::to_string(m.dst) + ",\"tid\":" +
           std::to_string(server_tid + 1 + lane) + ",\"ts\":" + num(m.send_time * 1e6) +
           ",\"dur\":" + num((m.recv_time - m.send_time) * 1e6) + ",\"name\":\"" +
           json_escape((m.splitmd ? "splitmd:" : "msg:") + m.edge) +
           "\",\"args\":{\"src\":" + std::to_string(m.src) + ",\"bytes\":" +
           std::to_string(m.bytes) + "}}");
    }
    for (int r = 0; r < nr; ++r)
      for (int i = 0; i < lanes[static_cast<std::size_t>(r)].count(); ++i)
        meta(r, server_tid + 1 + i, "thread_name", "msg in #" + std::to_string(i));
  }
  // RMA gets, lane-packed per fetching rank.
  {
    std::vector<Lanes> lanes(static_cast<std::size_t>(nr));
    for (const auto& g : rma_) {
      if (g.dst >= nr) continue;
      const int lane = lanes[static_cast<std::size_t>(g.dst)].assign(g.issued, g.landed);
      emit("{\"ph\":\"X\",\"pid\":" + std::to_string(g.dst) + ",\"tid\":" +
           std::to_string(server_tid + 99 + lane) + ",\"ts\":" + num(g.issued * 1e6) +
           ",\"dur\":" + num(g.latency() * 1e6) +
           ",\"name\":\"rma get\",\"args\":{\"src\":" + std::to_string(g.src) +
           ",\"bytes\":" + std::to_string(g.bytes) + "}}");
    }
    for (int r = 0; r < nr; ++r)
      for (int i = 0; i < lanes[static_cast<std::size_t>(r)].count(); ++i)
        meta(r, server_tid + 99 + i, "thread_name", "rma #" + std::to_string(i));
  }
  // Wire occupancy on the synthetic network process.
  {
    Lanes lanes;
    for (const auto& x : wire_) {
      const int lane = lanes.assign(x.start, x.end);
      emit("{\"ph\":\"X\",\"pid\":" + std::to_string(net_pid) + ",\"tid\":" +
           std::to_string(lane) + ",\"ts\":" + num(x.start * 1e6) + ",\"dur\":" +
           num((x.end - x.start) * 1e6) + ",\"name\":\"" + std::to_string(x.src) +
           "\\u2192" + std::to_string(x.dst) + "\",\"args\":{\"bytes\":" +
           std::to_string(x.bytes) + "}}");
    }
    for (int i = 0; i < lanes.count(); ++i)
      meta(net_pid, i, "thread_name", "wire #" + std::to_string(i));
  }
  // Fault/recovery instants on the network process (global scope so they
  // render as full-height markers in Perfetto).
  for (const auto& f : faults_) {
    emit("{\"ph\":\"i\",\"s\":\"p\",\"pid\":" + std::to_string(net_pid) +
         ",\"tid\":0,\"ts\":" + num(f.t * 1e6) + ",\"name\":\"" +
         json_escape(std::string(sim::to_string(f.kind))) + " " +
         std::to_string(f.src) + "\\u2192" + std::to_string(f.dst) +
         "\",\"args\":{\"bytes\":" + std::to_string(f.bytes) + "}}");
  }
  os << "\n]}\n";
  return os.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  TTG_REQUIRE(f != nullptr, "cannot open trace output file: " + path);
  const std::string json = chrome_trace_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  TTG_REQUIRE(written == json.size(), "short write to trace output file: " + path);
}

}  // namespace ttg::rt
