#include "runtime/trace_session.hpp"

#include <cstdio>

#include "support/error.hpp"
#include "support/table.hpp"

namespace ttg::rt {

void TraceSession::add_options(support::Cli& cli) {
  cli.option("trace", "",
             "write a Chrome-trace JSON (chrome://tracing / Perfetto) to this path");
  cli.flag("trace-summary",
           "print per-template, per-rank, and critical-path trace reports");
  cli.option("fault-seed", "0", "seed for deterministic fault injection");
  cli.option("fault-spec", "",
             "fault plan, e.g. \"drop=0.01,straggler=0:2,latency=*:1.5\" "
             "(empty = no faults)");
  cli.option("device", "",
             "device placement: off, greedy, or always "
             "(empty = the binary's default)");
  cli.option("gpus", "-1",
             "simulated GPUs per node (-1 = the machine preset's count)");
}

namespace {

DevicePlacement parse_placement(const std::string& s) {
  if (s == "off") return DevicePlacement::Off;
  if (s == "greedy") return DevicePlacement::Greedy;
  if (s == "always") return DevicePlacement::Always;
  throw support::ApiError("--device must be off, greedy, or always (got \"" +
                          s + "\")");
}

/// Per-rank work-stealing counters, read from the schedulers; printed only
/// when some rank stole or scanned.
void print_steal_table(World& world) {
  support::Table t("work-stealing scheduler (per-core deques, steal-half)",
                   {"rank", "steals local", "steals remote", "failed scans"});
  bool any = false;
  for (int r = 0; r < world.nranks(); ++r) {
    const StealStats& s = world.scheduler(r).steal_stats();
    if (s.steals_local + s.steals_remote + s.steal_fail == 0) continue;
    any = true;
    t.add_row({std::to_string(r), std::to_string(s.steals_local),
               std::to_string(s.steals_remote), std::to_string(s.steal_fail)});
  }
  if (any) std::printf("%s\n", t.str().c_str());
}

/// Per-rank device-plane counters, read from the schedulers; printed only
/// when some rank placed a task on a GPU or looked up residency.
void print_device_table(World& world) {
  support::Table t("device plane (simulated GPUs, cost-model placement)",
                   {"rank", "device tasks", "h2d", "h2d B", "d2h", "d2h B",
                    "res hits", "res misses", "evictions"});
  bool any = false;
  for (int r = 0; r < world.nranks(); ++r) {
    const DeviceStats& s = world.scheduler(r).device_stats();
    if (s.device_tasks + s.residency_hits + s.residency_misses == 0) continue;
    any = true;
    t.add_row({std::to_string(r), std::to_string(s.device_tasks),
               std::to_string(s.h2d_transfers), std::to_string(s.h2d_bytes),
               std::to_string(s.d2h_transfers), std::to_string(s.d2h_bytes),
               std::to_string(s.residency_hits), std::to_string(s.residency_misses),
               std::to_string(s.evictions)});
  }
  if (any) std::printf("%s\n", t.str().c_str());
}

}  // namespace

TraceSession::TraceSession(const support::Cli& cli)
    : path_(cli.get("trace")),
      summary_(cli.get_flag("trace-summary")),
      faults_(sim::FaultPlan::parse(
          cli.get("fault-spec"),
          static_cast<std::uint64_t>(cli.get_int("fault-seed")))),
      device_set_(!cli.get("device").empty()),
      device_(device_set_ ? parse_placement(cli.get("device"))
                          : DevicePlacement::Off),
      gpus_(static_cast<int>(cli.get_int("gpus"))) {}

TraceSession::TraceSession(std::string path, bool summary)
    : path_(std::move(path)), summary_(summary) {}

void TraceSession::apply(WorldConfig& cfg) const {
  if (faults_.enabled()) cfg.faults = faults_;
  if (device_set_) cfg.device = device_;
  if (gpus_ >= 0) cfg.machine.gpus_per_node = gpus_;
}

void TraceSession::attach(World& world) const {
  if (enabled()) world.enable_tracing();
}

std::string TraceSession::output_path(const std::string& label) const {
  if (label.empty()) return path_;
  // Insert the label before the extension: out.json -> out.<label>.json.
  const auto slash = path_.find_last_of('/');
  const auto dot = path_.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path_ + "." + label;
  return path_.substr(0, dot) + "." + label + path_.substr(dot);
}

void TraceSession::finish(World& world, const std::string& label,
                          double makespan) const {
  if (!enabled()) return;
  Tracer& tracer = world.tracer();
  if (!path_.empty()) {
    const std::string out = output_path(label);
    tracer.write_chrome_trace(out);
    std::printf("# trace: wrote %s (%zu tasks, %zu messages)\n", out.c_str(),
                tracer.records().size(), tracer.messages().size());
  }
  if (summary_) {
    if (!label.empty()) std::printf("# trace summary: %s\n", label.c_str());
    std::printf("%s\n", tracer.summary_table().c_str());
    const double span = makespan >= 0.0 ? makespan : world.engine().now();
    std::printf("%s\n", tracer.breakdown_table(span).str().c_str());
    std::printf("%s\n", world.data_tracker().memory_table().str().c_str());
    const CommStats& cs = world.comm().stats();
    if (cs.broadcast_forwards + cs.am_batches + cs.reduce_forwards +
            cs.reduce_combines > 0) {
      std::printf(
          "# collectives: bcast_forwards=%llu reduce_forwards=%llu "
          "reduce_combines=%llu intra_hops=%llu inter_hops=%llu am_batches=%llu "
          "batched_msgs=%llu\n",
          static_cast<unsigned long long>(cs.broadcast_forwards),
          static_cast<unsigned long long>(cs.reduce_forwards),
          static_cast<unsigned long long>(cs.reduce_combines),
          static_cast<unsigned long long>(cs.intra_node_hops),
          static_cast<unsigned long long>(cs.inter_node_hops),
          static_cast<unsigned long long>(cs.am_batches),
          static_cast<unsigned long long>(cs.batched_msgs));
    }
    print_steal_table(world);
    print_device_table(world);
    std::printf("%s\n", tracer.critical_path_report().c_str());
    if (world.engine().sharded()) {
      const auto es = world.engine().stats();
      const double barrier_share =
          es.run_seconds > 0.0 ? es.barrier_seconds / es.run_seconds : 0.0;
      std::printf(
          "# engine: lanes=%d epochs=%llu deferred_events=%llu "
          "deferred_txns=%llu adaptive_extensions=%llu barrier_share=%.1f%%\n",
          world.engine().lanes(), static_cast<unsigned long long>(es.epochs),
          static_cast<unsigned long long>(es.deferred_events),
          static_cast<unsigned long long>(es.deferred_txns),
          static_cast<unsigned long long>(es.adaptive_extensions),
          100.0 * barrier_share);
    }
    if (world.config().faults.enabled()) {
      std::printf("# faults: %s\n", world.config().faults.describe().c_str());
      const std::string faults = tracer.fault_report();
      if (!faults.empty()) std::printf("%s\n", faults.c_str());
      const auto& ns = world.network().stats();
      std::printf(
          "# degradation: drops=%llu dropped_bytes=%llu dups=%llu rma_delays=%llu "
          "retries=%llu rma_refetches=%llu resent_bytes=%llu recovered=%llu "
          "recovered_bytes=%llu dup_discards=%llu dead_letters=%llu acks=%llu\n",
          static_cast<unsigned long long>(ns.drops),
          static_cast<unsigned long long>(ns.dropped_bytes),
          static_cast<unsigned long long>(ns.duplicates),
          static_cast<unsigned long long>(ns.rma_delays),
          static_cast<unsigned long long>(cs.retries),
          static_cast<unsigned long long>(cs.rma_refetches),
          static_cast<unsigned long long>(cs.resent_bytes),
          static_cast<unsigned long long>(cs.recovered_msgs),
          static_cast<unsigned long long>(cs.recovered_bytes),
          static_cast<unsigned long long>(cs.dup_discards),
          static_cast<unsigned long long>(cs.dead_letters),
          static_cast<unsigned long long>(cs.acks));
    }
  }
}

}  // namespace ttg::rt
