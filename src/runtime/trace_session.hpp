// CLI wiring for runtime tracing, fault injection, and device placement:
// `--trace <path>` / `--trace-summary` / `--fault-seed` / `--fault-spec` /
// `--device {off,greedy,always}` / `--gpus <n>`.
//
// Every bench and example binary declares the options through
// add_options(), constructs a TraceSession from the parsed Cli, applies
// the fault plan and device overrides to each WorldConfig, attaches the
// session to each World it creates, and calls finish() after the run:
//
//   support::Cli cli(...);
//   rt::TraceSession::add_options(cli);
//   ...
//   rt::TraceSession trace(cli);
//   rt::WorldConfig cfg;
//   trace.apply(cfg);
//   rt::World world(cfg);
//   trace.attach(world);
//   ... run, fence ...
//   trace.finish(world, "parsec-8nodes");
//
// finish() writes one Chrome-trace JSON file per traced World (the label
// disambiguates binaries that run many configurations) and/or prints the
// per-template summary, the per-rank breakdown, the critical-path report,
// and — when active — the collective counts, the per-rank steal and device
// tables (read from CommStats and the schedulers, which own those counts),
// and the fault/recovery event table plus the comm-plane degradation
// counters. With no flags given, every call is a no-op, so the wiring costs
// nothing on plain runs.
#pragma once

#include <string>

#include "runtime/world.hpp"
#include "support/cli.hpp"

namespace ttg::rt {

class TraceSession {
 public:
  /// Declare --trace, --trace-summary, --fault-seed, --fault-spec,
  /// --device, and --gpus on a Cli (call before parse()).
  static void add_options(support::Cli& cli);

  /// Read the trace/fault/device options back from a parsed Cli. Throws
  /// support::ApiError on a malformed --fault-spec or --device value.
  explicit TraceSession(const support::Cli& cli);
  TraceSession(std::string path, bool summary);

  [[nodiscard]] bool enabled() const { return !path_.empty() || summary_; }

  /// The fault plan parsed from --fault-spec/--fault-seed (inactive when
  /// --fault-spec was empty or absent).
  [[nodiscard]] const sim::FaultPlan& faults() const { return faults_; }

  /// Install the parsed fault plan and any --device/--gpus overrides into
  /// a WorldConfig. Every override defaults to "leave the config alone",
  /// so flag-free runs are bit-identical to a build without the wiring.
  void apply(WorldConfig& cfg) const;

  /// Enable tracing on `world` (no-op when not enabled).
  void attach(World& world) const;

  /// Export and/or print the trace of one finished World. `label` is
  /// appended to the output file stem when a binary traces several runs;
  /// `makespan` (if >= 0) sizes the idle column of the breakdown table.
  void finish(World& world, const std::string& label = "",
              double makespan = -1.0) const;

 private:
  [[nodiscard]] std::string output_path(const std::string& label) const;

  std::string path_;      ///< Chrome-trace output file ("" = no export)
  bool summary_ = false;  ///< print summary/breakdown/critical-path tables
  sim::FaultPlan faults_; ///< parsed fault plan (inactive unless --fault-spec)
  bool device_set_ = false;  ///< a --device value was given
  DevicePlacement device_ = DevicePlacement::Off;  ///< parsed --device
  int gpus_ = -1;  ///< --gpus override of machine.gpus_per_node (-1 = keep)
};

}  // namespace ttg::rt
