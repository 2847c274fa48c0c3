#include "runtime/world.hpp"

#include <algorithm>

#include "runtime/comm_madness.hpp"
#include "runtime/comm_parsec.hpp"

namespace ttg::rt {

const char* to_string(BackendKind k) {
  switch (k) {
    case BackendKind::Parsec:
      return "parsec";
    case BackendKind::Madness:
      return "madness";
  }
  return "?";
}

const char* to_string(DevicePlacement p) {
  switch (p) {
    case DevicePlacement::Off:
      return "off";
    case DevicePlacement::Greedy:
      return "greedy";
    case DevicePlacement::Always:
      return "always";
  }
  return "?";
}

namespace {

// Lookahead rule: no cross-rank delivery can undercut the propagation
// latency of the fastest link, so epochs of that width are safe to drain
// lane-parallel. Fault plans can only speed a link up via latency_factor < 1.
sim::EngineConfig derive_engine_config(const WorldConfig& cfg) {
  sim::EngineConfig ec;
  if (cfg.engine_lanes <= 0) return ec;  // serial reference engine
  ec.lanes = cfg.engine_lanes;
  ec.threads = cfg.engine_threads;
  ec.nranks = cfg.nranks;
  ec.lookahead = cfg.engine_lookahead;
  if (ec.lookahead <= 0.0) {
    double factor = cfg.faults.enabled() ? cfg.faults.min_latency_factor() : 1.0;
    ec.lookahead = cfg.machine.net_latency * std::min(1.0, factor);
  }
  ec.adaptive = cfg.engine_adaptive_lookahead;
  ec.window_cap = cfg.engine_window_cap;
  return ec;
}

}  // namespace

World::World(WorldConfig cfg) : cfg_(cfg), engine_(derive_engine_config(cfg_)) {
  TTG_REQUIRE(cfg_.nranks >= 1, "world needs at least one rank");
  workers_ = cfg_.workers_per_rank > 0 ? cfg_.workers_per_rank
                                       : cfg_.machine.cores_per_node;
  network_ = std::make_unique<net::Network>(engine_, cfg_.machine, cfg_.nranks);
  switch (cfg_.backend) {
    case BackendKind::Parsec:
      comm_ = std::make_unique<ParsecComm>(engine_, *network_, cfg_.am_cpu_factor,
                                           cfg_.task_overhead_override,
                                           cfg_.enable_splitmd);
      break;
    case BackendKind::Madness:
      comm_ = std::make_unique<MadnessComm>(engine_, *network_, cfg_.am_cpu_factor,
                                            cfg_.task_overhead_override);
      break;
  }
  comm_->configure_policy(cfg_.zero_copy_local, cfg_.serialize_once);
  comm_->configure_collective(cfg_.broadcast_tree_arity, cfg_.am_flush_window,
                              cfg_.reduce_tree_arity, cfg_.collective_adaptive);
  comm_->set_job_source(&current_job_);
  data_.configure(cfg_.nranks);
  data_.set_job_source(&current_job_);
  sched_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    sched_.push_back(std::make_unique<Scheduler>(engine_, r, workers_));
  }
  if (cfg_.device != DevicePlacement::Off) {
    TTG_REQUIRE(cfg_.machine.gpus_per_node > 0,
                "device placement enabled but machine model has no GPUs");
    DeviceConfig dc;
    dc.enabled = true;
    dc.always = cfg_.device == DevicePlacement::Always;
    dc.gpus = cfg_.machine.gpus_per_node;
    dc.launch_overhead = cfg_.machine.gpu_launch_overhead;
    dc.stage_latency = cfg_.machine.pcie_latency;
    dc.stage_bw = cfg_.machine.pcie_bw;
    dc.hbm_bytes = static_cast<std::uint64_t>(cfg_.machine.hbm_bytes);
    for (auto& s : sched_) {
      s->set_data_tracker(&data_);
      s->configure_device(dc);
    }
  }
  if (cfg_.work_stealing) {
    StealConfig sc;
    sc.enabled = true;
    sc.seed = cfg_.seed;
    sc.sockets = std::max(1, cfg_.machine.sockets_per_node);
    sc.latency_local = cfg_.machine.steal_latency_local;
    sc.latency_remote = cfg_.machine.steal_latency_remote;
    for (auto& s : sched_) s->configure_steal(sc);
  }
  if (cfg_.faults.enabled()) {
    network_->configure_faults(cfg_.faults);
    for (int r = 0; r < cfg_.nranks; ++r) {
      sched_[static_cast<std::size_t>(r)]->set_compute_factor(
          cfg_.faults.compute_factor(r));
    }
    // Arm the comm-plane recovery protocol only when transfers can actually
    // be lost or delayed; pure perturbation plans (stragglers, slow links)
    // keep the fault-free wire protocol so no ack traffic is added.
    if (cfg_.faults.needs_reliability()) comm_->enable_resilience(cfg_.faults);
  }
}

World::~World() = default;

sim::Time World::fence() {
  for (const TTBase* tt : tts_) {
    TTG_REQUIRE(tt->executable,
                "fence() before make_graph_executable on TT '" + tt->name() + "'");
  }
  const sim::Time t = engine_.run();
  // The queue is drained, so every send/broadcast closure has been run (or
  // cancelled and freed): any DataCopy still alive is a genuine leak.
  data_.check_no_leaks();
  // With the device plane on, reconcile the tracker's resident-byte view
  // against the schedulers' residency maps (a disagreement means staging or
  // eviction accounting went unbalanced somewhere).
  if (cfg_.device != DevicePlacement::Off) {
    std::vector<std::uint64_t> view;
    view.reserve(sched_.size());
    for (const auto& s : sched_) view.push_back(s->device_resident_bytes());
    data_.check_device_residency(view);
  }
  return t;
}

std::size_t World::unfinished() const {
  std::size_t n = 0;
  for (const TTBase* tt : tts_) n += tt->pending_records();
  return n;
}

JobManager& World::jobs() {
  TTG_REQUIRE(!engine_.sharded(),
              "multi-tenant serving (World::jobs) needs the serial engine "
              "(engine_lanes = 0)");
  if (!jobs_) jobs_ = std::make_unique<JobManager>(*this);
  return *jobs_;
}

void World::enable_tracing() {
  if (tracer_) return;
  tracer_ = std::make_unique<Tracer>();
  tracer_->configure(cfg_.nranks, workers_);
  tracer_->set_job_source(&current_job_);
  for (auto& s : sched_) s->set_tracer(tracer_.get());
  comm_->set_tracer(tracer_.get());
  network_->set_transfer_observer(
      [t = tracer_.get()](int src, int dst, std::size_t bytes, sim::Time t0,
                          sim::Time t1) {
        t->record_wire(src, dst, static_cast<std::uint64_t>(bytes), t0, t1);
      });
  network_->set_fault_observer(
      [this, t = tracer_.get()](sim::FaultKind kind, int src, int dst,
                                std::size_t bytes) {
        t->record_fault(kind, src, dst, static_cast<std::uint64_t>(bytes),
                        engine_.now());
      });
}

void World::register_tt(TTBase* tt) { tts_.push_back(tt); }

void World::deregister_tt(TTBase* tt) {
  tts_.erase(std::remove(tts_.begin(), tts_.end(), tt), tts_.end());
}

double World::total_busy_time() const {
  double t = 0.0;
  for (const auto& s : sched_) t += s->busy_time();
  return t;
}

void make_graph_executable(TTBase& tt) { tt.executable = true; }

}  // namespace ttg::rt
