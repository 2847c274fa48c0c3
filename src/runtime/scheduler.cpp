#include "runtime/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "runtime/datacopy.hpp"
#include "support/rng.hpp"

namespace ttg::rt {

Scheduler::Scheduler(sim::Engine& engine, int rank, int workers)
    : engine_(engine), rank_(rank), workers_(workers) {
  TTG_CHECK(workers > 0, "scheduler needs at least one worker");
  // LIFO free list seeded so the first task lands on worker 0.
  idle_workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = workers - 1; w >= 0; --w) idle_workers_.push_back(w);
  core_busy_.assign(static_cast<std::size_t>(workers), 0.0);
}

void Scheduler::submit(Task task) {
  TTG_CHECK(task.cost >= 0.0, "negative task cost");
  const std::uint32_t node =
      tracer_ != nullptr && !task.name.empty()
          ? tracer_->task_created(std::move(task.name), std::move(task.key), rank_,
                                  task.priority)
          : Tracer::kNoNode;
  JobQueue& jq = queues_[task.job];
  jq.counters.submitted += 1;
  if (task.device && device_.enabled) {
    const int gpu = pick_gpu(task.job, task.cost, *task.device);
    if (gpu >= 0) {
      const double staging = stage_datums(task.job, gpu, *task.device);
      device_stats_.device_tasks += 1;
      start_device(Ready{task.job, task.priority, next_seq_++,
                         staging + device_.launch_overhead + task.device->cost,
                         std::move(task.body), node},
                   gpu);
      return;
    }
    device_stats_.host_tasks += 1;
  }
  Ready ready{task.job, task.priority, next_seq_++, task.cost * compute_factor_,
              std::move(task.body), node};
  if (!idle_workers_.empty() && (jq.cap == 0 || jq.counters.inflight < jq.cap)) {
    const int worker = idle_workers_.back();
    idle_workers_.pop_back();
    start(std::move(ready), worker);
  } else if (steal_.enabled && jq.cap == 0) {
    // Deque substrate: a task made ready inside a body stays with its
    // producing core; outside-body submissions spread round-robin. Capped
    // jobs never enter a deque (cap accounting stays on the heap path).
    const int w = current_worker_ >= 0 ? current_worker_ : rr_cursor_;
    if (current_worker_ < 0) rr_cursor_ = (rr_cursor_ + 1) % workers_;
    deques_[static_cast<std::size_t>(w)].push_back(std::move(ready));
  } else {
    jq.heap.push(std::move(ready));
  }
}

void Scheduler::configure_job(JobId job, int weight, int inflight_cap) {
  TTG_CHECK(weight >= 1, "job weight must be >= 1");
  TTG_CHECK(inflight_cap >= 0, "negative in-flight cap");
  JobQueue& jq = queues_[job];
  jq.weight = weight;
  jq.cap = inflight_cap;
  dispatch_idle();  // a raised cap can make queued tasks eligible
}

void Scheduler::configure_steal(const StealConfig& cfg) {
  TTG_CHECK(next_seq_ == 0, "configure_steal after tasks were submitted");
  TTG_CHECK(cfg.sockets >= 1, "need at least one socket");
  steal_ = cfg;
  deques_.clear();
  if (steal_.enabled) deques_.resize(static_cast<std::size_t>(workers_));
}

void Scheduler::configure_device(const DeviceConfig& cfg) {
  TTG_CHECK(next_seq_ == 0, "configure_device after tasks were submitted");
  device_ = cfg;
  gpu_lanes_.clear();
  gpu_resident_.clear();
  gpu_resident_bytes_.clear();
  if (!device_.enabled) return;
  TTG_CHECK(device_.gpus >= 1, "device plane needs at least one GPU");
  TTG_CHECK(device_.stage_bw > 0.0, "staging bandwidth must be positive");
  gpu_lanes_.reserve(static_cast<std::size_t>(device_.gpus));
  for (int g = 0; g < device_.gpus; ++g) {
    gpu_lanes_.push_back(std::make_unique<sim::FifoResource>(
        engine_, "gpu" + std::to_string(rank_) + "." + std::to_string(g)));
  }
  gpu_resident_.resize(static_cast<std::size_t>(device_.gpus));
  gpu_resident_bytes_.assign(static_cast<std::size_t>(device_.gpus), 0);
}

double Scheduler::device_busy() const {
  double t = 0.0;
  for (const auto& lane : gpu_lanes_) t += lane->busy_time();
  return t;
}

std::uint64_t Scheduler::device_resident_bytes() const {
  std::uint64_t n = 0;
  for (const std::uint64_t b : gpu_resident_bytes_) n += b;
  return n;
}

int Scheduler::socket_of(int worker) const {
  const int sockets = std::max(1, steal_.sockets);
  const int per = std::max(1, (workers_ + sockets - 1) / sockets);
  return std::min(worker / per, sockets - 1);
}

const Scheduler::JobCounters& Scheduler::job_counters(JobId job) const {
  static const JobCounters kZero{};
  const auto it = queues_.find(job);
  return it != queues_.end() ? it->second.counters : kZero;
}

void Scheduler::set_compute_factor(double f) {
  TTG_CHECK(f > 0.0, "compute factor must be positive");
  compute_factor_ = f;
}

int Scheduler::pick_gpu(JobId job, double host_cost, const DeviceCall& dev) const {
  TTG_CHECK(dev.cost >= 0.0, "negative device task cost");
  // Greedy placement: for each GPU estimate queue wait + staging of
  // non-resident inputs + launch + kernel, take the best, and compare it to
  // the host-side cost. The estimate deliberately ignores eviction
  // writebacks (committed only on the chosen GPU by stage_datums) — an
  // optimistic, deterministic tie-break.
  const double now = engine_.now();
  int best = 0;
  double best_finish = std::numeric_limits<double>::infinity();
  for (int g = 0; g < device_.gpus; ++g) {
    const auto& res = gpu_resident_[static_cast<std::size_t>(g)];
    double staging = 0.0;
    for (const auto& d : dev.datums) {
      if (res.find({job, d.tag}) == res.end()) {
        staging +=
            device_.stage_latency + static_cast<double>(d.bytes) / device_.stage_bw;
      }
    }
    const double wait =
        std::max(0.0, gpu_lanes_[static_cast<std::size_t>(g)]->free_at() - now);
    const double finish = wait + staging + device_.launch_overhead + dev.cost;
    if (finish < best_finish) {
      best_finish = finish;
      best = g;
    }
  }
  if (!device_.always && host_cost * compute_factor_ <= best_finish) return -1;
  return best;
}

double Scheduler::stage_datums(JobId job, int gpu, const DeviceCall& dev) {
  auto& res = gpu_resident_[static_cast<std::size_t>(gpu)];
  auto& used = gpu_resident_bytes_[static_cast<std::size_t>(gpu)];
  double staging = 0.0;
  ++device_clock_;  // all datums of one dispatch share the LRU stamp
  for (const auto& d : dev.datums) {
    const std::pair<JobId, std::uint64_t> key{job, d.tag};
    auto it = res.find(key);
    if (it != res.end()) {
      // Already resident: the owner-computes reuse the cost model exists
      // to exploit — no transfer, just an LRU touch.
      device_stats_.residency_hits += 1;
      it->second.last_use = device_clock_;
      it->second.dirty = it->second.dirty || d.write;
      continue;
    }
    device_stats_.residency_misses += 1;
    // HBM pressure: evict least-recently-used residents not touched by this
    // dispatch; dirty victims pay the D2H writeback before the slot frees.
    if (device_.hbm_bytes > 0) {
      while (used + d.bytes > device_.hbm_bytes && !res.empty()) {
        auto victim = res.end();
        for (auto jt = res.begin(); jt != res.end(); ++jt) {
          if (jt->second.last_use == device_clock_) continue;  // pinned now
          if (victim == res.end() ||
              jt->second.last_use < victim->second.last_use) {
            victim = jt;
          }
        }
        if (victim == res.end()) break;  // everything pinned by this dispatch
        device_stats_.evictions += 1;
        if (victim->second.dirty) {
          device_stats_.d2h_transfers += 1;
          device_stats_.d2h_bytes += victim->second.bytes;
          staging += device_.stage_latency +
                     static_cast<double>(victim->second.bytes) / device_.stage_bw;
        }
        if (data_tracker_ != nullptr)
          data_tracker_->on_device_evict(rank_, victim->second.bytes);
        used -= victim->second.bytes;
        res.erase(victim);
      }
    }
    device_stats_.h2d_transfers += 1;
    device_stats_.h2d_bytes += d.bytes;
    staging +=
        device_.stage_latency + static_cast<double>(d.bytes) / device_.stage_bw;
    if (data_tracker_ != nullptr) data_tracker_->on_stage_h2d(rank_, d.bytes);
    res.emplace(key, Resident{d.bytes, device_clock_, d.write});
    used += d.bytes;
  }
  return staging;
}

void Scheduler::start_device(Ready task, int gpu) {
  sim::FifoResource& lane = *gpu_lanes_[static_cast<std::size_t>(gpu)];
  // The lane is a FIFO resource: the kernel queues behind earlier dispatches
  // to the same GPU, so its span starts when the lane frees up, and — like
  // the host path — the body runs at the task's virtual completion instant.
  const double t_start = std::max(engine_.now(), lane.free_at());
  JobCounters& jc = queues_[task.job].counters;
  jc.max_inflight = std::max(jc.max_inflight, ++jc.inflight);
  const double service = task.cost;
  lane.submit(service, [this, t_start, gpu, task = std::move(task)]() mutable {
    // Device spans render on per-GPU tracks placed after the host cores. No
    // host core is occupied by a device body.
    run_body(task, /*worker=*/-1, workers_ + gpu, t_start);
    queues_[task.job].counters.inflight -= 1;
    // Freed in-flight credit can make a capped job's queued host tasks
    // eligible for idle workers.
    dispatch_idle();
  });
}

double Scheduler::charge(double dt) {
  TTG_CHECK(dt >= 0.0, "negative charge");
  if (!in_task_) return 0.0;  // charges outside a task (graph injection) are free
  dt *= compute_factor_;  // stragglers serialize slower, too
  *charge_accum_ += dt;
  if (tracer_ != nullptr) tracer_->add_charged_cpu(rank_, dt);
  return *charge_accum_;
}

Scheduler::Ready Scheduler::pop_top(JobQueue& jq) {
  Ready next = std::move(const_cast<Ready&>(jq.heap.top()));
  jq.heap.pop();
  return next;
}

bool Scheduler::pop_next(Ready& out) {
  if (fairness_ == FairnessMode::WeightedRR) {
    // Round-robin rounds: visit jobs in ascending id; a job spends one
    // credit per dispatched task and starts each round with its weight.
    for (int pass = 0; pass < 2; ++pass) {
      for (auto& [job, jq] : queues_) {
        if (!eligible(jq) || jq.credits <= 0) continue;
        --jq.credits;
        out = pop_top(jq);
        return true;
      }
      // No eligible job holds credits: open a new round.
      bool any = false;
      for (auto& [job, jq] : queues_) {
        if (!eligible(jq)) continue;
        jq.credits = jq.weight;
        any = true;
      }
      if (!any) return false;
    }
    return false;
  }
  // Strict: the globally best eligible head, ordered by (priority desc,
  // job id asc, enqueue seq asc) — explicitly, never by container accident.
  JobQueue* best = nullptr;
  for (auto& [job, jq] : queues_) {
    if (!eligible(jq)) continue;
    if (best == nullptr || head_before(jq.heap.top(), best->heap.top())) best = &jq;
  }
  if (best == nullptr) return false;
  out = pop_top(*best);
  return true;
}

void Scheduler::dispatch_idle() {
  while (!idle_workers_.empty()) {
    Ready next;
    if (!pop_next(next)) return;
    const int worker = idle_workers_.back();
    idle_workers_.pop_back();
    start(std::move(next), worker);
  }
}

void Scheduler::release_worker(int worker, JobId job) {
  queues_[job].counters.inflight -= 1;
  if (steal_.enabled) {
    // Own deque first (LIFO: depth-first along this core's continuation),
    // then the per-job overflow heaps (fairness policy applied), then a
    // steal scan across the other cores' deques.
    auto& own = deques_[static_cast<std::size_t>(worker)];
    if (!own.empty()) {
      Ready next = std::move(own.back());
      own.pop_back();
      start(std::move(next), worker);
      return;
    }
    Ready next;
    if (pop_next(next)) {
      start(std::move(next), worker);
      return;
    }
    try_steal(worker);
    return;
  }
  Ready next;
  if (pop_next(next)) {
    start(std::move(next), worker);
  } else {
    idle_workers_.push_back(worker);
  }
}

void Scheduler::try_steal(int worker) {
  // Victim order is a pure function of (seed, rank, attempt ordinal):
  // seeded circular scan over same-socket victims first, then cross-socket
  // — two runs of the same workload steal identically.
  const std::uint64_t draw = support::splitmix64(
      steal_.seed ^ (static_cast<std::uint64_t>(rank_) * 0x9e3779b97f4a7c15ull) ^
      (steal_attempts_ * 0xd1b54a32d192ed03ull));
  ++steal_attempts_;
  const int start_at = static_cast<int>(draw % static_cast<std::uint64_t>(workers_));
  const int my_socket = socket_of(worker);
  for (const bool want_local : {true, false}) {
    for (int k = 0; k < workers_; ++k) {
      const int victim = (start_at + k) % workers_;
      if (victim == worker) continue;
      const bool local = socket_of(victim) == my_socket;
      if (local != want_local) continue;
      auto& vd = deques_[static_cast<std::size_t>(victim)];
      if (vd.empty()) continue;
      // Steal-half: take the oldest half of the victim's deque (its FIFO
      // end — the tasks the owner would reach last), run the first stolen
      // task after the steal distance, keep the rest in age order.
      const std::size_t take = (vd.size() + 1) / 2;
      auto& own = deques_[static_cast<std::size_t>(worker)];
      Ready first = std::move(vd.front());
      vd.pop_front();
      for (std::size_t i = 1; i < take; ++i) {
        own.push_back(std::move(vd.front()));
        vd.pop_front();
      }
      (local ? steal_stats_.steals_local : steal_stats_.steals_remote) += 1;
      steal_stats_.tasks_stolen += static_cast<std::uint64_t>(take);
      // The thief's core is busy bouncing deque cache lines for the steal
      // distance before the stolen task can start.
      const double dt =
          (local ? steal_.latency_local : steal_.latency_remote) * compute_factor_;
      busy_ += dt;
      core_busy_[static_cast<std::size_t>(worker)] += dt;
      engine_.after(dt, [this, worker, first = std::move(first)]() mutable {
        start(std::move(first), worker);
      });
      return;
    }
  }
  steal_stats_.steal_fail += 1;
  idle_workers_.push_back(worker);
}

void Scheduler::start(Ready task, int worker) {
  const double t_start = engine_.now();
  JobCounters& jc = queues_[task.job].counters;
  jc.max_inflight = std::max(jc.max_inflight, ++jc.inflight);
  // The body runs at the task's completion instant (see header comment).
  engine_.after(task.cost, [this, t_start, worker, task = std::move(task)]() mutable {
    const double extra = run_body(task, worker, worker, t_start);
    busy_ += task.cost + extra;
    core_busy_[static_cast<std::size_t>(worker)] += task.cost + extra;
    // The worker stays busy for `extra` more seconds (post-body copies),
    // then picks up the next ready task.
    engine_.after(extra, [this, worker, job = task.job]() {
      release_worker(worker, job);
    });
  });
}

double Scheduler::run_body(Ready& task, int worker, int track, double t_start) {
  double extra = 0.0;
  in_task_ = true;
  current_worker_ = worker;
  charge_accum_ = &extra;
  const bool traced = tracer_ != nullptr && task.trace_node != Tracer::kNoNode;
  if (traced) tracer_->set_context(task.trace_node);
  task.body();
  if (traced) tracer_->clear_context();
  in_task_ = false;
  current_worker_ = -1;
  charge_accum_ = nullptr;
  ++tasks_run_;
  queues_[task.job].counters.tasks_run += 1;
  // `extra` is the host-side send CPU charged by the body.
  if (traced) {
    tracer_->task_executed(task.trace_node, track, t_start, engine_.now() + extra);
  }
  return extra;
}

}  // namespace ttg::rt
