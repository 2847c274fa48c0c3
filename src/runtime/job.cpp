#include "runtime/job.hpp"

#include "runtime/world.hpp"

namespace ttg::rt {

void JobManager::set_max_concurrent(int n) {
  TTG_CHECK(n >= 0, "negative job-concurrency bound");
  max_concurrent_ = n;
  while (!pending_.empty() && (max_concurrent_ == 0 || running_ < max_concurrent_)) {
    const std::size_t idx = pending_.front();
    pending_.pop_front();
    admit(idx);
  }
}

void JobManager::set_fairness(FairnessMode mode) {
  for (int r = 0; r < world_.nranks(); ++r) world_.scheduler(r).set_fairness(mode);
}

JobId JobManager::submit(JobSpec spec, std::function<void(JobId)> start) {
  TTG_CHECK(spec.weight >= 1, "job weight must be >= 1");
  TTG_CHECK(spec.inflight_cap >= 0, "negative in-flight cap");
  JobInfo info;
  info.id = static_cast<JobId>(jobs_.size() + 1);  // 0 is the default job
  info.spec = std::move(spec);
  info.t_submit = world_.engine().now();
  jobs_.push_back(std::move(info));
  starters_.push_back(std::move(start));
  const std::size_t idx = jobs_.size() - 1;
  if (max_concurrent_ == 0 || running_ < max_concurrent_) {
    admit(idx);
  } else {
    pending_.push_back(idx);
  }
  return jobs_[idx].id;
}

void JobManager::admit(std::size_t idx) {
  JobInfo& info = jobs_[idx];
  TTG_CHECK(info.state == JobState::Pending, "job admitted twice");
  info.state = JobState::Running;
  info.t_start = world_.engine().now();
  ++running_;
  for (int r = 0; r < world_.nranks(); ++r)
    world_.scheduler(r).configure_job(info.id, info.spec.weight,
                                      info.spec.inflight_cap);
  // The starter primes the graph (stream sizes, initiator invokes) under the
  // job's ambient context so every task, message and DataCopy it spawns is
  // attributed to this job.
  world_.run_as(world_.rank(), info.id, [&]() { starters_[idx](info.id); });
}

void JobManager::complete(JobId id) {
  TTG_CHECK(id >= 1 && id <= jobs_.size(), "complete() on an unknown job");
  JobInfo& info = jobs_[id - 1];
  TTG_CHECK(info.state == JobState::Running, "complete() on a non-running job");
  info.state = JobState::Done;
  info.t_done = world_.engine().now();
  --running_;
  ++completed_;
  if (!pending_.empty() && (max_concurrent_ == 0 || running_ < max_concurrent_)) {
    const std::size_t idx = pending_.front();
    pending_.pop_front();
    admit(idx);
  }
}

const JobInfo& JobManager::job(JobId id) const {
  TTG_CHECK(id >= 1 && id <= jobs_.size(), "unknown job id");
  return jobs_[id - 1];
}

std::vector<double> JobManager::latencies() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const JobInfo& j : jobs_)
    if (j.state == JobState::Done) out.push_back(j.latency());
  return out;
}

}  // namespace ttg::rt
