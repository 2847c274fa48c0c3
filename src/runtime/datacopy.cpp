#include "runtime/datacopy.hpp"

#include <string>

#include "support/table.hpp"

namespace ttg::rt {

void DataTracker::configure(int nranks) {
  TTG_CHECK(nranks >= 1, "DataTracker needs at least one rank");
  ranks_.assign(static_cast<std::size_t>(nranks), RankStats{});
}

DataTracker::RankStats& DataTracker::at(int rank) {
  if (rank >= static_cast<int>(ranks_.size()))
    ranks_.resize(static_cast<std::size_t>(rank) + 1);
  TTG_CHECK(rank >= 0, "negative rank in data-lifecycle accounting");
  return ranks_[static_cast<std::size_t>(rank)];
}

void DataTracker::on_alloc(int rank, std::size_t bytes, JobId job) {
  RankStats& s = at(rank);
  s.allocs += 1;
  s.live_handles += 1;
  s.live_bytes += bytes;
  if (s.live_bytes > s.high_watermark) s.high_watermark = s.live_bytes;
  JobStats& j = jobs_[job];
  j.allocs += 1;
  j.live_handles += 1;
  j.live_bytes += bytes;
}

void DataTracker::on_release(int rank, std::size_t bytes, JobId job) {
  RankStats& s = at(rank);
  TTG_CHECK(s.live_handles > 0 && s.live_bytes >= bytes,
            "data-lifecycle release without a matching alloc");
  s.releases += 1;
  s.live_handles -= 1;
  s.live_bytes -= bytes;
  JobStats& j = jobs_[job];
  TTG_CHECK(j.live_handles > 0 && j.live_bytes >= bytes,
            "per-job data-lifecycle release without a matching alloc");
  j.releases += 1;
  j.live_handles -= 1;
  j.live_bytes -= bytes;
}

void DataTracker::on_serialize(int rank, bool cache_hit) {
  RankStats& s = at(rank);
  (cache_hit ? s.serialize_hits : s.serializations) += 1;
}

void DataTracker::on_input_copy(int rank, std::size_t bytes) {
  RankStats& s = at(rank);
  s.input_copies += 1;
  s.input_copy_bytes += bytes;
  jobs_[current_job()].input_copies += 1;
}

void DataTracker::on_stage_h2d(int rank, std::size_t bytes) {
  RankStats& s = at(rank);
  s.device_live_bytes += bytes;
  if (s.device_live_bytes > s.device_watermark)
    s.device_watermark = s.device_live_bytes;
}

void DataTracker::on_device_evict(int rank, std::size_t bytes) {
  RankStats& s = at(rank);
  TTG_CHECK(s.device_live_bytes >= bytes,
            "device eviction without a matching staging");
  s.device_live_bytes -= bytes;
}

const DataTracker::JobStats& DataTracker::job_stats(JobId job) const {
  static const JobStats kZero{};
  const auto it = jobs_.find(job);
  return it != jobs_.end() ? it->second : kZero;
}

const DataTracker::RankStats& DataTracker::rank_stats(int rank) const {
  static const RankStats kZero{};
  if (rank < 0 || rank >= static_cast<int>(ranks_.size())) return kZero;
  return ranks_[static_cast<std::size_t>(rank)];
}

DataTracker::RankStats DataTracker::totals() const {
  RankStats t;
  for (const RankStats& s : ranks_) {
    t.allocs += s.allocs;
    t.releases += s.releases;
    t.live_handles += s.live_handles;
    t.live_bytes += s.live_bytes;
    t.high_watermark += s.high_watermark;  // sum of per-rank peaks
    t.serializations += s.serializations;
    t.serialize_hits += s.serialize_hits;
    t.input_copies += s.input_copies;
    t.input_copy_bytes += s.input_copy_bytes;
    t.device_live_bytes += s.device_live_bytes;
    t.device_watermark += s.device_watermark;  // sum of per-rank peaks
  }
  return t;
}

std::uint64_t DataTracker::live_handles() const {
  std::uint64_t n = 0;
  for (const RankStats& s : ranks_) n += s.live_handles;
  return n;
}

std::uint64_t DataTracker::live_bytes() const {
  std::uint64_t n = 0;
  for (const RankStats& s : ranks_) n += s.live_bytes;
  return n;
}

void DataTracker::check_no_leaks() const {
  if (live_handles() == 0) {
    // Global zero implies per-job zero (alloc/release pair on one job), but
    // keep the invariant honest rather than assumed.
    for (const auto& [job, js] : jobs_)
      TTG_CHECK(js.live_handles == 0 && js.live_bytes == 0,
                "per-job live count out of sync with global at fence");
    return;
  }
  std::string who;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].live_handles == 0) continue;
    if (!who.empty()) who += ", ";
    who += "rank " + std::to_string(r) + ": " +
           std::to_string(ranks_[r].live_handles) + " handle(s)/" +
           std::to_string(ranks_[r].live_bytes) + " B";
  }
  for (const auto& [job, js] : jobs_) {
    if (js.live_handles == 0) continue;
    if (!who.empty()) who += ", ";
    who += "job " + std::to_string(job) + ": " +
           std::to_string(js.live_handles) + " handle(s)/" +
           std::to_string(js.live_bytes) + " B";
  }
  TTG_REQUIRE(false, "DataCopy leak at fence — refcounts not back to zero (" + who +
                         "); a handle outlived the work that produced it");
}

void DataTracker::check_device_residency(
    const std::vector<std::uint64_t>& scheduler_view) const {
  std::string who;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const std::uint64_t sched =
        r < scheduler_view.size() ? scheduler_view[r] : 0;
    if (ranks_[r].device_live_bytes == sched) continue;
    if (!who.empty()) who += ", ";
    who += "rank " + std::to_string(r) + ": tracker " +
           std::to_string(ranks_[r].device_live_bytes) + " B vs scheduler " +
           std::to_string(sched) + " B";
  }
  TTG_REQUIRE(who.empty(),
              "device-residency mismatch at fence — tracker and scheduler "
              "disagree on resident bytes (" + who + ")");
}

support::Table DataTracker::memory_table() const {
  support::Table t("data lifecycle (per rank)",
                   {"rank", "allocs", "releases", "live", "live B", "peak B",
                    "serializations", "cache hits", "input copies", "input B"});
  auto row = [&t](const std::string& label, const RankStats& s) {
    t.add_row({label, std::to_string(s.allocs), std::to_string(s.releases),
               std::to_string(s.live_handles), std::to_string(s.live_bytes),
               std::to_string(s.high_watermark), std::to_string(s.serializations),
               std::to_string(s.serialize_hits), std::to_string(s.input_copies),
               std::to_string(s.input_copy_bytes)});
  };
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    row(std::to_string(r), ranks_[r]);
  row("total", totals());
  return t;
}

}  // namespace ttg::rt
