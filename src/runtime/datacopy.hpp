// First-class data-lifecycle layer: refcounted payload handles + accounting.
//
// The paper's central PaRSEC-backend advantage is runtime-owned data
// (Section II-D): a payload flowing through the task graph is tracked by the
// runtime with reference counting, so local consumers share it zero-copy and
// a broadcast serializes it once no matter how many destination ranks it
// reaches. MADNESS, by contrast, copies whole objects per send. Instead of
// modelling that difference with ad-hoc charge() calls scattered through the
// terminals and comm engines, this layer makes it first class:
//
//   * DataCopy<V>  — a refcounted, immutable payload handle owning the value,
//                    its declared wire size, and a lazily built serialized-
//                    buffer cache (serialize once, reuse for every destination
//                    rank and for retransmissions). Which copies are actually
//                    paid is decided by the owning CommEngine's CopyPolicy,
//                    declared in one place per backend (comm.hpp).
//   * DataTracker  — always-on per-rank accounting of handle allocations,
//                    releases, live bytes (with high watermark), serialization
//                    passes vs. cache hits, and task-private input copies.
//                    World::fence() asks it to verify that every refcount
//                    returned to zero (leak check); --trace-summary renders
//                    its per-rank memory table.
//
// The handle is host-side bookkeeping: creating or sharing one costs no
// virtual time by itself. Virtual CPU charges stay where they were (terminal
// send paths), but are now derived from the policy + cache state instead of
// being hard-coded per call site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/comm.hpp"
#include "serialization/archive.hpp"
#include "serialization/traits.hpp"
#include "support/error.hpp"

namespace ttg::support {
class Table;
}

namespace ttg::rt {

namespace detail {
/// Accounted size of a payload: the declared wire size when available
/// (ghost Tile-like types), else the static size of the value.
template <typename V>
std::size_t payload_bytes(const V& v) {
  if constexpr (ser::detail::HasWireBytes<V>) {
    return v.wire_bytes();
  } else {
    return sizeof(V);
  }
}
}  // namespace detail

/// Per-rank data-lifecycle accounting (always on; owned by the World).
class DataTracker {
 public:
  struct RankStats {
    std::uint64_t allocs = 0;           ///< DataCopy blocks created on this rank
    std::uint64_t releases = 0;         ///< blocks whose refcount returned to zero
    std::uint64_t live_handles = 0;     ///< blocks currently alive
    std::uint64_t live_bytes = 0;       ///< payload bytes currently alive
    std::uint64_t high_watermark = 0;   ///< peak of live_bytes over the run
    std::uint64_t serializations = 0;   ///< archive passes over payload values
    std::uint64_t serialize_hits = 0;   ///< sends served from the cached buffer
    std::uint64_t input_copies = 0;     ///< task-private input copies made
    std::uint64_t input_copy_bytes = 0; ///< bytes those copies moved
    // --- device residency (all zero without the device plane; transfer
    // --- and hit counts live in the Scheduler's DeviceStats) ---
    std::uint64_t device_live_bytes = 0;   ///< bytes currently device-resident
    std::uint64_t device_watermark = 0;    ///< peak of device_live_bytes
  };

  /// Per-job data-lifecycle accounting (multi-tenant serving mode). A block
  /// is attributed to the job ambient at its *allocation* and released
  /// against the same job, so a job whose payloads outlive it shows up as a
  /// per-job leak even while other jobs still hold live data.
  struct JobStats {
    std::uint64_t allocs = 0;
    std::uint64_t releases = 0;
    std::uint64_t live_handles = 0;
    std::uint64_t live_bytes = 0;
    std::uint64_t input_copies = 0;
  };

  /// Fix the rank count (called by the World constructor).
  void configure(int nranks);

  /// Bind the ambient-job source (the World's current-job variable).
  void set_job_source(const JobId* source) { job_source_ = source; }
  [[nodiscard]] JobId current_job() const {
    return job_source_ != nullptr ? *job_source_ : kDefaultJob;
  }

  void on_alloc(int rank, std::size_t bytes) {
    on_alloc(rank, bytes, current_job());
  }
  void on_alloc(int rank, std::size_t bytes, JobId job);
  void on_release(int rank, std::size_t bytes) {
    on_release(rank, bytes, current_job());
  }
  void on_release(int rank, std::size_t bytes, JobId job);
  void on_serialize(int rank, bool cache_hit);
  void on_input_copy(int rank, std::size_t bytes);

  // --- device residency bytes (reported by the schedulers' device plane;
  // no-ops when never called) ---
  void on_stage_h2d(int rank, std::size_t bytes);
  void on_device_evict(int rank, std::size_t bytes);

  [[nodiscard]] const RankStats& rank_stats(int rank) const;
  [[nodiscard]] RankStats totals() const;
  [[nodiscard]] std::uint64_t live_handles() const;
  [[nodiscard]] std::uint64_t live_bytes() const;

  /// Per-job accounting (a zero record for jobs never seen).
  [[nodiscard]] const JobStats& job_stats(JobId job) const;
  [[nodiscard]] const std::map<JobId, JobStats>& job_stats_map() const {
    return jobs_;
  }

  /// Fence-time leak check: every DataCopy created during the run must have
  /// been released by the time the event queue drains — globally and per
  /// job (no cross-job leaks). Throws support::ApiError naming the leaking
  /// ranks/jobs otherwise.
  void check_no_leaks() const;

  /// Fence-time device-residency reconciliation: when the device plane is
  /// enabled, the bytes the tracker believes are resident on each rank must
  /// match the schedulers' own residency maps (`scheduler_view[rank]`).
  /// Throws support::ApiError naming the mismatching ranks otherwise.
  void check_device_residency(const std::vector<std::uint64_t>& scheduler_view) const;

  /// Per-rank memory table (live/peak bytes, handle and copy counts) for
  /// --trace-summary.
  [[nodiscard]] support::Table memory_table() const;

 private:
  RankStats& at(int rank);

  std::vector<RankStats> ranks_;
  const JobId* job_source_ = nullptr;
  std::map<JobId, JobStats> jobs_;
};

/// Refcounted, immutable payload handle: the runtime-owned datum of the
/// PaRSEC data-lifecycle model. Copying the handle shares the block; the
/// value itself is never duplicated by the handle. The serialized-buffer
/// cache makes a broadcast to R ranks pay exactly one archive pass under the
/// serialize-once policy, and lets the resilience layer retransmit from the
/// cached bytes instead of re-serializing.
template <typename V>
class DataCopy {
 public:
  DataCopy() = default;

  /// Enter `value` into the lifecycle layer on `owner`'s behalf. `comm`
  /// supplies the CopyPolicy and the CommStats the serialization cache
  /// reports into.
  DataCopy(DataTracker& tracker, CommEngine& comm, int owner, V value)
      : b_(std::make_shared<Block>(tracker, comm, owner, std::move(value))) {}

  [[nodiscard]] explicit operator bool() const { return b_ != nullptr; }

  [[nodiscard]] const V& value() const {
    TTG_CHECK(b_ != nullptr, "value() on an empty DataCopy");
    return b_->value;
  }
  /// Accounted payload size (declared wire size when available).
  [[nodiscard]] std::size_t bytes() const { return b_ ? b_->bytes : 0; }
  /// Rank that entered the value into the lifecycle layer.
  [[nodiscard]] int owner() const { return b_ ? b_->owner : -1; }
  /// Current reference count (handles + pins sharing the block).
  [[nodiscard]] long use_count() const { return b_ ? b_.use_count() : 0; }

  /// The whole-object serialized form of the value. Under the owning
  /// backend's serialize-once policy the first call pays the archive pass
  /// and every later call is a cache hit returning the same buffer; with the
  /// policy off (MADNESS semantics) every call rebuilds, so each send still
  /// counts — and is charged as — a full serialization. Counts land in
  /// CommStats and the DataTracker. `cache_hit`, when non-null, reports
  /// which case this call was.
  [[nodiscard]] std::shared_ptr<const std::vector<std::byte>> serialized(
      bool* cache_hit = nullptr) const {
    TTG_CHECK(b_ != nullptr, "serialized() on an empty DataCopy");
    Block& b = *b_;
    const bool hit = b.comm->policy().serialize_once && b.cache != nullptr;
    if (!hit) {
      ser::OutputArchive ar;
      ar& b.value;
      // A fresh shared_ptr per rebuild: in-flight deliveries created from an
      // earlier pass keep their buffer valid.
      b.cache = std::make_shared<const std::vector<std::byte>>(ar.release());
    }
    CommStats& cs = b.comm->mutable_stats();
    (hit ? cs.serialize_hits : cs.serializations) += 1;
    b.tracker->on_serialize(b.owner, hit);
    if (cache_hit != nullptr) *cache_hit = hit;
    return b.cache;
  }

  /// Account an interior-hop forward of the serialized form (tree-routed
  /// broadcast): the forwarding rank re-injects the already-built buffer it
  /// received, so the send is by construction a cache reuse — never an
  /// archive pass — regardless of the serialize-once policy. Attributed to
  /// the owning rank like every other cache event, keeping flat and tree
  /// routing's serialization totals identical (serializations +
  /// serialize_hits == remote destinations either way).
  void record_forward_hit() const {
    TTG_CHECK(b_ != nullptr, "record_forward_hit() on an empty DataCopy");
    Block& b = *b_;
    b.comm->mutable_stats().serialize_hits += 1;
    b.tracker->on_serialize(b.owner, /*cache_hit=*/true);
  }

  /// Type-erased ownership share, e.g. for pinning the block (and its
  /// cached buffer) inside the comm layer across retransmissions.
  [[nodiscard]] std::shared_ptr<const void> pin() const { return b_; }

  void reset() { b_.reset(); }

 private:
  struct Block {
    Block(DataTracker& t, CommEngine& c, int o, V v)
        : tracker(&t),
          comm(&c),
          owner(o),
          job(t.current_job()),
          bytes(detail::payload_bytes(v)),
          value(std::move(v)) {
      tracker->on_alloc(owner, bytes, job);
    }
    ~Block() {
      // Released against the allocating job, regardless of which job (if
      // any) is ambient when the last reference drops.
      tracker->on_release(owner, bytes, job);
    }
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    DataTracker* tracker;
    CommEngine* comm;
    int owner;
    JobId job;
    std::size_t bytes;
    V value;
    std::shared_ptr<const std::vector<std::byte>> cache;
  };

  std::shared_ptr<Block> b_;
};

}  // namespace ttg::rt
