// Repository benchmark driver: runs one named workload of the simulator on
// one host thread (serial engine) and prints its metrics.
//
//   perfbench_driver --workload potrf-real|bspmm-ghost|mra-madness
//                    --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. Set-up (input
// generation + World construction) is repeated and reported as a median.
// The apps::*::run call is then repeated for --seconds on fresh worlds. The
// first run warms up; peak RSS is read after it, before the reference or
// verification allocate anything. Every later run is timed against passes of
// a fixed host reference loop (HostRef) just before and after it, and
// run_ref is the median of run time / reference time.
//
// --trace 1 is the separate per-layer run. Plain and traced runs alternate
// for --seconds; every traced run must reproduce the plain run's makespan,
// exact counts and output digest bit for bit. The layer probes then run on
// the workload's own shapes.
//
// Every layer is measured from outside: the driver times its own calls into
// public functions and reads the public counters afterwards. Spans of those
// calls stay in memory and are written to --spans when the driver ends.
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics: every end-to-end metric with --trace 0, every
// per-layer metric with --trace 1. A per-layer metric of a layer the
// workload never enters reads 0 there and is named on an `absent` line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/bspmm/bspmm_ttg.hpp"
#include "apps/cholesky/cholesky_ttg.hpp"
#include "apps/mra/mra_ttg.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix_gen.hpp"
#include "runtime/world.hpp"
#include "serialization/traits.hpp"
#include "sparse/yukawa_gen.hpp"

namespace {

using namespace ttg;

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// --- metrics -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (test_perfbench.py checks it). Virtual-clock
// quantities carry the unit virtual_s: they repeat exactly by design.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_ref", "ratio"},
    {"peak_rss_mb", "MB"},
    {"makespan_s", "virtual_s"},
};

constexpr MetricDef kPerLayer[] = {
    {"linalg.gen_s", "s"},
    {"linalg.gemm_gflops", "GF/s"},
    {"linalg.syrk_gflops", "GF/s"},
    {"linalg.potrf_gflops", "GF/s"},
    {"linalg.trsm_gflops", "GF/s"},
    {"mra.project_node_us", "us"},
    {"sparse.gen_s", "s"},
    {"world.ctor_s", "s"},
    {"serialization.gbps", "GB/s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sched.tasks", "count"},
    {"sched.busy_s", "virtual_s"},
    {"sched.util", "ratio"},
    {"comm.messages", "count"},
    {"comm.splitmd_sends", "count"},
    {"comm.serializations", "count"},
    {"comm.serialize_hits", "count"},
    {"comm.broadcast_forwards", "count"},
    {"comm.am_batches", "count"},
    {"comm.reduce_forwards", "count"},
    {"comm.send_cpu_s", "virtual_s"},
    {"comm.server_wait_s", "virtual_s"},
    {"comm.server_busy_s", "virtual_s"},
    {"comm.rma_latency_mean_s", "virtual_s"},
    {"net.transfers", "count"},
    {"net.control_msgs", "count"},
    {"net.bytes", "B"},
    {"net.rma_gets", "count"},
    {"net.nic_busy_max_s", "virtual_s"},
    {"net.nic_busy_mean_s", "virtual_s"},
    {"data.allocs", "count"},
    {"data.input_copies", "count"},
    {"data.peak_live_bytes", "B"},
    {"cp.length_s", "virtual_s"},
    {"cp.task_s", "virtual_s"},
    {"cp.msg_s", "virtual_s"},
    {"cp.hops", "count"},
    {"trace.run_s", "s"},
    {"trace.overhead", "ratio"},
    {"host.run_s", "s"},
    {"host.ref_s", "s"},
};

/// Measured metrics by name; a name missing here is absent.
using Metrics = std::map<std::string, double>;

// --- spans ---------------------------------------------------------------

/// Host-clock spans around the driver's calls into each layer. Kept in
/// memory; written out once at the end.
class Spans {
 public:
  explicit Spans(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Run `fn` inside a span named `name`, nested in the innermost open
  /// span. Returns the span's duration in seconds.
  template <typename F>
  double time(const char* name, F&& fn) {
    const std::size_t idx = spans_.size();
    spans_.push_back(Span{name, open_.empty() ? -1 : static_cast<long>(open_.back()),
                          now_s(), 0.0});
    open_.push_back(idx);
    fn();
    open_.pop_back();
    spans_[idx].end = now_s();
    return spans_[idx].end - spans_[idx].start;
  }

  /// Count, total and self time (total minus child spans) per span name.
  void print_summary() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    struct Row {
      std::size_t count = 0;
      double total = 0.0, self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      r.count += 1;
      r.total += d;
      r.self += d - child[i];
    }
    for (const auto& [name, r] : rows)
      std::printf("span %s count %zu total_s %.6f self_s %.6f\n", name.c_str(), r.count,
                  r.total, r.self);
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
    std::fprintf(f, "{\"run\":\"%s\",\"spans\":[", run_id_.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%ld,\"start\":%.9f,\"end\":%.9f}",
                   i ? "," : "", i, s.name.c_str(), s.parent, s.start, s.end);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

 private:
  struct Span {
    std::string name;
    long parent;
    double start, end;
  };
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// --- checks and exact results -------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("check failed: %s\n", what.c_str());
    }
  }
};

/// FNV-1a over raw bytes: digests of inputs and outputs.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  template <typename T>
  void add(const T& v) {
    bytes(&v, sizeof v);
  }
  void add(const std::vector<double>& v) { bytes(v.data(), v.size() * sizeof(double)); }
};

std::string exact(double v) {
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}
std::string exact(std::uint64_t v) { return std::to_string(v); }
std::string hex(std::uint64_t v) {
  char b[24];
  std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(v));
  return b;
}

/// Everything a run must reproduce bit for bit: virtual makespan, the app's
/// task count and output digest, and every exact counter of the world.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

// --- host reference -------------------------------------------------------

// The host shares its cores, caches and memory bandwidth with other tenants.
// Their load changes how fast the same run goes by up to 2x, for seconds to
// minutes at a time, and FP, heap and pointer-heavy work slows the most.
// HostRef is fixed work that mixes those kinds in about equal parts: an ALU
// hash chain, a dependent walk over a 16 MiB ring, std::map inserts, a 64x64
// matrix product and std::exp, about 60 ms a pass. Timed just before and
// after a run, it measures how fast the host is at that moment, and run time
// / reference time cancels much of the swing.
class HostRef {
 public:
  HostRef() : ring_(kRing), a_(kDim * kDim, 1.0001), b_(kDim * kDim, 0.9999), c_(kDim * kDim) {
    // Sattolo's shuffle: a single cycle through every slot.
    for (std::uint32_t i = 0; i < kRing; ++i) ring_[i] = i;
    std::uint64_t x = 0;
    for (std::uint32_t i = kRing - 1; i > 0; --i) {
      x = lcg(x);
      std::swap(ring_[i], ring_[(x >> 33) % i]);
    }
    pass();  // warm-up: first-touch page faults and cold caches
  }

  /// Host seconds of one pass.
  double time(Spans& spans) { return spans.time("host_ref", [&] { pass(); }); }

 private:
  void pass() {
    std::uint64_t h = 1;
    for (std::uint64_t i = 0; i < kHashSteps; ++i) {
      h ^= h >> 31;
      h = h * 0x9E3779B97F4A7C15ull + i;
    }
    std::uint32_t p = 0;
    for (int i = 0; i < kRingSteps; ++i) p = ring_[p];
    std::map<std::uint64_t, int> tree;
    std::uint64_t x = 0;
    for (int i = 0; i < kInserts; ++i) tree[(x = lcg(x)) >> 40] = i;
    std::fill(c_.begin(), c_.end(), 0.0);
    for (int rep = 0; rep < kGemms; ++rep)
      for (int i = 0; i < kDim; ++i)
        for (int k = 0; k < kDim; ++k)
          for (int j = 0; j < kDim; ++j) c_[i * kDim + j] += a_[i * kDim + k] * b_[k * kDim + j];
    double e = 0.0;
    for (int i = 0; i < kExps; ++i) e += std::exp(-1e-6 * i);
    sink_ = h + p + tree.size() + static_cast<std::uint64_t>(c_[1] + e);
  }

  static std::uint64_t lcg(std::uint64_t x) {
    return x * 6364136223846793005ull + 1442695040888963407ull;
  }
  static constexpr std::uint32_t kRing = 1u << 22;
  static constexpr int kDim = 64;
  static constexpr std::uint64_t kHashSteps = 6'000'000;
  static constexpr int kRingSteps = 100'000;
  static constexpr int kInserts = 50'000;
  static constexpr int kGemms = 150;
  static constexpr int kExps = 2'000'000;
  std::vector<std::uint32_t> ring_;
  std::vector<double> a_, b_, c_;
  volatile std::uint64_t sink_ = 0;
};

// --- workloads -----------------------------------------------------------

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generate the inputs from the seed; returns the generator's host time.
  virtual double generate(Spans& spans) = 0;
  /// Per-layer metric the generator time is reported under (or nullptr).
  [[nodiscard]] virtual const char* gen_metric() const = 0;
  [[nodiscard]] virtual rt::WorldConfig config() const = 0;
  [[nodiscard]] virtual const char* run_span() const = 0;
  /// Call apps::*::run once; keeps the result. Returns the makespan.
  virtual double run(rt::World& world) = 0;
  /// Make the input of the next run (default: runs reuse the inputs).
  virtual void next_input() {}
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
  /// App task count and output digest of the kept result.
  virtual void describe(Fingerprint& fp) const = 0;
  /// Output checks on the kept result.
  virtual void verify(rt::World& world, Checks& checks) const = 0;
  /// Layer probes at the workload's shapes (kernels, project_node).
  virtual void probe(Spans& /*spans*/, Metrics& /*m*/) {}
  /// Round-trip ser::to_bytes/from_bytes of the workload's payload type;
  /// returns serialized GB/s.
  virtual double serialization_probe(Spans& spans, Checks& checks) = 0;

 protected:
  std::uint64_t seed_;
};

/// Repeat `body` (timed) after `prep` (untimed) until `budget` seconds of
/// body time and at least `min_reps` reps; returns the median body time.
template <typename Prep, typename Body>
double median_time(double budget, int min_reps, Prep&& prep, Body&& body) {
  std::vector<double> t;
  double total = 0.0;
  while (total < budget || static_cast<int>(t.size()) < min_reps) {
    prep();
    const double t0 = now_s();
    body();
    t.push_back(now_s() - t0);
    total += t.back();
  }
  return median(std::move(t));
}

constexpr double kProbeSeconds = 0.2;

template <typename T>
double round_trip_gbps(Spans& spans, Checks& checks, const T& payload) {
  const std::vector<std::byte> bytes = ser::to_bytes(payload);
  checks.expect(ser::to_bytes(ser::from_bytes<T>(bytes)) == bytes,
                "serialization round trip reproduces the payload");
  double sec = 0.0;
  spans.time("probe.serialization", [&] {
    sec = median_time(kProbeSeconds, 5, [] {}, [&] {
      const T back = ser::from_bytes<T>(ser::to_bytes(payload));
      if (back.wire_bytes() != payload.wire_bytes()) throw std::runtime_error("short round trip");
    });
  });
  return static_cast<double>(bytes.size()) / sec / 1e9;
}

// POTRF on a real SPD matrix: the only workload doing real numerics.
class PotrfReal final : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kN = 1024;
  static constexpr int kTile = 128;

  double generate(Spans& spans) override {
    return spans.time("linalg.random_spd", [&] {
      support::Rng rng(seed_);
      a_ = linalg::random_spd(rng, kN, kTile);
    });
  }
  [[nodiscard]] const char* gen_metric() const override { return "linalg.gen_s"; }
  [[nodiscard]] rt::WorldConfig config() const override {
    rt::WorldConfig cfg;
    cfg.machine = sim::hawk();
    cfg.nranks = 16;  // 4 x 4 block-cyclic grid
    cfg.backend = rt::BackendKind::Parsec;
    return cfg;
  }
  [[nodiscard]] const char* run_span() const override { return "apps.cholesky.run"; }
  double run(rt::World& world) override {
    res_ = {};
    res_ = apps::cholesky::run(world, a_);
    return res_.makespan;
  }
  [[nodiscard]] std::uint64_t input_digest() const override {
    Digest d;
    for (int i = 0; i < a_.ntiles(); ++i)
      for (int j = 0; j < a_.ntiles(); ++j) d.add(a_.tile(i, j).data());
    return d.h;
  }
  void describe(Fingerprint& fp) const override {
    Digest d;
    for (int i = 0; i < res_.matrix.ntiles(); ++i)
      for (int j = 0; j <= i; ++j) d.add(res_.matrix.tile(i, j).data());
    fp.emplace_back("app.tasks", exact(res_.tasks));
    fp.emplace_back("app.output_digest", hex(d.h));
  }
  /// Per lower tile: |A(i,j) - sum_k L(i,k) L(j,k)^T| within a backward
  /// error bound of 16 n eps max|A|.
  void verify(rt::World& world, Checks& checks) const override {
    checks.expect(world.unfinished() == 0, "potrf graph quiesced");
    const int nt = a_.ntiles();
    double amax = 0.0;
    for (int i = 0; i < nt; ++i)
      for (int j = 0; j < nt; ++j)
        for (double v : a_.tile(i, j).data()) amax = std::max(amax, std::abs(v));
    const double tol = 16.0 * kN * 2.220446049250313e-16 * amax;
    double worst = 0.0;
    for (int i = 0; i < nt; ++i) {
      for (int j = 0; j <= i; ++j) {
        linalg::Tile r = a_.tile(i, j);
        for (int k = 0; k <= j; ++k)
          linalg::gemm_nt(r, res_.matrix.tile(i, k), res_.matrix.tile(j, k));
        double rmax = 0.0;
        for (double v : r.data()) rmax = std::max(rmax, std::abs(v));
        worst = std::max(worst, rmax);
        checks.expect(rmax <= tol, "potrf residual of tile (" + std::to_string(i) + "," +
                                       std::to_string(j) + ") = " + exact(rmax));
      }
    }
    std::printf("verify potrf max_tile_residual %.3e tol %.3e\n", worst, tol);
  }
  void probe(Spans& spans, Metrics& m) override {
    support::Rng rng(seed_ + 1);
    const int b = kTile;
    const linalg::Tile spd = linalg::random_spd_dense(rng, b);
    linalg::Tile lkk = spd;
    if (!linalg::potrf(lkk)) throw std::runtime_error("probe tile is not SPD");
    const linalg::Tile a = linalg::random_tile(rng, b, b);
    const linalg::Tile bt = linalg::random_tile(rng, b, b);
    const linalg::Tile c = linalg::random_tile(rng, b, b);
    linalg::Tile out;
    auto rate = [&](const char* span, double flops, const linalg::Tile& init, auto&& kernel) {
      double sec = 0.0;
      spans.time(span, [&] {
        sec = median_time(kProbeSeconds, 5, [&] { out = init; }, [&] { kernel(out); });
      });
      return flops / sec / 1e9;
    };
    m["linalg.gemm_gflops"] = rate("probe.linalg.gemm_nt", linalg::flops::gemm(b, b, b), c,
                                   [&](linalg::Tile& t) { linalg::gemm_nt(t, a, bt); });
    m["linalg.syrk_gflops"] = rate("probe.linalg.syrk", linalg::flops::syrk(b, b), c,
                                   [&](linalg::Tile& t) { linalg::syrk(a, t); });
    m["linalg.potrf_gflops"] = rate("probe.linalg.potrf", linalg::flops::potrf(b), spd,
                                    [&](linalg::Tile& t) { (void)linalg::potrf(t); });
    m["linalg.trsm_gflops"] = rate("probe.linalg.trsm", linalg::flops::trsm(b, b), a,
                                   [&](linalg::Tile& t) { linalg::trsm(lkk, t); });
  }
  double serialization_probe(Spans& spans, Checks& checks) override {
    support::Rng rng(seed_ + 2);
    return round_trip_gbps(spans, checks, linalg::random_tile(rng, kTile, kTile));
  }

 private:
  linalg::TiledMatrix a_;
  apps::cholesky::Result res_;
};

// Block-sparse GEMM of the Fig. 12 Yukawa input with ghost tiles: no kernel
// math, so the run is host cost in the runtime layers.
class BspmmGhost final : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kMaxTile = 256;

  // The sparsity pattern comes from the Fig. 12 generator at its default
  // seed, so tasks and makespan repeat across seeds; the seed draws the
  // ghost-tile signatures, which stand in for the tile values. 300 atoms,
  // not the figure's 420, keep a run near 0.7 s, so that the host reference
  // passes around it track the host's state (see README, Noise).
  double generate(Spans& spans) override {
    return spans.time("sparse.yukawa_matrix", [&] {
      sparse::YukawaParams p;
      p.natoms = 300;
      p.max_tile = kMaxTile;
      p.threshold = 1e-8;
      p.box = 240.0;
      p.ghost = true;
      a_ = sparse::yukawa_matrix(p);
      support::Rng rng(seed_);
      for (const auto& [i, j] : a_.nonzeros()) a_.at(i, j).set_signature(rng.engine()());
    });
  }
  [[nodiscard]] const char* gen_metric() const override { return "sparse.gen_s"; }
  [[nodiscard]] rt::WorldConfig config() const override {
    rt::WorldConfig cfg;
    cfg.machine = sim::hawk();
    cfg.nranks = 64;
    cfg.backend = rt::BackendKind::Parsec;
    return cfg;
  }
  [[nodiscard]] const char* run_span() const override { return "apps.bspmm.run"; }
  double run(rt::World& world) override {
    res_ = {};
    apps::bspmm::Options opt;
    opt.collect = true;  // C tiles are counted by verify()
    res_ = apps::bspmm::run(world, a_, a_, opt);
    return res_.makespan;
  }
  [[nodiscard]] std::uint64_t input_digest() const override {
    Digest d;
    for (int p : a_.panels()) d.add(p);
    for (const auto& [i, j] : a_.nonzeros()) {
      d.add(i);
      d.add(j);
      d.add(a_.at(i, j).signature());
    }
    return d.h;
  }
  void describe(Fingerprint& fp) const override {
    Digest d;
    for (const auto& [i, j] : res_.c.nonzeros()) {
      d.add(i);
      d.add(j);
      d.add(res_.c.at(i, j).signature());
    }
    fp.emplace_back("app.tasks", exact(res_.tasks));
    fp.emplace_back("app.output_digest", hex(d.h));
  }
  /// MultiplyAdd tasks and C tiles against the symbolic product.
  void verify(rt::World& world, Checks& checks) const override {
    std::uint64_t products = 0;
    std::set<std::pair<int, int>> c_tiles;
    for (const auto& [i, k] : a_.nonzeros()) {
      for (int j : a_.row_nonzeros(k)) {
        ++products;
        c_tiles.emplace(i, j);
      }
    }
    checks.expect(res_.tasks == products,
                  "MultiplyAdd tasks " + exact(res_.tasks) + " vs symbolic " + exact(products));
    checks.expect(res_.c.nnz_tiles() == c_tiles.size(),
                  "C tiles " + std::to_string(res_.c.nnz_tiles()) + " vs symbolic " +
                      std::to_string(c_tiles.size()));
    bool all = true;
    for (const auto& [i, j] : c_tiles) all = all && res_.c.has(i, j);
    checks.expect(all, "every symbolic C tile was produced");
    checks.expect(world.unfinished() == 0, "bspmm graph quiesced");
    std::printf("verify bspmm multiply_adds %llu c_tiles %zu\n",
                static_cast<unsigned long long>(products), c_tiles.size());
  }
  double serialization_probe(Spans& spans, Checks& checks) override {
    return round_trip_gbps(spans, checks, linalg::Tile::ghost(kMaxTile, kMaxTile, seed_));
  }

 private:
  sparse::BlockSparseMatrix a_;
  apps::bspmm::Result res_;
};

// The Fig. 13 MRA pipeline on the MADNESS backend with full math.
class MraMadness final : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kK = 10;
  static constexpr int kFunctions = 4;

  // The centers are the first Gaussians of the Fig. 13 set (generator seed
  // 2022), so the trees and the makespan repeat across seeds; the seed
  // draws each function's amplitude.
  double generate(Spans& spans) override {
    return spans.time("mra.context", [&] {
      fns_ = mra::random_gaussians(kFunctions, 3.0e4, 2022);
      support::Rng rng(seed_);
      for (mra::Gaussian& g : fns_) g.coeff = rng.uniform(0.5, 2.0);
      ctx_ = std::make_unique<mra::MraContext>(kK, fns_);
    });
  }
  [[nodiscard]] const char* gen_metric() const override { return nullptr; }
  [[nodiscard]] rt::WorldConfig config() const override {
    rt::WorldConfig cfg;
    cfg.machine = sim::hawk();
    cfg.nranks = 16;
    cfg.backend = rt::BackendKind::Madness;
    return cfg;
  }
  [[nodiscard]] const char* run_span() const override { return "apps.mra.run"; }
  double run(rt::World& world) override {
    res_ = {};
    apps::mra::Options opt;
    opt.tol = 1e-8;
    opt.rand_level = 3;
    opt.light_math = false;
    res_ = apps::mra::run(world, *ctx_, opt);
    return res_.makespan;
  }
  // A fresh context per run: no run replays projections of an earlier one.
  void next_input() override { ctx_ = std::make_unique<mra::MraContext>(kK, fns_); }
  [[nodiscard]] std::uint64_t input_digest() const override {
    Digest d;
    for (const mra::Gaussian& g : fns_) {
      d.add(g.expnt);
      d.add(g.coeff);
      d.add(g.center);
    }
    return d.h;
  }
  void describe(Fingerprint& fp) const override {
    Digest d;
    for (const auto& [fid, v] : res_.norm2_compressed) {
      d.add(fid);
      d.add(v);
    }
    for (const auto& [fid, v] : res_.norm2_reconstructed) {
      d.add(fid);
      d.add(v);
    }
    fp.emplace_back("app.tasks", exact(res_.tasks));
    fp.emplace_back("app.tree_nodes", exact(res_.tree_nodes));
    fp.emplace_back("app.output_digest", hex(d.h));
  }
  /// Per function: reconstructed norm^2 against the analytic norm^2 and
  /// against the compressed-form norm^2.
  void verify(rt::World& world, Checks& checks) const override {
    checks.expect(world.unfinished() == 0, "mra graph quiesced");
    constexpr double kTolAnalytic = 1e-8;
    constexpr double kTolCompressed = 1e-10;
    double worst_a = 0.0, worst_c = 0.0;
    for (int f = 0; f < kFunctions; ++f) {
      const auto rec = res_.norm2_reconstructed.find(f);
      const auto cmp = res_.norm2_compressed.find(f);
      const bool have = rec != res_.norm2_reconstructed.end() &&
                        cmp != res_.norm2_compressed.end();
      const double ana = fns_[static_cast<std::size_t>(f)].norm2();
      const double ea = have ? std::abs(rec->second - ana) / ana : 1.0;
      const double ec = have ? std::abs(rec->second - cmp->second) / cmp->second : 1.0;
      worst_a = std::max(worst_a, ea);
      worst_c = std::max(worst_c, ec);
      checks.expect(ea <= kTolAnalytic,
                    "function " + std::to_string(f) + " norm^2 vs analytic: rel " + exact(ea));
      checks.expect(ec <= kTolCompressed, "function " + std::to_string(f) +
                                              " norm^2 vs compressed: rel " + exact(ec));
    }
    std::printf("verify mra max_rel_err analytic %.3e compressed %.3e\n", worst_a, worst_c);
  }
  /// project_node on a fresh context: one node per function at levels 2..5,
  /// each the box holding the function's center.
  void probe(Spans& spans, Metrics& m) override {
    const mra::MraContext fresh(kK, fns_);
    std::vector<mra::TreeKey> keys;
    for (int f = 0; f < kFunctions; ++f) {
      const auto& c = fns_[static_cast<std::size_t>(f)].center;
      for (int level = 2; level <= 5; ++level) {
        const double n = std::ldexp(1.0, level);
        keys.push_back(mra::TreeKey{f, level, static_cast<int>(c[0] * n),
                                    static_cast<int>(c[1] * n), static_cast<int>(c[2] * n)});
      }
    }
    std::size_t next = 0;
    double sink = 0.0;
    double sec = 0.0;
    spans.time("probe.mra.project_node", [&] {
      sec = median_time(kProbeSeconds, static_cast<int>(keys.size()), [] {}, [&] {
        sink += fresh.project_node(keys[next++ % keys.size()]).dnorm2;
      });
    });
    if (!std::isfinite(sink)) throw std::runtime_error("project_node produced a non-finite norm");
    m["mra.project_node_us"] = sec * 1e6;
  }
  double serialization_probe(Spans& spans, Checks& checks) override {
    support::Rng rng(seed_ + 2);
    mra::Coeffs c;
    c.v = linalg::random_tile(rng, kK * kK, kK).data();
    return round_trip_gbps(spans, checks, c);
  }

 private:
  std::vector<mra::Gaussian> fns_;
  std::unique_ptr<mra::MraContext> ctx_;
  apps::mra::Result res_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "potrf-real") return std::make_unique<PotrfReal>(seed);
  if (name == "bspmm-ghost") return std::make_unique<BspmmGhost>(seed);
  if (name == "mra-madness") return std::make_unique<MraMadness>(seed);
  return nullptr;
}

// --- one run and its counters ---------------------------------------------

struct RunResult {
  double host_s = 0.0;
  double makespan = 0.0;
  Fingerprint fp;
};

std::uint64_t tasks_run(rt::World& w) {
  std::uint64_t tasks = 0;
  for (int r = 0; r < w.nranks(); ++r) tasks += w.scheduler(r).tasks_run();
  return tasks;
}

/// Busiest and summed send-NIC busy time over all ranks.
std::pair<double, double> nic_busy(rt::World& w) {
  double max = 0.0, sum = 0.0;
  for (int r = 0; r < w.nranks(); ++r) {
    max = std::max(max, w.network().nic_busy(r));
    sum += w.network().nic_busy(r);
  }
  return {max, sum};
}

Fingerprint fingerprint(rt::World& w, const Workload& wl, double makespan) {
  Fingerprint fp;
  auto put = [&](const char* k, auto v) { fp.emplace_back(k, exact(v)); };
  put("makespan_s", makespan);
  wl.describe(fp);
  put("sim.events", w.engine().events_processed());
  put("sched.tasks", tasks_run(w));
  put("sched.busy_s", w.total_busy_time());
  const rt::CommStats& c = w.comm().stats();
  put("comm.messages", c.messages);
  put("comm.splitmd_sends", c.splitmd_sends);
  put("comm.local_copies", c.local_copies);
  put("comm.local_shares", c.local_shares);
  put("comm.serializations", c.serializations);
  put("comm.serialize_hits", c.serialize_hits);
  put("comm.broadcast_forwards", c.broadcast_forwards);
  put("comm.am_batches", c.am_batches);
  put("comm.batched_msgs", c.batched_msgs);
  put("comm.reduce_forwards", c.reduce_forwards);
  put("comm.reduce_combines", c.reduce_combines);
  put("comm.intra_node_hops", c.intra_node_hops);
  put("comm.inter_node_hops", c.inter_node_hops);
  const net::NetStats& n = w.network().stats();
  put("net.transfers", n.messages);
  put("net.control_msgs", n.control_msgs);
  put("net.bytes", n.bytes);
  put("net.rma_gets", n.rma_gets);
  const auto [nic_max, nic_sum] = nic_busy(w);
  put("net.nic_busy_max_s", nic_max);
  put("net.nic_busy_sum_s", nic_sum);
  const rt::DataTracker::RankStats d = w.data_tracker().totals();
  put("data.allocs", d.allocs);
  put("data.releases", d.releases);
  put("data.input_copies", d.input_copies);
  put("data.input_copy_bytes", d.input_copy_bytes);
  put("data.peak_live_bytes", d.high_watermark);
  put("data.serializations", d.serializations);
  put("data.serialize_hits", d.serialize_hits);
  return fp;
}

void print_exact(const Fingerprint& fp) {
  for (const auto& [k, v] : fp) std::printf("exact %s %s\n", k.c_str(), v.c_str());
}

RunResult run_once(Workload& wl, Spans& spans, std::unique_ptr<rt::World>& world,
                   bool fresh, bool traced) {
  RunResult r;
  spans.time(traced ? "traced_run" : "plain_run", [&] {
    if (fresh) {
      world.reset();
      wl.next_input();
      spans.time("rt.World", [&] { world = std::make_unique<rt::World>(wl.config()); });
    }
    if (traced) world->enable_tracing();
    r.host_s = spans.time(wl.run_span(), [&] { r.makespan = wl.run(*world); });
  });
  r.fp = fingerprint(*world, wl, r.makespan);
  return r;
}

/// Counter-derived per-layer metrics of a traced run whose fingerprint
/// matched the plain run's (so the counts are the plain run's too).
void layer_counters(rt::World& w, double makespan, Metrics& m) {
  m["sim.events"] = static_cast<double>(w.engine().events_processed());
  m["sched.tasks"] = static_cast<double>(tasks_run(w));
  m["sched.busy_s"] = w.total_busy_time();
  m["sched.util"] = w.total_busy_time() / (makespan * w.nranks() * w.workers_per_rank());

  const rt::CommStats& c = w.comm().stats();
  const rt::CommCounters t = w.tracer().totals();
  if (c.messages + c.splitmd_sends > 0) {
    m["comm.messages"] = static_cast<double>(c.messages);
    m["comm.splitmd_sends"] = static_cast<double>(c.splitmd_sends);
    m["comm.serializations"] = static_cast<double>(c.serializations);
    m["comm.serialize_hits"] = static_cast<double>(c.serialize_hits);
    m["comm.broadcast_forwards"] = static_cast<double>(c.broadcast_forwards);
    m["comm.am_batches"] = static_cast<double>(c.am_batches);
    m["comm.reduce_forwards"] = static_cast<double>(c.reduce_forwards);
    m["comm.send_cpu_s"] = t.charged_cpu;
  }
  if (!w.tracer().server_events().empty()) {
    m["comm.server_wait_s"] = t.server_wait;
    m["comm.server_busy_s"] = t.server_busy;
  }
  if (t.rma_gets > 0) m["comm.rma_latency_mean_s"] = t.rma_latency_total / t.rma_gets;

  const net::NetStats& n = w.network().stats();
  if (n.messages + n.control_msgs > 0) {
    const auto [nic_max, nic_sum] = nic_busy(w);
    m["net.transfers"] = static_cast<double>(n.messages);
    m["net.control_msgs"] = static_cast<double>(n.control_msgs);
    m["net.bytes"] = static_cast<double>(n.bytes);
    m["net.rma_gets"] = static_cast<double>(n.rma_gets);
    m["net.nic_busy_max_s"] = nic_max;
    m["net.nic_busy_mean_s"] = nic_sum / w.nranks();
  }

  const rt::DataTracker::RankStats d = w.data_tracker().totals();
  if (d.allocs > 0) {
    m["data.allocs"] = static_cast<double>(d.allocs);
    m["data.input_copies"] = static_cast<double>(d.input_copies);
    m["data.peak_live_bytes"] = static_cast<double>(d.high_watermark);
  }

  const rt::CriticalPath cp = w.tracer().critical_path();
  double task_s = 0.0, msg_s = 0.0;
  for (const rt::CriticalHop& h : cp.hops)
    (h.kind == rt::CriticalHop::Kind::Task ? task_s : msg_s) += h.duration;
  m["cp.length_s"] = cp.length;
  m["cp.task_s"] = task_s;
  m["cp.msg_s"] = msg_s;
  m["cp.hops"] = static_cast<double>(cp.hops.size());
}

// --- the two modes ------------------------------------------------------

// Set-up runs kMinSetups times before the runs. When one set-up fits in
// kBurstSeconds (all but potrf's generator, which takes seconds), it runs
// again in a burst of up to kBurstSetups before every run, so that its median
// samples the host over the whole window and not over one second of it.
constexpr int kMinSetups = 3;
constexpr int kBurstSetups = 100;
constexpr double kBurstSeconds = 0.1;

void plain_mode(Workload& wl, double seconds, Spans& spans, Checks& checks, Metrics& m) {
  std::unique_ptr<rt::World> world;
  std::vector<double> setup;
  auto set_up = [&] {
    world.reset();
    setup.push_back(spans.time("setup", [&] {
      wl.generate(spans);
      spans.time("rt.World", [&] { world = std::make_unique<rt::World>(wl.config()); });
    }));
  };
  while (static_cast<int>(setup.size()) < kMinSetups) set_up();

  // Run 1 warms up and sets peak RSS; every later run counts as run time /
  // the mean of the reference passes just before and after it.
  const double r0 = now_s();
  const RunResult first = run_once(wl, spans, world, /*fresh=*/false, /*traced=*/false);
  m["peak_rss_mb"] = peak_rss_mb();  // before the reference or verification allocate
  HostRef host;
  std::vector<double> run, ref{host.time(spans)}, ratio;
  do {
    const double b0 = now_s();
    for (int i = 0; i < kBurstSetups && now_s() - b0 + setup.back() < kBurstSeconds; ++i) set_up();
    const RunResult r = run_once(wl, spans, world, /*fresh=*/true, /*traced=*/false);
    ref.push_back(host.time(spans));
    run.push_back(r.host_s);
    ratio.push_back(r.host_s / (0.5 * (ref[ref.size() - 2] + ref.back())));
    checks.expect(r.fp == first.fp, "run " + std::to_string(run.size() + 1) + " repeats run 1");
  } while (now_s() - r0 < seconds);

  spans.time("verify", [&] { wl.verify(*world, checks); });
  print_exact(first.fp);
  std::printf("samples setup %zu runs %zu run_s %.4f ref_s %.4f (medians)\nsamples run_ref",
              setup.size(), run.size(), median(run), median(ref));
  for (double v : ratio) std::printf(" %.3f", v);
  std::printf("\n");
  m["setup_s"] = median(setup);
  m["run_ref"] = median(ratio);
  m["makespan_s"] = first.makespan;
}

void traced_mode(Workload& wl, double seconds, Spans& spans, Checks& checks, Metrics& m) {
  std::unique_ptr<rt::World> world;
  double gen = 0.0, ctor = 0.0;
  spans.time("setup", [&] {
    gen = wl.generate(spans);
    ctor = spans.time("rt.World", [&] { world = std::make_unique<rt::World>(wl.config()); });
  });
  if (wl.gen_metric() != nullptr) m[wl.gen_metric()] = gen;
  m["world.ctor_s"] = ctor;

  // Each round: a reference pass, a plain run, then a traced run on a fresh
  // world; the overhead is the median of traced / plain within a round.
  HostRef host;
  std::vector<double> ref, plain, traced, overhead;
  RunResult first;
  double makespan = 0.0;
  const double r0 = now_s();
  do {
    ref.push_back(host.time(spans));
    RunResult p = run_once(wl, spans, world, /*fresh=*/!plain.empty(), /*traced=*/false);
    plain.push_back(p.host_s);
    if (plain.size() == 1)
      first = std::move(p);
    else
      checks.expect(p.fp == first.fp, "plain run " + std::to_string(plain.size()) + " repeats");
    const RunResult t = run_once(wl, spans, world, /*fresh=*/true, /*traced=*/true);
    traced.push_back(t.host_s);
    overhead.push_back(t.host_s / plain.back());
    for (std::size_t i = 0; i < first.fp.size() && i < t.fp.size(); ++i) {
      if (first.fp[i] != t.fp[i])
        std::printf("trace changed %s: %s -> %s\n", first.fp[i].first.c_str(),
                    first.fp[i].second.c_str(), t.fp[i].second.c_str());
    }
    checks.expect(t.fp == first.fp, "traced run reproduces the plain run bit for bit");
    makespan = t.makespan;
  } while (now_s() - r0 < seconds);

  layer_counters(*world, makespan, m);
  m["host.run_s"] = median(plain);
  m["host.ref_s"] = median(ref);
  m["sim.events_per_s"] = m["sim.events"] / m["host.run_s"];
  m["trace.run_s"] = median(traced);
  m["trace.overhead"] = median(overhead);
  const bool serializes = world->comm().stats().serializations > 0;

  spans.time("verify", [&] { wl.verify(*world, checks); });
  world.reset();
  wl.probe(spans, m);
  if (serializes) m["serialization.gbps"] = wl.serialization_probe(spans, checks);
  print_exact(first.fp);
  std::printf("samples plain %zu traced %zu\n", plain.size(), traced.size());
}

// --- output -------------------------------------------------------------

template <std::size_t N>
void print_result(const MetricDef (&defs)[N], const Metrics& m, const Checks& checks) {
  std::string json = "{\"correct\": ";
  json.append(checks.failed == 0 ? "true" : "false")
      .append(", \"attempted\": ")
      .append(std::to_string(checks.attempted))
      .append(", \"failed\": ")
      .append(std::to_string(checks.failed))
      .append(", \"metrics\": {");
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = m.find(defs[i].name);
    const double v = it != m.end() ? it->second : 0.0;
    if (it == m.end())
      std::printf("absent %s\n", defs[i].name);
    else
      std::printf("metric %s %.9g %s\n", defs[i].name, v, defs[i].unit);
    json.append(i ? ", \"" : "\"")
        .append(defs[i].name)
        .append("\": {\"value\": ")
        .append(exact(v))
        .append(", \"unit\": \"")
        .append(defs[i].unit)
        .append("\"}");
  }
  json += "}}";
  std::printf("checks attempted %llu failed %llu error_rate %.6g\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              checks.attempted ? static_cast<double>(checks.failed) / checks.attempted : 0.0);
  std::printf("%s\n", json.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v, &used);
      have_seed = used == v.size();
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v, &used);
      if (used != v.size() || !(a.seconds > 0.0)) throw std::invalid_argument("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.trace < 0)
    throw std::invalid_argument(
        "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1 [--spans PATH]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    std::unique_ptr<Workload> wl = make_workload(a.workload, a.seed);
    if (!wl) throw std::invalid_argument("unknown workload " + a.workload);
    const std::string run_id =
        a.workload + "-seed" + std::to_string(a.seed) + "-trace" + std::to_string(a.trace);
    std::printf("workload %s seed %llu seconds %g trace %d\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
    Spans spans(run_id);
    Checks checks;
    Metrics m;
    if (a.trace == 0)
      plain_mode(*wl, a.seconds, spans, checks, m);
    else
      traced_mode(*wl, a.seconds, spans, checks, m);
    std::printf("input_digest %s\n", hex(wl->input_digest()).c_str());
    spans.print_summary();
    if (!a.spans.empty()) spans.write(a.spans);
    if (a.trace == 0)
      print_result(kEndToEnd, m, checks);
    else
      print_result(kPerLayer, m, checks);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
