#include "baselines/dplasma_like.hpp"

#include <memory>
#include <unordered_map>
#include <vector>

#include "apps/cholesky/cholesky_ttg.hpp"
#include "linalg/dist.hpp"
#include "linalg/kernels.hpp"

namespace ttg::baselines {

using linalg::Tile;
using linalg::TiledMatrix;

namespace {

// PTG avoids TTG's dynamic key matching: per-task bookkeeping is a counter
// decrement, cheaper than even PaRSEC's generic path.
constexpr double kPtgTaskOverhead = 1.5e-7;

enum class Kind : std::uint64_t { Potrf = 0, Trsm = 1, Syrk = 2, Gemm = 3 };

/// Packed task identifier: kind | m | n | k.
constexpr std::uint64_t tid(Kind kind, int m, int n, int k) {
  return (static_cast<std::uint64_t>(kind) << 60) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(n)) << 20) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(k));
}

/// Packed data identifier for the per-rank tile store.
constexpr std::uint64_t did(char tag, int m, int k) {
  return (static_cast<std::uint64_t>(tag) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) << 24) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(k));
}

/// Whole executor state: one instance per run.
class PtgCholesky {
 public:
  PtgCholesky(rt::World& world, const TiledMatrix& a, bool collect)
      : world_(world),
        a_(a),
        nt_(a.ntiles()),
        dist_(linalg::BlockCyclic2D::make(world.nranks())),
        rank_state_(static_cast<std::size_t>(world.nranks())),
        collect_(collect) {
    if (collect_) l_out_ = TiledMatrix(a.n(), a.block(), /*allocate=*/false);
  }

  void inject() {
    // Every rank starts with its owned tiles in its store; the "initial"
    // dependence of the first task of each tile chain is satisfied.
    for (int m = 0; m < nt_; ++m) {
      for (int n = 0; n <= m; ++n) {
        const int r = dist_.owner(m, n);
        world_.run_as(r, [&]() {
          store(r, did('C', m, n)) = a_.tile(m, n);
          if (m == 0 && n == 0) {
            notify(r, tid(Kind::Potrf, 0, 0, 0));
          } else if (m == n) {
            notify(r, tid(Kind::Syrk, m, m, 0));
          } else if (n == 0) {
            notify(r, tid(Kind::Trsm, m, 0, 0));
          } else {
            notify(r, tid(Kind::Gemm, m, n, 0));
          }
        });
      }
    }
  }

  [[nodiscard]] std::uint64_t tasks_run() const { return tasks_; }
  [[nodiscard]] TiledMatrix take_matrix() { return std::move(l_out_); }

 private:
  struct RankState {
    std::unordered_map<std::uint64_t, int> missing;  // deps not yet satisfied
    std::unordered_map<std::uint64_t, Tile> store;   // local data
  };

  Tile& store(int rank, std::uint64_t id) {
    return rank_state_[static_cast<std::size_t>(rank)].store[id];
  }

  static int static_deps(Kind kind) {
    switch (kind) {
      case Kind::Potrf:
        return 1;  // tile state (initial or last SYRK)
      case Kind::Trsm:
        return 2;  // L(k,k) + tile state
      case Kind::Syrk:
        return 2;  // L(m,k) + tile state
      case Kind::Gemm:
        return 3;  // L(m,k) + L(n,k) + tile state
    }
    return 0;
  }

  /// One dependence of `task` satisfied on `rank`; activate when complete.
  void notify(int rank, std::uint64_t task) {
    auto& st = rank_state_[static_cast<std::size_t>(rank)];
    auto [it, fresh] = st.missing.try_emplace(
        task, static_deps(static_cast<Kind>(task >> 60)));
    (void)fresh;
    if (--it->second == 0) {
      st.missing.erase(it);
      schedule(rank, task);
    }
  }

  void schedule(int rank, std::uint64_t task) {
    const auto kind = static_cast<Kind>(task >> 60);
    const int m = static_cast<int>((task >> 40) & 0xfffff);
    const int n = static_cast<int>((task >> 20) & 0xfffff);
    const int k = static_cast<int>(task & 0xfffff);
    const auto& machine = world_.machine();
    auto rows = [this](int i) { return a_.tile_rows(i); };

    double cost = kPtgTaskOverhead;
    int prio = 0;
    switch (kind) {
      case Kind::Potrf:
        cost += linalg::potrf_time(machine, rows(k));
        prio = 3 * (nt_ - k);
        break;
      case Kind::Trsm:
        cost += linalg::trsm_time(machine, rows(m), rows(k));
        prio = 2 * (nt_ - k);
        break;
      case Kind::Syrk:
        cost += linalg::syrk_time(machine, rows(m), rows(k));
        prio = nt_ - k;
        break;
      case Kind::Gemm:
        cost += linalg::gemm_time(machine, rows(m), rows(n), rows(k));
        prio = nt_ - k;
        break;
    }
    world_.scheduler(rank).submit(
        {.priority = prio, .cost = cost, .body = [this, rank, kind, m, n, k]() {
           world_.run_as(rank, [&]() {
             ++tasks_;
             execute(rank, kind, m, n, k);
           });
         }});
  }

  void execute(int rank, Kind kind, int m, int n, int k) {
    switch (kind) {
      case Kind::Potrf: {
        Tile& c = store(rank, did('C', k, k));
        TTG_CHECK(linalg::potrf(c), "dplasma: matrix not SPD");
        if (collect_) l_out_.tile(k, k) = c;
        Tile l = std::move(c);
        rank_state_[static_cast<std::size_t>(rank)].store.erase(did('C', k, k));
        // Propagate L(k,k) to every rank owning a TRSM of column k —
        // once per rank (PaRSEC's dep-engine collective).
        propagate(rank, did('L', k, k), std::move(l), [this, k](int dst) {
          std::vector<std::uint64_t> v;
          for (int mm = k + 1; mm < nt_; ++mm)
            if (dist_.owner(mm, k) == dst) v.push_back(tid(Kind::Trsm, mm, 0, k));
          return v;
        });
        break;
      }
      case Kind::Trsm: {
        Tile& c = store(rank, did('C', m, k));
        const Tile& lkk = store(rank, did('L', k, k));
        linalg::trsm(lkk, c);
        if (collect_) l_out_.tile(m, k) = c;
        Tile l = std::move(c);
        rank_state_[static_cast<std::size_t>(rank)].store.erase(did('C', m, k));
        // L(m,k) feeds SYRK(k,m), GEMMs in row m and column m.
        propagate(rank, did('L', m, k), std::move(l), [this, m, k](int dst) {
          std::vector<std::uint64_t> v;
          if (dist_.owner(m, m) == dst) v.push_back(tid(Kind::Syrk, m, m, k));
          for (int nn = k + 1; nn < m; ++nn)
            if (dist_.owner(m, nn) == dst) v.push_back(tid(Kind::Gemm, m, nn, k));
          for (int mm = m + 1; mm < nt_; ++mm)
            if (dist_.owner(mm, m) == dst) v.push_back(tid(Kind::Gemm, mm, m, k));
          return v;
        });
        break;
      }
      case Kind::Syrk: {
        Tile& c = store(rank, did('C', m, m));
        const Tile& l = store(rank, did('L', m, k));
        linalg::syrk(l, c);
        if (k == m - 1) {
          notify(rank, tid(Kind::Potrf, m, m, m));  // same owner: diagonal
        } else {
          notify(rank, tid(Kind::Syrk, m, m, k + 1));
        }
        break;
      }
      case Kind::Gemm: {
        Tile& c = store(rank, did('C', m, n));
        const Tile& lmk = store(rank, did('L', m, k));
        const Tile& lnk = store(rank, did('L', n, k));
        linalg::gemm_nt(c, lmk, lnk);
        if (k == n - 1) {
          notify(rank, tid(Kind::Trsm, m, 0, n));  // same owner: tile (m,n)
        } else {
          notify(rank, tid(Kind::Gemm, m, n, k + 1));
        }
        break;
      }
    }
  }

  /// Deliver `tile` under `data_id` to every rank with successors (from
  /// `succ_of(dst)`), shipping it once per remote rank via the one-sided
  /// protocol, then satisfy the L-dependence of each successor task.
  template <typename SuccFn>
  void propagate(int src, std::uint64_t data_id, Tile&& tile, SuccFn succ_of) {
    auto shared = std::make_shared<Tile>(std::move(tile));
    for (int dst = 0; dst < world_.nranks(); ++dst) {
      auto succ = succ_of(dst);
      if (succ.empty()) continue;
      if (dst == src) {
        store(src, data_id) = *shared;
        for (auto t : succ) notify(src, t);
        continue;
      }
      const std::size_t payload = shared->wire_bytes();
      auto& comm = world_.comm();
      const double cpu = comm.send_side_cpu(payload, ser::Protocol::SplitMetadata);
      const double delay = world_.scheduler(src).charge(cpu);
      world_.engine().after(delay, [this, &comm, src, dst, payload, data_id, shared,
                                    succ = std::move(succ)]() {
        comm.send_splitmd(
            src, dst, /*md_bytes=*/96, payload,
            /*on_metadata=*/[]() {},
            /*on_payload=*/
            [this, dst, data_id, shared, succ]() {
              world_.run_as(dst, [&]() {
                store(dst, data_id) = *shared;
                for (auto t : succ) notify(dst, t);
              });
            },
            /*on_release=*/[shared]() {});
      });
    }
  }

  rt::World& world_;
  const TiledMatrix& a_;
  int nt_;
  linalg::BlockCyclic2D dist_;
  std::vector<RankState> rank_state_;
  bool collect_;
  TiledMatrix l_out_;
  std::uint64_t tasks_ = 0;
};

}  // namespace

DplasmaResult run_dplasma_cholesky(const sim::MachineModel& machine, int nranks,
                                   const TiledMatrix& a, bool collect) {
  rt::WorldConfig cfg;
  cfg.machine = machine;
  cfg.nranks = nranks;
  cfg.backend = rt::BackendKind::Parsec;
  rt::World world(cfg);
  PtgCholesky ptg(world, a, collect);
  const double t0 = world.engine().now();
  ptg.inject();
  const double t1 = world.engine().run();
  DplasmaResult res;
  res.makespan = t1 - t0;
  res.gflops = apps::cholesky::flop_count(a.n()) / res.makespan / 1e9;
  res.tasks = ptg.tasks_run();
  if (collect) res.matrix = ptg.take_matrix();
  return res;
}

}  // namespace ttg::baselines
