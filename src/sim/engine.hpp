// Discrete-event simulation engine.
//
// The paper's evaluation ran on real clusters (Hawk, Seawulf). We do not
// have a cluster, so distributed execution is reproduced as a deterministic
// discrete-event simulation: ranks, worker threads and NICs are virtual
// resources, a time-ordered event queue is drained, and task bodies execute
// real C++ code while their *duration* is charged to the virtual clock from
// a calibrated cost model. Events at equal times are ordered by insertion
// sequence, making every run bit-reproducible.
//
// Two execution modes share this interface:
//
//   * serial  — the reference engine: one binary heap, one OS thread. Every
//               baseline number in ci/BENCH_*.json was produced by this mode
//               and stays bit-identical.
//   * sharded — conservative parallel DES for 1k–10k simulated ranks. Ranks
//               are partitioned into per-lane event heaps; lanes drain
//               epochs [T, W_l) independently (optionally on a thread
//               pool), where each lane's window W_l is bounded by the
//               cross-lane delivery contract (see "Adaptive lookahead"
//               below), and merge at an epoch barrier. The barrier
//               renumbers every deferred push in *serial* push order (see
//               OrderKey below), so a sharded run is bit-identical to the
//               serial reference — pinned by tests/test_scale_equiv.cpp.
//
// Hot-path engineering: queues are binary heaps over reserved vectors (no
// node allocations, events move — never copy — on pop), cancellable events
// borrow a pooled cancel slot instead of allocating a shared_ptr flag per
// timer, and event closures live in a move-only EventFn whose inline buffer
// covers typical captures and whose overflow blocks come from per-lane
// free-list arenas (FnArena) — so arming, firing and cancelling timers is
// allocation-free at steady state even for capture-heavy closures. The
// sharded mode's per-lane heaps stay small and cache-resident where the
// serial heap grows with total in-flight events; this is where its
// throughput advantage at scale comes from.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace ttg::sim {

/// Virtual time in seconds.
using Time = double;

/// Pooled cancellation flag for one armed cancellable event. The generation
/// stamp invalidates tokens left over from a previous occupancy of the slot.
struct CancelSlot {
  std::uint32_t gen = 0;
  bool cancelled = false;
};

/// Free-list arena for EventFn overflow blocks. Each engine lane owns one:
/// closures that do not fit EventFn's inline buffer borrow a fixed-size
/// block from the arena of the lane that *created* them, and return it when
/// the event is destroyed — possibly from another lane's draining thread
/// (cross-lane deliveries execute, and die, on their destination lane).
///
/// Concurrency contract: acquire() is only called by the thread currently
/// executing the owning lane (one thread at a time; epochs are ordered by
/// the worker-pool mutex). release() may be called from any thread; while
/// the draining thread holds an OwnerScope claim on the arena, its own
/// frees (same-lane timers, the overwhelmingly common case) go straight
/// onto the plain local list, and only genuinely cross-thread frees pay a
/// lock-free remote push (one CAS); the owner refills its plain local list
/// by stealing the whole remote list with a single exchange. Single-owner
/// pop + push-only remote list means no ABA hazard. Steady state allocates
/// nothing: blocks recycle through the free lists and slabs are never
/// returned.
class FnArena {
 public:
  /// Overflow payload size. Covers every closure the runtime builds today
  /// (retransmit timers, tree-forward hops capture ~64–120 bytes); larger
  /// closures fall back to a counted heap allocation.
  static constexpr std::size_t kPayload = 128;

  struct State;
  struct Block {
    State* owner = nullptr;  ///< home arena state (frees route back here)
    Block* next = nullptr;   ///< free-list link
    alignas(alignof(std::max_align_t)) unsigned char payload[kPayload];
  };

  /// The arena's storage, heap-pinned so outstanding Blocks keep a stable
  /// owner pointer even when the FnArena handle itself moves (lanes live in
  /// a vector).
  struct State {
    static constexpr std::size_t kSlabBlocks = 256;
    std::vector<std::unique_ptr<Block[]>> slabs;
    std::size_t slab_used = 0;
    std::uint64_t slabs_allocated = 0;
    Block* local_free = nullptr;             ///< owner-thread free list
    std::atomic<Block*> remote_free{nullptr};  ///< any-thread free list
  };

  FnArena() : st_(new State) {}
  FnArena(FnArena&&) noexcept = default;
  FnArena& operator=(FnArena&&) noexcept = default;
  FnArena(const FnArena&) = delete;
  FnArena& operator=(const FnArena&) = delete;

  /// Borrow a block (owner thread only — see the concurrency contract).
  Block* acquire() {
    State& s = *st_;
    if (s.local_free == nullptr)
      s.local_free = s.remote_free.exchange(nullptr, std::memory_order_acquire);
    if (s.local_free != nullptr) {
      Block* b = s.local_free;
      s.local_free = b->next;
      return b;
    }
    if (s.slabs.empty() || s.slab_used == State::kSlabBlocks) {
      s.slabs.emplace_back(new Block[State::kSlabBlocks]);
      s.slab_used = 0;
      ++s.slabs_allocated;
    }
    Block* b = &s.slabs.back()[s.slab_used++];
    b->owner = &s;
    return b;
  }

  /// Return a block to its home arena (any thread). If the calling thread
  /// currently holds the OwnerScope claim on that arena, the push is a
  /// plain local-list link (no atomics) — the same exclusivity that makes
  /// acquire() safe makes this safe.
  static void release(Block* b) {
    State* s = b->owner;
    if (s == tls_owner_) {
      b->next = s->local_free;
      s->local_free = b;
      return;
    }
    Block* head = s->remote_free.load(std::memory_order_relaxed);
    do {
      b->next = head;
    } while (!s->remote_free.compare_exchange_weak(
        head, b, std::memory_order_release, std::memory_order_relaxed));
  }

  /// RAII claim of exclusive arena ownership by the calling thread. Taken
  /// by the thread draining the owning lane (and by the serial engine for
  /// its whole run): it must be the only thread touching the local free
  /// list for the claim's duration. Claims nest (restore-on-exit), but a
  /// thread owns at most one arena at a time in practice.
  class OwnerScope {
   public:
    explicit OwnerScope(FnArena& a) : prev_(tls_owner_) {
      tls_owner_ = a.st_.get();
    }
    ~OwnerScope() { tls_owner_ = prev_; }
    OwnerScope(const OwnerScope&) = delete;
    OwnerScope& operator=(const OwnerScope&) = delete;

   private:
    State* prev_;
  };

  /// Slabs allocated so far — flat across steady-state epochs (the
  /// zero-allocation claim gated by the storm bench).
  [[nodiscard]] std::uint64_t slabs_allocated() const {
    return st_->slabs_allocated;
  }

 private:
  static thread_local State* tls_owner_;  ///< arena claimed by this thread

  std::unique_ptr<State> st_;
};

/// Move-only type-erased callable for event closures. Replaces
/// std::function<void()> on the engine hot path:
///
///   * 48-byte inline buffer (vs std::function's 16 on libstdc++), sized so
///     scheduler completions, network hops and storm timers stay inline;
///   * overflow storage borrowed from a per-lane FnArena instead of the
///     global heap, so capture-heavy closures allocate nothing at steady
///     state;
///   * closures larger than FnArena::kPayload fall back to a heap
///     allocation counted in heap_allocations() (the storm bench asserts
///     the counter stays flat).
///
/// Dispatch is one ops-table load + one indirect call, same as
/// std::function, but construction and destruction never touch the
/// allocator on the pooled paths.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventFn() = default;
  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Wrap `f`, borrowing overflow storage from `arena` when it does not fit
  /// inline (null arena: heap fallback). The engine passes the arena of the
  /// lane executing the push; World/driver code passes the shared lane's.
  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                         EventFn>>>
  explicit EventFn(F&& f, FnArena* arena = nullptr) {
    using Fd = std::remove_cv_t<std::remove_reference_t<F>>;
    if constexpr (sizeof(Fd) <= kInlineSize &&
                  alignof(Fd) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fd>) {
      (void)arena;
      new (buf_) Fd(std::forward<F>(f));
      ops_ = &kInlineOps<Fd>;
    } else {
      if constexpr (sizeof(Fd) <= FnArena::kPayload &&
                    alignof(Fd) <= alignof(std::max_align_t)) {
        if (arena != nullptr) {
          FnArena::Block* b = arena->acquire();
          new (b->payload) Fd(std::forward<F>(f));
          std::memcpy(buf_, &b, sizeof b);
          ops_ = &kArenaOps<Fd>;
          return;
        }
      }
      Fd* p = new Fd(std::forward<F>(f));
      heap_allocs_.fetch_add(1, std::memory_order_relaxed);
      std::memcpy(buf_, &p, sizeof p);
      ops_ = &kHeapOps<Fd>;
    }
  }

  void operator()() { ops_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Process-wide count of closures that overflowed both the inline buffer
  /// and the arena block size (test/bench hook for the zero-alloc claim).
  [[nodiscard]] static std::uint64_t heap_allocations() {
    return heap_allocs_.load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char* buf);
    void (*destroy)(unsigned char* buf);
    void (*relocate)(unsigned char* dst, unsigned char* src);
  };

  template <class F>
  static F* ext(unsigned char* buf, std::size_t off) {
    void* p = nullptr;
    std::memcpy(&p, buf, sizeof p);
    return reinterpret_cast<F*>(static_cast<unsigned char*>(p) + off);
  }

  template <class F>
  static constexpr Ops kInlineOps = {
      [](unsigned char* buf) { (*reinterpret_cast<F*>(buf))(); },
      [](unsigned char* buf) { reinterpret_cast<F*>(buf)->~F(); },
      [](unsigned char* dst, unsigned char* src) {
        F* s = reinterpret_cast<F*>(src);
        new (dst) F(std::move(*s));
        s->~F();
      }};

  template <class F>
  static constexpr Ops kArenaOps = {
      [](unsigned char* buf) {
        (*ext<F>(buf, offsetof(FnArena::Block, payload)))();
      },
      [](unsigned char* buf) {
        void* p = nullptr;
        std::memcpy(&p, buf, sizeof p);
        auto* b = static_cast<FnArena::Block*>(p);
        reinterpret_cast<F*>(b->payload)->~F();
        FnArena::release(b);
      },
      [](unsigned char* dst, unsigned char* src) {
        std::memcpy(dst, src, sizeof(void*));
      }};

  template <class F>
  static constexpr Ops kHeapOps = {
      [](unsigned char* buf) { (*ext<F>(buf, 0))(); },
      [](unsigned char* buf) { delete ext<F>(buf, 0); },
      [](unsigned char* dst, unsigned char* src) {
        std::memcpy(dst, src, sizeof(void*));
      }};

  alignas(alignof(std::max_align_t)) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;

  static std::atomic<std::uint64_t> heap_allocs_;
};

/// Construction parameters for a sharded engine. Default-constructed (or
/// lanes <= 0) selects the serial reference engine. lanes == 1 runs the full
/// sharded machinery (epochs, deferral, renumbering) over a single lane —
/// the cheapest configuration that exercises every sharded code path, pinned
/// bit-identical to serial by the equivalence tests.
struct EngineConfig {
  int lanes = 0;       ///< event lanes; <= 0 selects the serial engine
  int threads = 1;     ///< OS threads draining lanes within an epoch
  int nranks = 1;      ///< rank space partitioned onto the lanes
  Time lookahead = 0.0;  ///< conservative window; must be > 0 when sharded
  /// Adaptive lookahead: when every pending event sits on one lane (a
  /// low-traffic phase — a straggler finishing a tail, gaps between jobs),
  /// extend that lane's epoch window from the actual pending-delivery
  /// picture instead of the static start+lookahead bound, up to window_cap
  /// lookaheads, shrinking back dynamically to the first event that escapes
  /// the epoch. One wide epoch then replaces up to window_cap barrier
  /// crossings. Results are bit-identical to conservative mode: the
  /// extension only fires when the epoch is a serial prefix, and the shrink
  /// keeps it a clean time cut of the serial execution.
  bool adaptive = false;
  /// Cap on adaptive windows, in lookahead units past the epoch start,
  /// bounding per-epoch deferred-buffer growth.
  double window_cap = 64.0;
};

/// Aggregate engine counters (see Engine::stats). Zero-cost bookkeeping —
/// everything here is maintained on paths that already touch the fields.
struct EngineStats {
  std::uint64_t epochs = 0;            ///< completed [T, W) windows
  std::uint64_t deferred_events = 0;   ///< pushes renumbered at barriers
  std::uint64_t deferred_txns = 0;     ///< shared() transactions replayed
  std::uint64_t adaptive_extensions = 0;  ///< epochs with a window beyond
                                          ///< the conservative bound
  double barrier_seconds = 0.0;  ///< wall time inside epoch barriers
  double run_seconds = 0.0;      ///< wall time inside Engine::run
  std::uint64_t fn_arena_slabs = 0;    ///< closure-arena slab allocations
  std::uint64_t fn_heap_allocs = 0;    ///< process-wide oversize closures
};

/// The event queue + virtual clock. One Engine underlies one simulated
/// cluster run; all runtimes, networks, and BSP executors schedule on it.
class Engine {
 public:
  Engine() { queue_.reserve(kInitialQueueCapacity); }
  explicit Engine(const EngineConfig& cfg);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// True when this engine runs the sharded (lane + epoch barrier) core.
  [[nodiscard]] bool sharded() const { return sharded_; }
  /// True when worker threads drain lanes concurrently, so event and task
  /// bodies run on more than one OS thread.
  [[nodiscard]] bool threaded() const { return !workers_.empty(); }
  /// Number of event lanes (1 in serial mode; excludes the shared lane).
  [[nodiscard]] int lanes() const {
    return sharded_ ? static_cast<int>(lanes_.size()) - 1 : 1;
  }
  /// Lane owning simulated rank r (0 in serial mode). Contiguous blocks of
  /// ranks share a lane so nearest-neighbour traffic stays lane-local.
  [[nodiscard]] int lane_of(int rank) const {
    if (!sharded_) return 0;
    return static_cast<int>((static_cast<long long>(rank) * lanes()) / nranks_);
  }
  /// The coordinator lane for state shared by all ranks (fabric bisection,
  /// fault draws). Its events execute serially at epoch barriers.
  [[nodiscard]] int shared_lane() const { return sharded_ ? lanes() : 0; }

  /// Current virtual time (of the executing lane during a sharded epoch).
  [[nodiscard]] Time now() const;

  /// Schedule `fn` at absolute virtual time `t` (must be >= now()) on the
  /// current lane (the ambient lane under World::run_as, or the executing
  /// event's lane). The templates wrap the callable in an EventFn backed by
  /// the executing lane's closure arena; pre-built EventFns pass through.
  void at(Time t, EventFn fn);
  template <class F, class = std::enable_if_t<!std::is_same_v<
                         std::remove_cv_t<std::remove_reference_t<F>>, EventFn>>>
  void at(Time t, F&& fn) {
    at(t, EventFn(std::forward<F>(fn), &push_arena()));
  }

  /// Schedule `fn` `dt` seconds from now.
  template <class F>
  void after(Time dt, F&& fn) {
    at(now() + dt, std::forward<F>(fn));
  }

  /// Schedule on an explicit lane. Cross-lane events must land at or beyond
  /// the destination lane's epoch window (conservative lookahead); the
  /// network layer guarantees this because every cross-rank delivery pays at
  /// least the minimum link latency. In serial mode these are plain at().
  void at_on(int lane, Time t, EventFn fn);
  template <class F, class = std::enable_if_t<!std::is_same_v<
                         std::remove_cv_t<std::remove_reference_t<F>>, EventFn>>>
  void at_on(int lane, Time t, F&& fn) {
    at_on(lane, t, EventFn(std::forward<F>(fn), &push_arena()));
  }
  template <class F>
  void after_on(int lane, Time dt, F&& fn) {
    at_on(lane, now() + dt, std::forward<F>(fn));
  }

  /// Run `fn` against shared simulator state (fabric bisection queue, fault
  /// ordinals). Serial mode: an inline call — zero behavioral change. In a
  /// sharded epoch the call is deferred to the barrier and replayed in
  /// exact serial order with the virtual clock rewound to the caller's now,
  /// so shared FIFO queues and fault draws observe the same sequence of
  /// requests as the serial reference.
  void shared(EventFn fn);
  template <class F, class = std::enable_if_t<!std::is_same_v<
                         std::remove_cv_t<std::remove_reference_t<F>>, EventFn>>>
  void shared(F&& fn) {
    shared(EventFn(std::forward<F>(fn), &push_arena()));
  }

  /// Handle to a cancellable event (see at_cancellable). Tokens refer to a
  /// pooled slot plus a generation stamp: cancelling a stale token (whose
  /// event already ran and returned the slot to the pool) is a safe no-op.
  struct CancelToken {
    CancelSlot* slot = nullptr;
    std::uint32_t gen = 0;
    [[nodiscard]] explicit operator bool() const { return slot != nullptr; }
  };

  /// Schedule `fn` like at(), returning a token that can cancel it. A
  /// cancelled event behaves as if it were never scheduled: it does not run,
  /// does not advance the clock, and does not count as processed. The
  /// resilience layer uses this for retransmission timeouts so an acked
  /// message leaves no trace on the virtual timeline. Cancellable events
  /// are lane-local: both the arm and the cancel must happen on the owning
  /// lane (retransmission timers arm and cancel on the sender's rank).
  CancelToken at_cancellable(Time t, EventFn fn);
  template <class F, class = std::enable_if_t<!std::is_same_v<
                         std::remove_cv_t<std::remove_reference_t<F>>, EventFn>>>
  CancelToken at_cancellable(Time t, F&& fn) {
    return at_cancellable(t, EventFn(std::forward<F>(fn), &push_arena()));
  }
  template <class F>
  CancelToken after_cancellable(Time dt, F&& fn) {
    return at_cancellable(now() + dt, std::forward<F>(fn));
  }
  static void cancel(const CancelToken& token);

  /// Run until the event queue is empty. Returns the final virtual time,
  /// i.e. the makespan of everything scheduled.
  Time run();

  /// Number of events processed so far (for tests / stats).
  [[nodiscard]] std::uint64_t events_processed() const;

  /// True if no pending events remain.
  [[nodiscard]] bool idle() const;

  /// Cancel slots currently on the free list (for tests of the pool).
  [[nodiscard]] std::size_t pooled_cancel_slots() const;

  /// Epochs completed so far (0 on the serial engine). An epoch is one
  /// [T, W) window: lane drains + one barrier.
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }

  /// Aggregate counters: epochs, deferred work, barrier wall-time share,
  /// closure-arena allocation totals. Surfaced by --trace-summary and the
  /// scale bench; cheap enough to keep always-on.
  [[nodiscard]] EngineStats stats() const;

  /// Scoped ambient-lane override: while alive, at()/after() calls with no
  /// explicit lane route to `lane`. World::run_as(r, ...) wraps execution in
  /// a LaneScope for r's lane so existing runtime code routes correctly
  /// without per-call plumbing. No-op on a serial engine.
  class LaneScope {
   public:
    LaneScope(Engine& eng, int lane);
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    int* slot_ = nullptr;  // ambient-lane variable overridden (null = no-op)
    int saved_ = 0;
  };

 private:
  static constexpr std::size_t kInitialQueueCapacity = 1024;
  /// Child-index stride of a normal push; barrier-replayed shared
  /// transactions interleave their pushes at their own index with unit
  /// stride (matching the serial engine, where the transaction body ran
  /// inline inside the parent event).
  static constexpr std::uint64_t kIdxStep = 1ull << 20;
  static constexpr int kNoLane = -1;

  // ---- serial reference engine ----
  struct Event {
    Time time = 0.0;
    std::uint64_t seq = 0;  // tie-break: FIFO among simultaneous events
    EventFn fn;
    CancelSlot* slot = nullptr;  // null for ordinary (non-cancellable) events
    std::uint32_t gen = 0;       // generation the slot had when this event armed
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push(Time t, EventFn fn, CancelSlot* slot, std::uint32_t gen);
  /// Pop the earliest event off the heap (moved out, never copied).
  Event pop_front();
  CancelSlot* acquire_slot();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  // The serial engine's closure arena; declared before queue_ so pending
  // events (holding arena blocks) are destroyed before their storage.
  FnArena fn_arena_;
  std::vector<Event> queue_;  // binary heap ordered by Later
  // Cancel-slot pool: deque gives stable addresses for outstanding tokens;
  // slots recycle through free_slots_ when their event pops.
  std::deque<CancelSlot> slots_;
  std::vector<CancelSlot*> free_slots_;

  // ---- sharded engine ----
  //
  // OrderKey: the serial engine breaks time ties by global push sequence.
  // During a sharded epoch that sequence is unknowable (lanes drain
  // concurrently), so an event pushed within the current epoch instead
  // carries a *composite* key naming its push position: (parent execution
  // time, parent's key, child index within the parent). Keys compare as the
  // serial push order would:
  //
  //   * scalar vs scalar     — numeric (both were assigned in serial order);
  //   * scalar vs composite  — the scalar first (every scalar was assigned
  //                            before the current epoch began, i.e. pushed
  //                            serially before any push of this epoch);
  //   * composite vs composite — lexicographic (parent time, parent key
  //                            recursively, child index): pushes happen
  //                            during parent executions, which are ordered
  //                            by (time, key), and within one parent by
  //                            child index.
  //
  // At the epoch barrier every deferred push (cross-lane, or same-lane
  // beyond the epoch) is sorted by its composite key and assigned the next
  // scalar from a monotone global counter — exactly the sequence numbers
  // the serial engine would have handed out. Composite keys never survive a
  // barrier, so the scalar-before-composite rule stays valid every epoch.
  struct KeyNode {
    Time ptime = 0.0;               ///< parent's execution time
    const KeyNode* pkey = nullptr;  ///< parent's composite key (else scalar)
    std::uint64_t pscalar = 0;      ///< parent's scalar key when pkey null
    std::uint64_t idx = 0;          ///< push index within the parent
  };
  [[nodiscard]] static bool key_less(std::uint64_t as, const KeyNode* an,
                                     std::uint64_t bs, const KeyNode* bn);
  [[nodiscard]] static bool node_less(const KeyNode& a, const KeyNode& b);

  struct Ev {
    Time time = 0.0;
    std::uint64_t scalar = 0;       ///< order key when node == nullptr
    const KeyNode* key = nullptr;   ///< composite order key (epoch-local)
    EventFn fn;
    CancelSlot* slot = nullptr;
    std::uint32_t gen = 0;
  };
  struct EvLater {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.time != b.time) return a.time > b.time;
      return key_less(b.scalar, b.key, a.scalar, a.key);
    }
  };

  /// A push (or shared transaction) buffered during an epoch, renumbered /
  /// replayed at the barrier. The (ptime, pscalar/pkey, idx) triple is its
  /// serial push position.
  struct Deferred {
    Time ptime = 0.0;
    std::uint64_t pscalar = 0;
    const KeyNode* pkey = nullptr;
    std::uint64_t idx = 0;
    int lane = 0;     ///< destination lane (events) — unused for txns
    Time time = 0.0;  ///< event time; == ptime for shared transactions
    EventFn fn;
    CancelSlot* slot = nullptr;
    std::uint32_t gen = 0;
    bool txn = false;
    std::uint64_t scalar = 0;  ///< renumbered key (assigned at the barrier)
  };
  [[nodiscard]] static bool deferred_less(const Deferred& a, const Deferred& b);

  /// Bump allocator for epoch-local composite keys. Chunks give stable
  /// addresses (heap events hold KeyNode pointers across pushes) and are
  /// kept across epochs: reset() just rewinds the bump cursor, so steady
  /// state allocates nothing — unlike a deque, whose clear() returns its
  /// blocks to the allocator every epoch.
  class KeyArena {
   public:
    const KeyNode* make(Time ptime, const KeyNode* pkey, std::uint64_t pscalar,
                        std::uint64_t idx) {
      const std::size_t c = used_ / kChunk;
      if (c == chunks_.size()) chunks_.emplace_back(kChunk);
      KeyNode* n = &chunks_[c][used_ % kChunk];
      ++used_;
      *n = KeyNode{ptime, pkey, pscalar, idx};
      return n;
    }
    void reset() { used_ = 0; }

   private:
    static constexpr std::size_t kChunk = 4096;
    // Full-sized inner vectors: growing the outer vector moves them without
    // touching their elements, so handed-out KeyNode* stay valid.
    std::vector<std::vector<KeyNode>> chunks_;
    std::size_t used_ = 0;
  };

  struct Lane {
    // The closure arena outlives every container that can hold EventFns
    // borrowing its blocks (members destroy in reverse declaration order;
    // ~Engine additionally clears all heaps first for cross-lane blocks).
    FnArena fn_arena;
    std::vector<Ev> heap;  // binary heap ordered by EvLater
    std::deque<CancelSlot> slots;
    std::vector<CancelSlot*> free_slots;
    KeyArena arena;                  ///< epoch-local composite keys
    std::vector<Deferred> deferred;  ///< pushes buffered for the barrier,
                                     ///< appended — hence kept — in serial
                                     ///< push order (see drain_lane)
    Time now = 0.0;
    std::uint64_t processed = 0;
  };

  /// Everything "who is executing right now" — one per draining thread.
  struct ExecCtx {
    Engine* eng = nullptr;
    int lane = kNoLane;   ///< lane whose events are executing
    int ambient = kNoLane;  ///< default push target (LaneScope overrides)
    Time now = 0.0;
    std::uint64_t pscalar = 0;       ///< executing event's key...
    const KeyNode* pkey = nullptr;   ///< ...(scalar or composite)
    std::uint64_t next_idx = 0;      ///< child counter for pushes
    std::uint64_t idx_step = kIdxStep;
    bool barrier = false;  ///< replaying shared work at the epoch barrier
  };

  /// The executing context on this thread, if it belongs to this engine.
  static thread_local ExecCtx* tls_ctx_;

  [[nodiscard]] ExecCtx* ctx() const;
  [[nodiscard]] int current_target_lane() const;
  /// Closure arena for a push made right now: the executing lane's (the
  /// shared lane's at the barrier or from driver context), the engine-wide
  /// arena when serial. Cross-lane pushes still draw from the *source*
  /// lane's arena; the block routes home on release.
  [[nodiscard]] FnArena& push_arena();
  void sharded_at(int lane, Time t, EventFn fn, CancelSlot* slot,
                  std::uint32_t gen);
  void lane_push(Lane& ln, Time t, EventFn fn, std::uint64_t scalar,
                 const KeyNode* key, CancelSlot* slot, std::uint32_t gen);
  void drain_lane(int lane_idx);
  void redistribute_lane(int lane_idx);
  void merge_deferred();
  Time compute_windows();
  void run_pool_phase(int phase, int count);
  void run_epoch_lanes();
  void barrier();
  Time sharded_run();
  void start_workers();
  void stop_workers();

  bool sharded_ = false;
  int nranks_ = 1;
  int threads_ = 1;
  Time lookahead_ = 0.0;
  bool adaptive_ = false;
  double window_cap_ = 64.0;
  std::vector<Lane> lanes_;  ///< [0, lanes) rank lanes + [lanes] shared lane
  std::uint64_t next_scalar_ = 0;
  std::uint64_t epochs_ = 0;
  /// Per-lane epoch windows [start, window_[l]): conservative mode sets all
  /// of them to start+lookahead. Adaptive mode additionally extends the one
  /// lane holding every pending event (single-active-lane regime) up to
  /// start + window_cap * lookahead; the extended lane's own escaped pushes
  /// and transactions shrink its entry mid-drain back to the first time that
  /// leaves the epoch, so the epoch stays a time cut of the serial run.
  std::vector<Time> window_;
  /// Lane extended this epoch under adaptive lookahead, -1 when none. Set
  /// between epochs; during the epoch only that lane's thread executes
  /// events, so the mid-drain window shrinks are single-writer.
  int extended_lane_ = -1;
  Time global_now_ = 0.0;  ///< driver-visible clock between epochs/runs
  bool in_epoch_ = false;
  int driver_ambient_ = kNoLane;  ///< ambient lane outside event execution
  std::vector<Deferred> barrier_deferred_;  ///< pushes made during replay
  // Barrier scratch, reused every epoch (capacity survives; steady-state
  // barriers allocate nothing). merged_ holds the k-way merge of the lanes'
  // already-sorted deferred vectors; redist_ buckets renumbered records by
  // destination lane for the parallel heap-push phase.
  std::vector<Deferred*> merged_;
  std::vector<std::pair<Deferred*, Deferred*>> merge_cursors_;
  std::vector<std::vector<Deferred*>> redist_;

  // ---- stats ----
  std::uint64_t deferred_events_ = 0;
  std::uint64_t deferred_txns_ = 0;
  std::uint64_t adaptive_extensions_ = 0;
  std::uint64_t barrier_ns_ = 0;
  std::uint64_t run_ns_ = 0;

  // Worker pool (threads_ > 1): persistent threads woken per phase; work
  // items (lanes to drain, destination lanes to redistribute into) are
  // claimed via an atomic cursor so the partition is dynamic, and every
  // per-lane structure is touched by exactly one thread per phase.
  static constexpr int kPhaseDrain = 0;
  static constexpr int kPhaseRedistribute = 1;
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable pool_done_cv_;
  std::uint64_t phase_gen_ = 0;
  int pool_active_ = 0;
  bool pool_shutdown_ = false;
  int pool_phase_ = kPhaseDrain;
  int pool_count_ = 0;
  std::atomic<int> work_cursor_{0};
};

}  // namespace ttg::sim
