#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace ttg::sim {

thread_local Engine::ExecCtx* Engine::tls_ctx_ = nullptr;
thread_local FnArena::State* FnArena::tls_owner_ = nullptr;

std::atomic<std::uint64_t> EventFn::heap_allocs_{0};

namespace {
std::uint64_t ns_since(const std::chrono::steady_clock::time_point& t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

// ---------------------------------------------------------------------------
// Serial reference engine. This path is behaviorally the pre-sharding
// engine: every checked-in baseline was produced by it and must stay
// bit-identical.
// ---------------------------------------------------------------------------

void Engine::push(Time t, EventFn fn, CancelSlot* slot, std::uint32_t gen) {
  queue_.push_back(Event{t, next_seq_++, std::move(fn), slot, gen});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Engine::Event Engine::pop_front() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

CancelSlot* Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    CancelSlot* s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return &slots_.back();
}

FnArena& Engine::push_arena() {
  if (!sharded_) return fn_arena_;
  ExecCtx* c = ctx();
  const int lane = c != nullptr ? (c->barrier ? shared_lane() : c->lane)
                                : shared_lane();
  return lanes_[static_cast<std::size_t>(lane)].fn_arena;
}

void Engine::at(Time t, EventFn fn) {
  if (sharded_) {
    sharded_at(current_target_lane(), t, std::move(fn), nullptr, 0);
    return;
  }
  TTG_CHECK(t >= now_, "event scheduled in the past");
  push(t, std::move(fn), nullptr, 0);
}

void Engine::at_on(int lane, Time t, EventFn fn) {
  if (sharded_) {
    sharded_at(lane, t, std::move(fn), nullptr, 0);
    return;
  }
  TTG_CHECK(t >= now_, "event scheduled in the past");
  push(t, std::move(fn), nullptr, 0);
}

Engine::CancelToken Engine::at_cancellable(Time t, EventFn fn) {
  if (sharded_) {
    const int lane = current_target_lane();
    ExecCtx* c = ctx();
    if (c != nullptr) {
      // Both the timer and its cancel must live on the owning lane: the slot
      // is recycled by whichever lane pops the event, and a cross-lane
      // cancel would race the pop under a threaded drain.
      TTG_CHECK(lane == (c->barrier ? shared_lane() : c->lane),
                "cancellable events are lane-local");
    }
    Lane& ln = lanes_[static_cast<std::size_t>(lane)];
    CancelSlot* slot = nullptr;
    if (!ln.free_slots.empty()) {
      slot = ln.free_slots.back();
      ln.free_slots.pop_back();
    } else {
      ln.slots.emplace_back();
      slot = &ln.slots.back();
    }
    const std::uint32_t gen = slot->gen;
    sharded_at(lane, t, std::move(fn), slot, gen);
    return CancelToken{slot, gen};
  }
  TTG_CHECK(t >= now_, "event scheduled in the past");
  CancelSlot* slot = acquire_slot();
  push(t, std::move(fn), slot, slot->gen);
  return CancelToken{slot, slot->gen};
}

void Engine::cancel(const CancelToken& token) {
  // A stale token (its event already popped, slot recycled under a newer
  // generation) must be a no-op: the slot now guards someone else's event.
  if (token.slot != nullptr && token.slot->gen == token.gen)
    token.slot->cancelled = true;
}

Time Engine::run() {
  if (sharded_) return sharded_run();
  const auto t0 = std::chrono::steady_clock::now();
  FnArena::OwnerScope arena_own(fn_arena_);
  while (!queue_.empty()) {
    Event ev = pop_front();
    if (ev.slot != nullptr) {
      const bool skip = ev.slot->cancelled;
      // Retire the slot: bump the generation so outstanding tokens go stale,
      // then return it to the pool for the next at_cancellable.
      ev.slot->gen += 1;
      ev.slot->cancelled = false;
      free_slots_.push_back(ev.slot);
      if (skip) continue;  // as if never scheduled
    }
    now_ = ev.time;
    ++processed_;
    ev.fn();
  }
  run_ns_ += ns_since(t0);
  return now_;
}

// ---------------------------------------------------------------------------
// Sharded engine.
// ---------------------------------------------------------------------------

Engine::Engine(const EngineConfig& cfg) {
  queue_.reserve(kInitialQueueCapacity);
  if (cfg.lanes <= 0) return;  // serial reference engine
  sharded_ = true;
  nranks_ = std::max(1, cfg.nranks);
  threads_ = std::max(1, cfg.threads);
  lookahead_ = cfg.lookahead;
  adaptive_ = cfg.adaptive;
  window_cap_ = std::max(1.0, cfg.window_cap);
  TTG_CHECK(lookahead_ > 0.0, "sharded engine requires a positive lookahead");
  const int nl = std::min(cfg.lanes, nranks_);
  lanes_.resize(static_cast<std::size_t>(nl) + 1);  // + the shared lane
  for (Lane& ln : lanes_) ln.heap.reserve(kInitialQueueCapacity);
  window_.assign(lanes_.size(), 0.0);
  redist_.resize(lanes_.size());
  if (threads_ > 1 && nl > 1) start_workers();
}

Engine::~Engine() {
  stop_workers();
  // Destroy every container that can hold EventFns before the lanes (and
  // their closure arenas) go away: a pending event's closure may live in a
  // block owned by *another* lane's arena, so all arenas must outlive all
  // heaps.
  queue_.clear();
  barrier_deferred_.clear();
  for (Lane& ln : lanes_) {
    ln.heap.clear();
    ln.deferred.clear();
  }
}

Time Engine::now() const {
  if (!sharded_) return now_;
  const ExecCtx* c = tls_ctx_;
  if (c != nullptr && c->eng == this) return c->now;
  return global_now_;
}

std::uint64_t Engine::events_processed() const {
  if (!sharded_) return processed_;
  std::uint64_t n = 0;
  for (const Lane& ln : lanes_) n += ln.processed;
  return n;
}

bool Engine::idle() const {
  if (!sharded_) return queue_.empty();
  for (const Lane& ln : lanes_)
    if (!ln.heap.empty()) return false;
  return true;
}

std::size_t Engine::pooled_cancel_slots() const {
  if (!sharded_) return free_slots_.size();
  std::size_t n = 0;
  for (const Lane& ln : lanes_) n += ln.free_slots.size();
  return n;
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.epochs = epochs_;
  s.deferred_events = deferred_events_;
  s.deferred_txns = deferred_txns_;
  s.adaptive_extensions = adaptive_extensions_;
  s.barrier_seconds = static_cast<double>(barrier_ns_) * 1e-9;
  s.run_seconds = static_cast<double>(run_ns_) * 1e-9;
  s.fn_heap_allocs = EventFn::heap_allocations();
  if (sharded_) {
    for (const Lane& ln : lanes_) s.fn_arena_slabs += ln.fn_arena.slabs_allocated();
  } else {
    s.fn_arena_slabs = fn_arena_.slabs_allocated();
  }
  return s;
}

Engine::LaneScope::LaneScope(Engine& eng, int lane) {
  if (!eng.sharded_) return;  // no-op: the serial engine has one lane
  ExecCtx* c = Engine::tls_ctx_;
  slot_ = (c != nullptr && c->eng == &eng) ? &c->ambient : &eng.driver_ambient_;
  saved_ = *slot_;
  *slot_ = lane;
}

Engine::LaneScope::~LaneScope() {
  if (slot_ != nullptr) *slot_ = saved_;
}

bool Engine::key_less(std::uint64_t as, const KeyNode* an, std::uint64_t bs,
                      const KeyNode* bn) {
  if (an == nullptr) {
    if (bn == nullptr) return as < bs;
    // Scalars were assigned (in serial push order) no later than the start
    // of the current epoch; composites name pushes made *during* it.
    return true;
  }
  if (bn == nullptr) return false;
  if (an == bn) return false;
  return node_less(*an, *bn);
}

bool Engine::node_less(const KeyNode& a, const KeyNode& b) {
  // A push happens during its parent's execution, so push order is parent
  // execution order — (time, parent key) — then child index within one
  // parent. Note this is deliberately ONE level of time comparison: a
  // deeper "full path" lexicographic compare would mis-order a grandchild
  // against a sibling pushed by an earlier-executing grandparent.
  if (a.ptime != b.ptime) return a.ptime < b.ptime;
  if (a.pkey != b.pkey || (a.pkey == nullptr && a.pscalar != b.pscalar)) {
    if (key_less(a.pscalar, a.pkey, b.pscalar, b.pkey)) return true;
    if (key_less(b.pscalar, b.pkey, a.pscalar, a.pkey)) return false;
  }
  return a.idx < b.idx;
}

bool Engine::deferred_less(const Deferred& a, const Deferred& b) {
  if (a.ptime != b.ptime) return a.ptime < b.ptime;
  if (a.pkey != b.pkey || (a.pkey == nullptr && a.pscalar != b.pscalar)) {
    if (key_less(a.pscalar, a.pkey, b.pscalar, b.pkey)) return true;
    if (key_less(b.pscalar, b.pkey, a.pscalar, a.pkey)) return false;
  }
  return a.idx < b.idx;
}

Engine::ExecCtx* Engine::ctx() const {
  ExecCtx* c = tls_ctx_;
  return (c != nullptr && c->eng == this) ? c : nullptr;
}

int Engine::current_target_lane() const {
  const ExecCtx* c = ctx();
  if (c != nullptr) return c->ambient;
  if (driver_ambient_ != kNoLane) return driver_ambient_;
  return shared_lane();
}

void Engine::lane_push(Lane& ln, Time t, EventFn fn, std::uint64_t scalar,
                       const KeyNode* key, CancelSlot* slot, std::uint32_t gen) {
  ln.heap.push_back(Ev{t, scalar, key, std::move(fn), slot, gen});
  std::push_heap(ln.heap.begin(), ln.heap.end(), EvLater{});
}

void Engine::sharded_at(int lane, Time t, EventFn fn, CancelSlot* slot,
                        std::uint32_t gen) {
  TTG_CHECK(lane >= 0 && lane < static_cast<int>(lanes_.size()),
            "event scheduled on an invalid lane");
  ExecCtx* c = ctx();
  if (c == nullptr) {
    // Driver context (no epoch running): insert directly, keyed by the next
    // scalar — driver pushes are serial, so call order IS serial order.
    TTG_CHECK(t >= global_now_, "event scheduled in the past");
    lane_push(lanes_[static_cast<std::size_t>(lane)], t, std::move(fn),
              next_scalar_++, nullptr, slot, gen);
    return;
  }
  TTG_CHECK(t >= c->now, "event scheduled in the past");
  const std::uint64_t idx = c->next_idx;
  c->next_idx += c->idx_step;
  const int home = c->barrier ? shared_lane() : c->lane;
  if (lane == home && t < window_[static_cast<std::size_t>(home)]) {
    // Same-lane, inside the window: straight into our own heap under a
    // composite key; the ongoing drain will reach it in correct order.
    Lane& ln = lanes_[static_cast<std::size_t>(home)];
    lane_push(ln, t, std::move(fn), 0, ln.arena.make(c->now, c->pkey, c->pscalar, idx),
              slot, gen);
    return;
  }
  if (lane != home) {
    // Lane safety: a cross-lane event must land at or beyond the
    // *destination* lane's window. The network guarantees this (every
    // cross-rank delivery pays at least the minimum link latency, and a
    // lane's window never extends past another lane's next event plus that
    // latency); anything else is a lane-safety bug.
    TTG_CHECK(t >= window_[static_cast<std::size_t>(lane)],
              "cross-lane event inside the lookahead window");
  }
  if (!c->barrier && c->lane == extended_lane_) {
    // Extended-epoch cut maintenance: this push escapes the epoch, so the
    // epoch boundary moves down to the event's own time — the serial engine
    // would run it before anything later, and nothing already executed is
    // past it (every executed event precedes the pusher's now; the
    // one-ULP floor keeps the boundary strictly ahead of the pusher).
    Time& w = window_[static_cast<std::size_t>(c->lane)];
    Time s = t < w ? t : w;
    const Time floor =
        std::nextafter(c->now, std::numeric_limits<Time>::infinity());
    w = s < floor ? floor : s;
  }
  // Buffered until the barrier, where it is renumbered in serial push order.
  Deferred d;
  d.ptime = c->now;
  d.pscalar = c->pscalar;
  d.pkey = c->pkey;
  d.idx = idx;
  d.lane = lane;
  d.time = t;
  d.fn = std::move(fn);
  d.slot = slot;
  d.gen = gen;
  d.txn = false;
  if (c->barrier)
    barrier_deferred_.push_back(std::move(d));
  else
    lanes_[static_cast<std::size_t>(c->lane)].deferred.push_back(std::move(d));
}

void Engine::shared(EventFn fn) {
  if (!sharded_) {
    fn();  // serial engine: a plain inline call — zero behavioral change
    return;
  }
  ExecCtx* c = ctx();
  if (c == nullptr || c->barrier) {
    fn();  // driver context / already replaying at the barrier: serial now
    return;
  }
  // Mid-epoch on a lane: defer the whole transaction. It replays at the
  // barrier in serial (time, key) order with the clock rewound to our now,
  // and its pushes interleave into our child-index space at this slot.
  if (c->lane == extended_lane_) {
    // The transaction replays at this epoch's barrier and may push events at
    // now + lookahead or later (the cross-lane delivery contract); cap the
    // extended window there so those pushes stay at or beyond the cut.
    Time& w = window_[static_cast<std::size_t>(c->lane)];
    const Time lim = c->now + lookahead_;
    Time s = lim < w ? lim : w;
    const Time floor =
        std::nextafter(c->now, std::numeric_limits<Time>::infinity());
    w = s < floor ? floor : s;
  }
  Deferred d;
  d.ptime = c->now;
  d.pscalar = c->pscalar;
  d.pkey = c->pkey;
  d.idx = c->next_idx;
  c->next_idx += c->idx_step;
  d.lane = shared_lane();
  d.time = c->now;
  d.fn = std::move(fn);
  d.txn = true;
  lanes_[static_cast<std::size_t>(c->lane)].deferred.push_back(std::move(d));
}

void Engine::drain_lane(int lane_idx) {
  Lane& ln = lanes_[static_cast<std::size_t>(lane_idx)];
  const std::size_t li = static_cast<std::size_t>(lane_idx);
  // Claim the lane's closure arena: this thread is its exclusive driver for
  // the drain, so same-lane frees (timers firing, cancel-skip destruction)
  // recycle through the plain local list without an atomic.
  FnArena::OwnerScope arena_own(ln.fn_arena);
  ExecCtx c;
  c.eng = this;
  c.lane = lane_idx;
  ExecCtx* prev = tls_ctx_;
  tls_ctx_ = &c;
  // The window is re-read every pop: in an extended epoch this lane's own
  // pushes shrink it mid-drain (see sharded_at), and the loop must stop at
  // the final cut. Only this lane's thread ever writes its entry.
  while (!ln.heap.empty() && ln.heap.front().time < window_[li]) {
    std::pop_heap(ln.heap.begin(), ln.heap.end(), EvLater{});
    Ev ev = std::move(ln.heap.back());
    ln.heap.pop_back();
    if (ev.slot != nullptr) {
      const bool skip = ev.slot->cancelled;
      ev.slot->gen += 1;
      ev.slot->cancelled = false;
      ln.free_slots.push_back(ev.slot);
      if (skip) continue;
    }
    ln.now = ev.time;
    ++ln.processed;
    c.now = ev.time;
    c.pscalar = ev.scalar;
    c.pkey = ev.key;
    c.next_idx = 0;
    c.idx_step = kIdxStep;
    c.ambient = lane_idx;
    c.barrier = false;
    ev.fn();
  }
  tls_ctx_ = prev;
  if (lane_idx == extended_lane_) {
    // A mid-drain shrink can strand events pushed in-window earlier in the
    // epoch (composite keys) above the final cut. They have not executed, so
    // they must be renumbered with every other escaped push: convert them
    // back to deferred records — their composite key IS the push-order key —
    // and drop them from the heap. Pre-existing scalar-keyed events are
    // ordinary next-epoch work and stay put.
    auto is_scalar = [](const Ev& e) { return e.key == nullptr; };
    auto mid = std::partition(ln.heap.begin(), ln.heap.end(), is_scalar);
    if (mid != ln.heap.end()) {
      for (auto it = mid; it != ln.heap.end(); ++it) {
        Deferred d;
        d.ptime = it->key->ptime;
        d.pscalar = it->key->pscalar;
        d.pkey = it->key->pkey;
        d.idx = it->key->idx;
        d.lane = lane_idx;
        d.time = it->time;
        d.fn = std::move(it->fn);
        d.slot = it->slot;
        d.gen = it->gen;
        ln.deferred.push_back(std::move(d));
      }
      ln.heap.erase(mid, ln.heap.end());
      std::make_heap(ln.heap.begin(), ln.heap.end(), EvLater{});
    }
  }
  // The lane's deferred vector was appended in pop order — events execute in
  // (time, key) order and child indices grow within a parent — which IS
  // deferred_less order, so the barrier can k-way merge the per-lane vectors
  // instead of sorting the union. Verify the invariant (one linear pass per
  // drain, done in parallel here rather than serially at the barrier) and
  // fall back to a real sort if a future push path ever breaks it.
  if (!std::is_sorted(ln.deferred.begin(), ln.deferred.end(), deferred_less))
    std::sort(ln.deferred.begin(), ln.deferred.end(),
              [](const Deferred& a, const Deferred& b) { return deferred_less(a, b); });
}

void Engine::redistribute_lane(int lane_idx) {
  Lane& ln = lanes_[static_cast<std::size_t>(lane_idx)];
  for (Deferred* d : redist_[static_cast<std::size_t>(lane_idx)])
    lane_push(ln, d->time, std::move(d->fn), d->scalar, nullptr, d->slot, d->gen);
}

void Engine::run_pool_phase(int phase, int count) {
  work_cursor_.store(0, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lk(pool_mu_);
  pool_phase_ = phase;
  pool_count_ = count;
  ++phase_gen_;
  pool_active_ = static_cast<int>(workers_.size());
  pool_cv_.notify_all();
  pool_done_cv_.wait(lk, [&] { return pool_active_ == 0; });
}

void Engine::run_epoch_lanes() {
  const int nl = lanes();
  if (workers_.empty()) {
    for (int i = 0; i < nl; ++i) drain_lane(i);
    return;
  }
  run_pool_phase(kPhaseDrain, nl);
}

void Engine::start_workers() {
  const int n = std::min(threads_, lanes());
  workers_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers_.emplace_back([this] {
      std::uint64_t seen = 0;
      for (;;) {
        std::unique_lock<std::mutex> lk(pool_mu_);
        pool_cv_.wait(lk, [&] { return pool_shutdown_ || phase_gen_ != seen; });
        if (pool_shutdown_) return;
        seen = phase_gen_;
        const int phase = pool_phase_;
        const int count = pool_count_;
        lk.unlock();
        // Claim work items off the shared cursor: each lane's heap, arenas,
        // slot pool and deferred list (drain phase), or destination bucket
        // (redistribute phase), are touched by exactly one thread per
        // phase, and the pool mutex orders phases against each other.
        for (;;) {
          const int i = work_cursor_.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) break;
          if (phase == kPhaseDrain)
            drain_lane(i);
          else
            redistribute_lane(i);
        }
        lk.lock();
        if (--pool_active_ == 0) pool_done_cv_.notify_all();
      }
    });
  }
}

void Engine::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_shutdown_ = true;
    pool_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void Engine::merge_deferred() {
  // K-way merge of the per-lane deferred vectors (each already in
  // deferred_less order — see drain_lane) into one pointer sequence. The
  // ~100-byte records never move; O(N log lanes) comparisons instead of the
  // former O(N log N) central sort.
  merged_.clear();
  auto& cur = merge_cursors_;
  cur.clear();
  std::size_t total = 0;
  for (int i = 0; i < lanes(); ++i) {
    auto& d = lanes_[static_cast<std::size_t>(i)].deferred;
    if (!d.empty()) {
      cur.emplace_back(d.data(), d.data() + d.size());
      total += d.size();
    }
  }
  if (cur.empty()) return;
  merged_.reserve(total);
  // deferred_less is a total order with no ties (child indices are unique
  // within a parent, keys unique across parents), so the merge is
  // deterministic regardless of lane enumeration order.
  const auto later = [](const std::pair<Deferred*, Deferred*>& a,
                        const std::pair<Deferred*, Deferred*>& b) {
    return deferred_less(*b.first, *a.first);
  };
  std::make_heap(cur.begin(), cur.end(), later);
  while (!cur.empty()) {
    std::pop_heap(cur.begin(), cur.end(), later);
    auto& c = cur.back();
    merged_.push_back(c.first++);
    if (c.first == c.second)
      cur.pop_back();
    else
      std::push_heap(cur.begin(), cur.end(), later);
  }
}

void Engine::barrier() {
  const auto bt0 = std::chrono::steady_clock::now();
  Lane& sh = lanes_[static_cast<std::size_t>(shared_lane())];

  // 1. Merge every push and transaction deferred during the lane drains
  // into serial push order (pre-sorted per lane; a k-way merge of
  // pointers).
  merge_deferred();

  // 2. Replay: merge the shared lane's due events with the deferred shared
  // transactions in serial (time, key) order, rewinding the virtual clock to
  // each item's serial timestamp. Shared FIFO resources and fault ordinal
  // counters therefore observe exactly the serial sequence of requests.
  //
  // The replay drains shared-heap events past the shared window whenever
  // they precede a pending transaction in serial order (in an extended
  // epoch the transactions' parent times can lie beyond it). Sound: such an
  // event executes at v >= the shared lane's epoch top, and its own pushes
  // pay the full lookahead from v.
  const Time wsh = window_[static_cast<std::size_t>(shared_lane())];
  // The workers are parked between phases, so the barrier thread is the
  // shared lane's exclusive driver: claim its arena for local-list frees.
  FnArena::OwnerScope arena_own(sh.fn_arena);
  ExecCtx c;
  c.eng = this;
  c.lane = shared_lane();
  c.barrier = true;
  ExecCtx* prev = tls_ctx_;
  tls_ctx_ = &c;
  std::size_t ti = 0;  // cursor over merged_, parked on the next transaction
  for (;;) {
    while (ti < merged_.size() && !merged_[ti]->txn) ++ti;
    const bool txn_ready = ti < merged_.size();
    bool take_event;
    if (!sh.heap.empty()) {
      if (txn_ready) {
        // A transaction's serial position is its parent's execution
        // position.
        const Ev& e = sh.heap.front();
        const Deferred& d = *merged_[ti];
        take_event = (e.time != d.ptime)
                         ? e.time < d.ptime
                         : key_less(e.scalar, e.key, d.pscalar, d.pkey);
      } else {
        if (!(sh.heap.front().time < wsh)) break;
        take_event = true;
      }
    } else {
      if (!txn_ready) break;
      take_event = false;
    }
    if (take_event) {
      std::pop_heap(sh.heap.begin(), sh.heap.end(), EvLater{});
      Ev ev = std::move(sh.heap.back());
      sh.heap.pop_back();
      if (ev.slot != nullptr) {
        const bool skip = ev.slot->cancelled;
        ev.slot->gen += 1;
        ev.slot->cancelled = false;
        sh.free_slots.push_back(ev.slot);
        if (skip) continue;
      }
      sh.now = ev.time;
      ++sh.processed;
      c.now = ev.time;
      c.pscalar = ev.scalar;
      c.pkey = ev.key;
      c.next_idx = 0;
      c.idx_step = kIdxStep;
      c.ambient = shared_lane();
      ev.fn();
    } else {
      Deferred& d = *merged_[ti];
      ++ti;
      ++deferred_txns_;
      c.now = d.ptime;
      c.pscalar = d.pscalar;
      c.pkey = d.pkey;
      // The transaction body ran inline inside its parent in the serial
      // engine: its pushes take unit-stride indices at the transaction's own
      // child slot, landing between the parent's surrounding children.
      c.next_idx = d.idx;
      c.idx_step = 1;
      c.ambient = shared_lane();
      EventFn fn = std::move(d.fn);
      fn();
    }
  }
  tls_ctx_ = prev;

  // 3. Renumber: every surviving deferred push — cross-lane, same-lane
  // beyond the window, or made during replay — gets the next scalar key in
  // serial push order. Replay executed in serial order, so
  // barrier_deferred_ is already sorted: a two-pointer merge with the
  // merged lane events assigns scalars without re-sorting, bucketing each
  // record by destination lane.
  const std::size_t nl = lanes_.size();
  for (auto& bucket : redist_) bucket.clear();
  std::size_t ei = 0, bi = 0;
  for (;;) {
    while (ei < merged_.size() && merged_[ei]->txn) ++ei;
    const bool ev_ready = ei < merged_.size();
    const bool rp_ready = bi < barrier_deferred_.size();
    if (!ev_ready && !rp_ready) break;
    Deferred* d = (!rp_ready || (ev_ready && deferred_less(*merged_[ei],
                                                           barrier_deferred_[bi])))
                      ? merged_[ei++]
                      : &barrier_deferred_[bi++];
    d->scalar = next_scalar_++;
    redist_[static_cast<std::size_t>(d->lane)].push_back(d);
    ++deferred_events_;
  }

  // 4. Redistribute: the actual heap insertions — the expensive part of the
  // old serial barrier — run one destination lane per worker. Scalar keys
  // were assigned above, so insertion order within a lane cannot affect pop
  // order (the comparator is total on (time, scalar)).
  if (workers_.empty()) {
    for (int i = 0; i < static_cast<int>(nl); ++i) redistribute_lane(i);
  } else {
    run_pool_phase(kPhaseRedistribute, static_cast<int>(nl));
  }

  // 5. Epoch teardown. Composite KeyNode pointers were last read by the
  // renumber merge above, so the key arenas can rewind now. The deferred
  // vectors only hold moved-out shells at this point.
  for (int i = 0; i < lanes(); ++i)
    lanes_[static_cast<std::size_t>(i)].deferred.clear();
  barrier_deferred_.clear();
  for (Lane& ln : lanes_) ln.arena.reset();
  barrier_ns_ += ns_since(bt0);
}

Time Engine::compute_windows() {
  // Epoch start = earliest pending event anywhere. For the adaptive mode we
  // also need the second-smallest lane top, to detect the single-active-lane
  // regime (the only one where an extension is sound).
  const std::size_t n = lanes_.size();
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  Time min1 = kInf, min2 = kInf;
  std::size_t argmin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Time top = lanes_[i].heap.empty() ? kInf : lanes_[i].heap.front().time;
    if (top < min1) {
      min2 = min1;
      min1 = top;
      argmin = i;
    } else if (top < min2) {
      min2 = top;
    }
  }
  if (min1 == kInf) return kInf;  // no pending events: run is complete
  const Time start = min1;
  Time conservative = start + lookahead_;
  // Degenerate guard (t >> lookahead in double precision): drain at least
  // the events at exactly `start` so the loop always makes progress.
  if (!(conservative > start)) conservative = std::nextafter(start, kInf);
  for (std::size_t i = 0; i < n; ++i) window_[i] = conservative;
  // Adaptive extension, and why it is restricted to one pending lane:
  // with two active lanes, lane A draining past start + L can replay a
  // shared() transaction at the barrier before lane B has even executed an
  // earlier-time event that also issues one — shared FIFO resources and
  // fault ordinal streams would then observe requests out of serial order.
  // When exactly one regular lane holds every pending event (and the shared
  // heap is empty), the epoch IS a serial prefix: the lane may run ahead up
  // to the cap, and the dynamic shrink in sharded_at/shared() pulls the
  // boundary back to the first event that escapes it, keeping the epoch a
  // clean time cut of the serial execution.
  extended_lane_ = -1;
  if (adaptive_ && min2 == kInf &&
      argmin != static_cast<std::size_t>(shared_lane())) {
    const Time cap = start + window_cap_ * lookahead_;
    if (cap > conservative) {
      window_[argmin] = cap;
      extended_lane_ = static_cast<int>(argmin);
      ++adaptive_extensions_;
    }
  }
  return start;
}

Time Engine::sharded_run() {
  TTG_CHECK(!in_epoch_, "Engine::run is not reentrant");
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const Time start = compute_windows();
    if (start == std::numeric_limits<Time>::infinity()) break;
    in_epoch_ = true;
    run_epoch_lanes();
    barrier();
    in_epoch_ = false;
    ++epochs_;
  }
  Time end = global_now_;
  for (const Lane& ln : lanes_) end = std::max(end, ln.now);
  global_now_ = end;
  run_ns_ += ns_since(t0);
  return global_now_;
}

}  // namespace ttg::sim
