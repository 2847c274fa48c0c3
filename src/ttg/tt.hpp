// Template tasks (the TT in TTG) and make_tt.
//
// "Once every input terminal of a given template task has received one
// message with the same value of task ID, a task is created with the data
// parts of the corresponding messages." (Section II.) This header implements
// that matching logic, plus the features the paper added:
//
//   * priority maps (set_priomap) forwarded to the runtime scheduler;
//   * streaming terminals (set_input_reducer / stream sizes / finalize)
//     that accept a bounded or unbounded stream of messages reduced into a
//     single task input;
//   * user-defined process maps (set_keymap) deciding where each task runs;
//   * cost maps (set_costmap) — a simulator extension: the virtual compute
//     duration of a task, derived from kernel flop counts.
//
// A task body is any callable `fn(const Key&, InV&..., OutTuple&)`; inputs
// arrive as private, mutable values ("tasks mutating inputs receive private
// copies"), and the terminal tuple is used with ttg::send / ttg::broadcast.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ttg/keys.hpp"
#include "ttg/terminal.hpp"

namespace ttg {

template <typename Key, typename Fn, typename InTuple, typename OutTuple>
class TT;

/// Template task with inputs InV... keyed by Key, producing messages on
/// output terminals OutTerm... via callable Fn.
template <typename Key, typename Fn, typename... InV, typename... OutTerm>
class TT<Key, Fn, std::tuple<InV...>, std::tuple<OutTerm...>> final : public rt::TTBase {
 public:
  static constexpr std::size_t kNumIn = sizeof...(InV);
  static constexpr std::size_t kNumOut = sizeof...(OutTerm);
  using key_type = Key;
  using input_values = std::tuple<InV...>;
  using out_terminals = std::tuple<OutTerm...>;

  template <typename InEdges, typename OutEdges>
  TT(rt::World& world, Fn fn, const InEdges& ins, const OutEdges& outs, std::string name)
      : world_(world),
        fn_(std::move(fn)),
        name_(std::move(name)),
        records_(static_cast<std::size_t>(world.nranks())) {
    slots_ = make_slots(std::make_index_sequence<kNumIn>{});
    keymap_ = [n = world.nranks()](const Key& k) {
      return static_cast<int>(support::hash_value(k) % static_cast<std::uint64_t>(n));
    };
    stream_size_.fill(-1);
    init_reduce(std::make_index_sequence<kNumIn>{});
    connect_inputs(ins, std::make_index_sequence<kNumIn>{});
    connect_outputs(outs, std::make_index_sequence<kNumOut>{});
    world_.register_tt(this);
  }

  ~TT() override { world_.deregister_tt(this); }
  TT(const TT&) = delete;
  TT& operator=(const TT&) = delete;

  // --- configuration (call before injecting data) ---

  /// Process map: task ID -> owning rank.
  void set_keymap(std::function<int(const Key&)> f) {
    keymap_ = std::move(f);
    note_mutation();
  }
  /// Priority map: task ID -> scheduler priority (higher runs first).
  void set_priomap(std::function<int(const Key&)> f) {
    priomap_ = std::move(f);
    note_mutation();
  }
  /// Cost map: virtual compute seconds of a task given its key and inputs.
  void set_costmap(std::function<double(const Key&, const InV&...)> f) {
    costmap_ = std::move(f);
    note_mutation();
  }

  /// Device variant (mirrors TTG's op_cuda registration): declare that this
  /// TT's tasks can also run on a simulated GPU. The function maps a task to
  /// its DeviceCall — device-kernel seconds plus the datums (tag, bytes,
  /// read/write) the kernel touches, which drive staging and residency. The
  /// scheduler picks host vs device per task under the world's
  /// DevicePlacement policy; with placement Off the registration is inert
  /// and scheduling stays bit-identical to a TT without a device op.
  void set_device_op(std::function<rt::DeviceCall(const Key&, const InV&...)> f) {
    device_op_ = std::move(f);
    note_mutation();
  }
  [[nodiscard]] bool have_device_op() const { return device_op_ != nullptr; }

  /// Turn input terminal I into a streaming terminal: incoming messages are
  /// folded into the accumulated value with `reducer`; the task fires after
  /// `size` messages (size < 0: unbounded until set_size/finalize).
  template <std::size_t I>
  void set_input_reducer(
      std::function<void(std::tuple_element_t<I, input_values>&,
                         std::tuple_element_t<I, input_values>&&)>
          reducer,
      std::int64_t size = -1) {
    std::get<I>(reducers_) = std::move(reducer);
    is_stream_[I] = true;
    stream_size_[I] = size;
    note_mutation();
  }

  /// Change the static stream size of streaming terminal I.
  template <std::size_t I>
  void set_static_argstream_size(std::int64_t n) {
    TTG_REQUIRE(is_stream_[I], "terminal is not streaming");
    stream_size_[I] = n;
  }

  /// Declare, for one specific task ID, how many stream items terminal I
  /// expects (Listing 3: per-task stream sizes). Runs on the key's owner;
  /// call during graph setup or from a task on any rank.
  template <std::size_t I>
  void set_argstream_size(const Key& key, std::int64_t n) {
    world_.run_as(keymap(key), [&]() { set_stream_size<I>(key, n); });
  }

  // --- introspection ---

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::size_t pending_records() const override {
    std::size_t n = 0;
    for (const auto& m : records_) n += m.size();
    return n + reduce_pending(std::make_index_sequence<kNumIn>{});
  }
  [[nodiscard]] std::uint64_t tasks_executed() const override { return executed_; }
  /// Owner rank of task `key`: the keymap's value, checked to lie in
  /// [0, nranks). Every read of the keymap goes through here, so a bad
  /// value fails naming the TT, the key, the rank and the value instead of
  /// reaching the network with a rank that does not exist.
  [[nodiscard]] int keymap(const Key& key) const {
    const int r = keymap_(key);
    TTG_CHECK(r >= 0 && r < world_.nranks(),
              failure(key, "keymap returned rank " + std::to_string(r) + ", outside [0, " +
                               std::to_string(world_.nranks()) + ")"));
    return r;
  }
  [[nodiscard]] rt::World& world() const { return world_; }

  /// Access output terminal I (e.g. for manual injection in tests).
  template <std::size_t I>
  [[nodiscard]] auto& out() {
    return std::get<I>(outs_);
  }

  // --- data injection (the INITIATOR pattern) ---

  /// Create task `key` directly with the given input values, on its owner
  /// rank. Represents reading locally-available data into the graph.
  void invoke(const Key& key, InV... vals)
    requires(kNumIn > 0)
  {
    input_values tup(std::move(vals)...);
    inject(key, std::move(tup), std::make_index_sequence<kNumIn>{});
  }

  /// Create an input-less task `key` on its owner rank.
  void invoke(const Key& key)
    requires(kNumIn == 0)
  {
    world_.run_as(keymap(key), [&]() { create_task(key, input_values{}); });
  }

 private:
  // ---- input slots: the typed InTerminalBase implementations ----
  template <std::size_t I>
  class Slot final : public InTerminalBase<Key, std::tuple_element_t<I, input_values>> {
   public:
    using value_type = std::tuple_element_t<I, input_values>;
    explicit Slot(TT* tt = nullptr) : tt_(tt) {}
    [[nodiscard]] int owner(const Key& k) const override { return tt_->keymap(k); }
    void put_local(const Key& k, const value_type& v) override {
      // Each task owns private inputs: this is the one physical copy every
      // by-reference delivery pays, accounted in the data-lifecycle layer.
      tt_->world_.data_tracker().on_input_copy(tt_->world_.rank(),
                                               rt::detail::payload_bytes(v));
      value_type copy = v;
      tt_->template put<I>(k, std::move(copy));
    }
    void put_local_move(const Key& k, value_type&& v) override {
      tt_->template put<I>(k, std::move(v));
    }
    void set_stream_size_local(const Key& k, std::size_t n) override {
      tt_->template set_stream_size<I>(k, static_cast<std::int64_t>(n));
    }
    void finalize_stream_local(const Key& k) override {
      tt_->template finalize_stream<I>(k);
    }
    [[nodiscard]] bool stream_reduces_via_tree() const override {
      return tt_->template reduce_tree_active<I>();
    }
    [[nodiscard]] rt::World& world() const override { return tt_->world_; }
    [[nodiscard]] const std::string& consumer_name() const override { return tt_->name_; }

   private:
    TT* tt_;
  };

  template <std::size_t... Is>
  auto make_slots(std::index_sequence<Is...>) {
    return std::tuple<Slot<Is>...>(Slot<Is>(this)...);
  }

  template <typename InEdges, std::size_t... Is>
  void connect_inputs(const InEdges& ins, std::index_sequence<Is...>) {
    ((std::get<Is>(in_edges_) = std::get<Is>(ins).impl_ptr()), ...);
    (std::get<Is>(in_edges_)->sinks.push_back(&std::get<Is>(slots_)), ...);
  }

  template <typename OutEdges, std::size_t... Is>
  void connect_outputs(const OutEdges& outs, std::index_sequence<Is...>) {
    ((std::get<Is>(outs_) =
          std::tuple_element_t<Is, out_terminals>(&world_, std::get<Is>(outs).impl_ptr())),
     ...);
  }

  // ---- task record: inputs received so far for one task ID ----
  static constexpr std::size_t kSlots = kNumIn > 0 ? kNumIn : 1;
  struct Record {
    input_values vals{};
    std::array<std::int64_t, kSlots> received{};
    std::array<std::int64_t, kSlots> target{};
    std::bitset<kSlots> done;
  };

  /// Invariant-failure message naming this TT, the task key and the rank;
  /// TTG_CHECK builds it only when the check fails.
  [[nodiscard]] std::string failure(const Key& key, const std::string& what) const {
    return "TT '" + name_ + "', key " + key_to_string(key) + ", rank " +
           std::to_string(world_.rank()) + ": " + what;
  }

  Record& record(const Key& key) {
    auto& map = records_[static_cast<std::size_t>(world_.rank())];
    auto it = map.find(key);
    if (it == map.end()) {
      Record rec;
      for (std::size_t i = 0; i < kNumIn; ++i)
        rec.target[i] = is_stream_[i] ? stream_size_[i] : 1;
      it = map.emplace(key, std::move(rec)).first;
    }
    return it->second;
  }

  template <std::size_t I>
  void put(const Key& key, std::tuple_element_t<I, input_values>&& v) {
    static_assert(I < kNumIn);
    if (reduce_tree_active<I>()) {
      // Tree-reducing stream: fold into the *current* rank's partial (the
      // contribution may arrive on any rank — see Out::route); the combined
      // value reaches the owner's task record via stream_complete.
      reduce_put<I>(key, std::move(v));
      return;
    }
    Record& rec = record(key);
    TTG_CHECK(!rec.done[I], failure(key, "input terminal " + std::to_string(I) +
                                             " received a message for an already-satisfied "
                                             "task (duplicate input or stream overflow)"));
    if (is_stream_[I]) {
      if (rec.received[I] == 0) {
        std::get<I>(rec.vals) = std::move(v);
      } else {
        auto& reducer = std::get<I>(reducers_);
        reducer(std::get<I>(rec.vals), std::move(v));
      }
      ++rec.received[I];
      if (rec.target[I] >= 0 && rec.received[I] == rec.target[I]) {
        rec.done[I] = true;
        maybe_fire(key);
      } else {
        TTG_CHECK(rec.target[I] < 0 || rec.received[I] < rec.target[I],
                  failure(key, "stream overflow"));
      }
    } else {
      TTG_CHECK(rec.received[I] == 0,
                failure(key, "duplicate input on terminal " + std::to_string(I)));
      std::get<I>(rec.vals) = std::move(v);
      rec.received[I] = 1;
      rec.done[I] = true;
      maybe_fire(key);
    }
  }

  template <std::size_t I>
  void set_stream_size(const Key& key, std::int64_t n) {
    TTG_REQUIRE(is_stream_[I], "set_size on a non-streaming terminal of '" + name_ + "'");
    if (reduce_tree_active<I>()) {
      reduce_set_target<I>(key, n);
      return;
    }
    Record& rec = record(key);
    TTG_CHECK(!rec.done[I], failure(key, "stream size set after completion"));
    TTG_CHECK(rec.received[I] <= n, failure(key, "stream size " + std::to_string(n) +
                                                     " below already-received count " +
                                                     std::to_string(rec.received[I])));
    rec.target[I] = n;
    if (rec.received[I] == n) {
      rec.done[I] = true;
      maybe_fire(key);
    }
  }

  template <std::size_t I>
  void finalize_stream(const Key& key) {
    TTG_REQUIRE(is_stream_[I], "finalize on a non-streaming terminal of '" + name_ + "'");
    if (reduce_tree_active<I>()) {
      reduce_finalize<I>(key);
      return;
    }
    Record& rec = record(key);
    TTG_CHECK(!rec.done[I], failure(key, "stream finalized twice"));
    rec.target[I] = rec.received[I];
    rec.done[I] = true;
    maybe_fire(key);
  }

  // ------------------------------------------------------------------
  // Tree-routed streaming reductions (count-then-collect protocol).
  //
  // When the consumer backend declares a reduction arity (CollectivePolicy
  // ::reduce_arity, overridable per world) and the world is wide enough
  // ((nranks - 1) > arity), a streaming terminal stops routing every
  // contribution to the key's owner. Instead:
  //
  //   * contributions fold into the *contributing* rank's partial value
  //     (Out::route delivers them locally — see terminal.hpp);
  //   * all ranks form the inverted topology-aware k-ary tree rooted at
  //     the key's owner (collective::build_tree), and each rank eagerly
  //     relays its cumulative subtree contribution *count* to its parent
  //     (64-byte AMs, merged monotone-max so reordered or retransmitted
  //     relays are harmless);
  //   * when the owner's count view reaches the declared stream size the
  //     counts are provably final (the view is a lower bound on real
  //     contributions that reaches the target only once every relay chain
  //     has drained), and a Collect wave walks down the non-empty
  //     subtrees; finalize() instead sends a Close wave down *all* edges,
  //     whose replies carry the authoritative final counts;
  //   * each collected rank folds its local partial with its children's
  //     combined partials in a deterministic order (local value first,
  //     then children by ascending child slot — reproducible under
  //     arbitrary arrival order, including fault-induced retransmits) and
  //     sends ONE combined partial up: the owner receives O(arity)
  //     messages and reduce calls per key instead of O(nranks).
  //
  // Every hop is an ordinary payload/AM send through the comm engine, so
  // ReliableLink acks/retransmits protect reduction traffic exactly like
  // broadcasts, and partials live in leak-checked DataCopy blocks.
  // ------------------------------------------------------------------

  /// Per-(rank, key) state of one reduction subtree.
  template <typename V>
  struct ReduceRec {
    V value{};  ///< this subtree's combined partial (valid when has_value)
    bool has_value = false;
    std::int64_t local = 0;         ///< contributions folded on this rank
    std::int64_t reported_cum = 0;  ///< largest cum relayed to the parent
    std::int64_t target = -1;       ///< owner only: declared stream size
    std::vector<std::int64_t> child_cum;      ///< per child: counted view
    std::vector<std::optional<V>> child_val;  ///< buffered child partials
    std::vector<bool> replied;                ///< per child: wave reply seen
    bool closed = false;      ///< no further local contributions accepted
    bool collecting = false;  ///< sized Collect wave (vs finalize Close wave)
    bool done = false;        ///< tombstone: absorbs stale count relays
    int pending = 0;          ///< child replies still outstanding
  };

  /// Reduction tree over *all* ranks rooted at a key's owner, cached per
  /// (owner, arity) — a pure function of the world, shared by every key.
  struct ReduceShape {
    rt::collective::TreeShape shape;
    std::vector<int> pos_of_rank;  ///< rank -> tree position
  };

  /// Reduction arity for slot I. The adaptive hint must be rank-invariant
  /// (every rank derives the tree independently), so it is the static
  /// sizeof of the value type, never a measured payload size.
  template <std::size_t I>
  [[nodiscard]] int reduce_arity() const {
    using V = std::tuple_element_t<I, input_values>;
    return rt::collective::pick_arity(world_.comm().collective(), /*reduce=*/true,
                                      world_.nranks() - 1, sizeof(V));
  }

  /// Tree reduction runs for streaming slot I iff the backend declares an
  /// arity >= 2 and the world is wide enough that the tree differs from
  /// the flat fan-in; otherwise the historical flat path runs untouched
  /// (bit-identical degeneracy).
  template <std::size_t I>
  [[nodiscard]] bool reduce_tree_active() const {
    if (!is_stream_[I]) return false;
    const int arity = reduce_arity<I>();
    return arity >= 2 && (world_.nranks() - 1) > arity;
  }

  template <std::size_t I>
  const ReduceShape& reduce_shape(int owner) {
    const int arity = reduce_arity<I>();
    auto it = reduce_shapes_.find({owner, arity});
    if (it == reduce_shapes_.end()) {
      std::vector<int> members;
      members.reserve(static_cast<std::size_t>(world_.nranks() - 1));
      for (int r = 0; r < world_.nranks(); ++r)
        if (r != owner) members.push_back(r);
      ReduceShape rs;
      rs.shape = rt::collective::build_tree(owner, std::move(members), arity,
                                            world_.topology());
      rs.pos_of_rank.assign(static_cast<std::size_t>(world_.nranks()), -1);
      for (std::size_t p = 0; p < rs.shape.ranks.size(); ++p)
        rs.pos_of_rank[static_cast<std::size_t>(rs.shape.ranks[p])] =
            static_cast<int>(p);
      it = reduce_shapes_.emplace(std::make_pair(owner, arity), std::move(rs)).first;
    }
    return it->second;
  }

  /// The current rank's reduction record for `key` (created on demand with
  /// child bookkeeping sized from the tree shape).
  template <std::size_t I>
  auto& rrec(const Key& key, int owner, const ReduceShape& rs) {
    auto& map = std::get<I>(reduce_)[static_cast<std::size_t>(world_.rank())];
    auto it = map.find(key);
    if (it == map.end()) {
      ReduceRec<std::tuple_element_t<I, input_values>> rec;
      const int pos = rs.pos_of_rank[static_cast<std::size_t>(world_.rank())];
      const auto& ch = rs.shape.children[static_cast<std::size_t>(pos)];
      rec.child_cum.assign(ch.size(), 0);
      rec.child_val.resize(ch.size());
      rec.replied.assign(ch.size(), false);
      if (world_.rank() == owner) rec.target = stream_size_[I];
      it = map.emplace(key, std::move(rec)).first;
    }
    return it->second;
  }

  template <typename R>
  [[nodiscard]] static std::int64_t reduce_view(const R& rec) {
    std::int64_t s = rec.local;
    for (const std::int64_t c : rec.child_cum) s += c;
    return s;
  }

  [[nodiscard]] static int slot_in_parent(const ReduceShape& rs, int pos) {
    const int pp = rs.shape.parent[static_cast<std::size_t>(pos)];
    const auto& ch = rs.shape.children[static_cast<std::size_t>(pp)];
    for (std::size_t i = 0; i < ch.size(); ++i)
      if (ch[i] == pos) return static_cast<int>(i);
    TTG_CHECK(false, "tree position missing from its parent's child list");
    return -1;
  }

  /// A contribution (put) on the current rank for a tree-reduced stream.
  template <std::size_t I>
  void reduce_put(const Key& key, std::tuple_element_t<I, input_values>&& v) {
    const int me = world_.rank();
    const int owner = keymap(key);
    const ReduceShape& rs = reduce_shape<I>(owner);
    auto& rec = rrec<I>(key, owner, rs);
    TTG_CHECK(!rec.closed,
              failure(key, "stream overflow (contribution after the reduction closed)"));
    if (!rec.has_value) {
      rec.value = std::move(v);
      rec.has_value = true;
    } else {
      std::get<I>(reducers_)(rec.value, std::move(v));
    }
    ++rec.local;
    if (me == owner) {
      owner_progress<I>(key, rec, rs);
    } else {
      relay_count<I>(key, rec, rs);
    }
  }

  /// Eagerly relay this subtree's cumulative count to the parent whenever
  /// it grows. Cumulative + monotone-max merging makes duplicates and
  /// reordering (AM coalescing, retransmits) harmless.
  template <std::size_t I>
  void relay_count(const Key& key,
                   ReduceRec<std::tuple_element_t<I, input_values>>& rec,
                   const ReduceShape& rs) {
    if (rec.closed) return;  // a wave reply now carries the final count
    const std::int64_t cum = reduce_view(rec);
    if (cum <= rec.reported_cum) return;
    rec.reported_cum = cum;
    const int me = world_.rank();
    const int pos = rs.pos_of_rank[static_cast<std::size_t>(me)];
    const int parent = rs.shape.ranks[static_cast<std::size_t>(
        rs.shape.parent[static_cast<std::size_t>(pos)])];
    const int slot = slot_in_parent(rs, pos);
    reduce_ctrl(me, parent,
                [this, key, slot, cum]() { this->template on_count<I>(key, slot, cum); });
  }

  template <std::size_t I>
  void on_count(const Key& key, int slot, std::int64_t cum) {
    const int me = world_.rank();
    const int owner = keymap(key);
    const ReduceShape& rs = reduce_shape<I>(owner);
    auto& rec = rrec<I>(key, owner, rs);
    if (rec.closed) {
      // Stale or superseded relay racing the wave. Under a sized Collect
      // the recorded view is provably final, so a larger count means more
      // contributions than the stream declared.
      TTG_CHECK(!rec.collecting ||
                    cum <= rec.child_cum[static_cast<std::size_t>(slot)],
                failure(key, "stream overflow (count beyond declared size)"));
      return;
    }
    if (cum <= rec.child_cum[static_cast<std::size_t>(slot)]) return;  // stale
    rec.child_cum[static_cast<std::size_t>(slot)] = cum;
    if (me == owner) {
      owner_progress<I>(key, rec, rs);
    } else {
      relay_count<I>(key, rec, rs);
    }
  }

  /// Owner: launch the Collect wave the instant the count view reaches the
  /// declared size (at which point conservation proves the counts final).
  template <std::size_t I>
  void owner_progress(const Key& key,
                      ReduceRec<std::tuple_element_t<I, input_values>>& rec,
                      const ReduceShape& rs) {
    if (rec.closed || rec.target < 0) return;
    const std::int64_t total = reduce_view(rec);
    TTG_CHECK(total <= rec.target, failure(key, "stream overflow"));
    if (total < rec.target) return;
    rec.closed = true;
    rec.collecting = true;
    start_collect<I>(key, rec, rs);
  }

  template <std::size_t I>
  void start_collect(const Key& key,
                     ReduceRec<std::tuple_element_t<I, input_values>>& rec,
                     const ReduceShape& rs) {
    const int me = world_.rank();
    const int pos = rs.pos_of_rank[static_cast<std::size_t>(me)];
    const auto& ch = rs.shape.children[static_cast<std::size_t>(pos)];
    rec.pending = 0;
    for (std::size_t c = 0; c < ch.size(); ++c) {
      if (rec.child_cum[c] == 0) {
        rec.replied[c] = true;  // nothing to collect from an empty subtree
        continue;
      }
      ++rec.pending;
      const int child = rs.shape.ranks[static_cast<std::size_t>(ch[c])];
      reduce_ctrl(me, child, [this, key]() { this->template on_collect<I>(key); });
    }
    if (rec.pending == 0) finish_subtree<I>(key, rec, rs);
  }

  template <std::size_t I>
  void on_collect(const Key& key) {
    const int owner = keymap(key);
    const ReduceShape& rs = reduce_shape<I>(owner);
    auto& rec = rrec<I>(key, owner, rs);
    TTG_CHECK(!rec.closed, failure(key, "collect wave reached an already-closed subtree"));
    rec.closed = true;
    rec.collecting = true;
    start_collect<I>(key, rec, rs);
  }

  /// Owner: finalize() closes the stream at its current global length. The
  /// Close wave must visit *every* edge (counts may still be in flight);
  /// replies carry each subtree's authoritative final count.
  template <std::size_t I>
  void reduce_finalize(const Key& key) {
    const int owner = keymap(key);
    TTG_CHECK(world_.rank() == owner, failure(key, "finalize must run on the key's owner"));
    const ReduceShape& rs = reduce_shape<I>(owner);
    auto& rec = rrec<I>(key, owner, rs);
    TTG_CHECK(!rec.closed, failure(key, "stream finalized twice"));
    rec.closed = true;
    start_close<I>(key, rec, rs);
  }

  template <std::size_t I>
  void start_close(const Key& key,
                   ReduceRec<std::tuple_element_t<I, input_values>>& rec,
                   const ReduceShape& rs) {
    const int me = world_.rank();
    const int pos = rs.pos_of_rank[static_cast<std::size_t>(me)];
    const auto& ch = rs.shape.children[static_cast<std::size_t>(pos)];
    rec.pending = static_cast<int>(ch.size());
    for (const int cpos : ch) {
      const int child = rs.shape.ranks[static_cast<std::size_t>(cpos)];
      reduce_ctrl(me, child, [this, key]() { this->template on_close<I>(key); });
    }
    if (rec.pending == 0) finish_subtree<I>(key, rec, rs);
  }

  template <std::size_t I>
  void on_close(const Key& key) {
    const int owner = keymap(key);
    const ReduceShape& rs = reduce_shape<I>(owner);
    auto& rec = rrec<I>(key, owner, rs);
    TTG_CHECK(!rec.closed, failure(key, "close wave reached an already-closed subtree"));
    rec.closed = true;
    start_close<I>(key, rec, rs);
  }

  /// Owner: set_argstream_size for one key (runs on the owner).
  template <std::size_t I>
  void reduce_set_target(const Key& key, std::int64_t n) {
    const int owner = keymap(key);
    TTG_CHECK(world_.rank() == owner,
              failure(key, "stream size must be set on the key's owner"));
    const ReduceShape& rs = reduce_shape<I>(owner);
    auto& rec = rrec<I>(key, owner, rs);
    TTG_CHECK(!rec.closed, failure(key, "stream size set after completion"));
    rec.target = n;
    owner_progress<I>(key, rec, rs);
  }

  /// A child's combined partial landed here (Collect/Close reply).
  template <std::size_t I>
  void on_partial(const Key& key, int slot, std::int64_t cum,
                  std::tuple_element_t<I, input_values>&& v) {
    const int owner = keymap(key);
    const ReduceShape& rs = reduce_shape<I>(owner);
    auto& rec = rrec<I>(key, owner, rs);
    world_.comm().mutable_stats().reduce_combines += 1;
    TTG_CHECK(!rec.replied[static_cast<std::size_t>(slot)],
              failure(key, "duplicate combined partial from one subtree"));
    TTG_CHECK(cum >= rec.child_cum[static_cast<std::size_t>(slot)],
              failure(key, "final subtree count below the relayed view"));
    rec.child_cum[static_cast<std::size_t>(slot)] = cum;  // authoritative
    rec.child_val[static_cast<std::size_t>(slot)] = std::move(v);
    child_replied<I>(key, rec, rs, slot);
  }

  /// Close reply from a subtree that never saw a contribution.
  template <std::size_t I>
  void on_final_zero(const Key& key, int slot) {
    const int owner = keymap(key);
    const ReduceShape& rs = reduce_shape<I>(owner);
    auto& rec = rrec<I>(key, owner, rs);
    TTG_CHECK(!rec.replied[static_cast<std::size_t>(slot)],
              failure(key, "duplicate close reply"));
    TTG_CHECK(rec.child_cum[static_cast<std::size_t>(slot)] == 0,
              failure(key, "empty close reply from a subtree that relayed contributions"));
    child_replied<I>(key, rec, rs, slot);
  }

  template <std::size_t I>
  void child_replied(const Key& key,
                     ReduceRec<std::tuple_element_t<I, input_values>>& rec,
                     const ReduceShape& rs, int slot) {
    rec.replied[static_cast<std::size_t>(slot)] = true;
    TTG_CHECK(rec.pending > 0, failure(key, "reduction reply without an open wave"));
    if (--rec.pending == 0) finish_subtree<I>(key, rec, rs);
  }

  /// All expected children replied: fold deterministically and either
  /// complete the task record (owner) or send ONE combined partial up.
  template <std::size_t I>
  void finish_subtree(const Key& key,
                      ReduceRec<std::tuple_element_t<I, input_values>>& rec,
                      const ReduceShape& rs) {
    using V = std::tuple_element_t<I, input_values>;
    // Deterministic fold order: the local value first, then the children's
    // partials by ascending child slot — independent of arrival order, so
    // reruns (including fault-induced retransmits) are bit-identical.
    for (auto& cv : rec.child_val) {
      if (!cv) continue;
      if (!rec.has_value) {
        rec.value = std::move(*cv);
        rec.has_value = true;
      } else {
        std::get<I>(reducers_)(rec.value, std::move(*cv));
      }
      cv.reset();
    }
    const std::int64_t cum = reduce_view(rec);
    const int me = world_.rank();
    const int owner = keymap(key);
    rec.done = true;
    if (me == owner) {
      if (rec.collecting)
        TTG_CHECK(cum == rec.target, failure(key, "collected total != declared stream size"));
      V out = rec.has_value ? std::move(rec.value) : V{};
      rec.has_value = false;
      stream_complete<I>(key, std::move(out), cum);
      return;
    }
    const int pos = rs.pos_of_rank[static_cast<std::size_t>(me)];
    const int parent = rs.shape.ranks[static_cast<std::size_t>(
        rs.shape.parent[static_cast<std::size_t>(pos)])];
    const int slot = slot_in_parent(rs, pos);
    if (cum == 0) {
      reduce_ctrl(me, parent,
                  [this, key, slot]() { this->template on_final_zero<I>(key, slot); });
      return;
    }
    TTG_CHECK(rec.has_value, failure(key, "non-empty subtree without a combined value"));
    world_.comm().mutable_stats().reduce_forwards += 1;
    detail::record_tree_hop(world_, me, parent);
    V out = std::move(rec.value);
    rec.has_value = false;
    reduce_send_partial<I>(me, parent, key, slot, cum, std::move(out));
  }

  /// Owner: deliver the fully-combined value into the ordinary task record
  /// as if `total` flat contributions had arrived (then fire as usual).
  template <std::size_t I>
  void stream_complete(const Key& key, std::tuple_element_t<I, input_values>&& v,
                       std::int64_t total) {
    Record& rec = record(key);
    TTG_CHECK(!rec.done[I],
              failure(key, "reduced stream completed an already-satisfied input"));
    std::get<I>(rec.vals) = std::move(v);
    rec.received[I] = total;
    rec.target[I] = total;
    rec.done[I] = true;
    maybe_fire(key);
  }

  /// Reduction-control AM (Count/Collect/Close/FinalZero): the same
  /// 64-byte control message as Out::control's stream size and finalize.
  template <typename Action>
  void reduce_ctrl(int from, int to, Action action) {
    detail::send_control(world_, name_, "#rtree", from, to, std::move(action));
  }

  /// Ship one combined partial (value + {key, child slot, final count}) up
  /// the tree. The value lives in a leak-checked DataCopy pinned across
  /// retransmissions. Partials always take the whole-object archive path,
  /// never split-metadata: a combined partial is a *reducer output*, and a
  /// type's SplitMetadata describes single contributions only (e.g. MRA
  /// compress batches merge under reduction into shapes their RMA protocol
  /// cannot express).
  template <std::size_t I>
  void reduce_send_partial(int from, int to, const Key& key, int slot,
                           std::int64_t cum,
                           std::tuple_element_t<I, input_values>&& value) {
    using V = std::tuple_element_t<I, input_values>;
    static_assert(std::is_default_constructible_v<V>,
                  "remote TTG values must be default-constructible");
    constexpr ser::Protocol proto = detail::whole_object_protocol<V>();
    auto& w = world_;
    auto& comm = w.comm();
    rt::DataCopy<V> data(w.data_tracker(), comm, from, std::move(value));
    bool cache_hit = false;
    auto vbuf = data.serialized(&cache_hit);  // a fresh partial: always a miss
    ser::OutputArchive har;
    har& key;
    har& slot;
    har& cum;
    auto hbuf = std::make_shared<const std::vector<std::byte>>(har.release());
    const std::size_t wire = ser::wire_size(data.value(), vbuf->size() + hbuf->size());
    const double cpu =
        cache_hit ? comm.per_message_cpu() : comm.send_side_cpu(wire, proto);
    const double delay = w.scheduler(from).charge(cpu);
    detail::Message::open(w, name_, "#rtree", from, to, wire, proto, /*staged=*/!cache_hit)
        .inject(delay, [this, wire, vbuf, hbuf, data](const detail::Message& m) {
          m.world->comm().send_payload(m.src, m.dst, wire, data.pin(),
                                       [this, vbuf, hbuf, m]() {
            ser::InputArchive ia(*vbuf);
            V v{};
            ia& v;
            ser::InputArchive ha(*hbuf);
            Key k{};
            int slot2 = 0;
            std::int64_t cum2 = 0;
            ha& k;
            ha& slot2;
            ha& cum2;
            m.deliver([&]() { this->template on_partial<I>(k, slot2, cum2, std::move(v)); });
          });
        });
  }

  /// Live (non-tombstoned) reduction records, counted into pending_records
  /// so an incomplete reduction shows up as unfinished work after fence().
  template <std::size_t... Is>
  [[nodiscard]] std::size_t reduce_pending(std::index_sequence<Is...>) const {
    std::size_t n = 0;
    [[maybe_unused]] auto count = [&n](const auto& per_rank) {
      for (const auto& m : per_rank)
        for (const auto& kv : m) n += kv.second.done ? 0 : 1;
    };
    (count(std::get<Is>(reduce_)), ...);
    return n;
  }

  template <std::size_t... Is>
  void init_reduce(std::index_sequence<Is...>) {
    (std::get<Is>(reduce_).resize(static_cast<std::size_t>(world_.nranks())), ...);
  }

  void maybe_fire(const Key& key) {
    auto& map = records_[static_cast<std::size_t>(world_.rank())];
    auto it = map.find(key);
    TTG_CHECK(it != map.end(), failure(key, "record vanished"));
    if (it->second.done.count() != kNumIn) return;
    input_values vals = std::move(it->second.vals);
    map.erase(it);
    create_task(key, std::move(vals));
  }

  void create_task(const Key& key, input_values&& vals) {
    const int rank = world_.rank();
    // Capture the ambient job at record-completion time: every path that can
    // complete a record (injection, local put, remote delivery) runs inside
    // a job, so the task body re-enters the same job when it fires.
    const rt::JobId job = world_.current_job();
    const bool traced = world_.tracing();
    // With placement Off the device op is never consulted, so the Off path is
    // bit-identical to a TT without a device op.
    const bool on_device =
        device_op_ && world_.config().device != rt::DevicePlacement::Off;
    auto call_map = [&](const auto& map) {
      return std::apply([&](const auto&... v) { return map(key, v...); }, vals);
    };
    // Braced initializers run in order, so the cost and device maps read the
    // inputs before they move into the body closure.
    world_.scheduler(rank).submit(
        {.job = job,
         .priority = priomap_ ? priomap_(key) : 0,
         .cost = (costmap_ ? call_map(costmap_) : 0.0) + world_.comm().task_overhead(),
         .name = traced ? name_ : std::string(),
         .key = traced ? key_to_string(key) : std::string(),
         .device = on_device ? std::optional(call_map(device_op_)) : std::nullopt,
         .body = [this, rank, job, key, vals = std::move(vals)]() mutable {
           world_.run_as(rank, job, [&]() {
             ++executed_;
             call_body(key, vals);
           });
         }});
  }

  void call_body(const Key& key, input_values& vals) {
    if constexpr (kNumIn == 0) {
      fn_(key, outs_);
    } else {
      std::apply([&](auto&... v) { fn_(key, v..., outs_); }, vals);
    }
  }

  template <std::size_t... Is>
  void inject(const Key& key, input_values&& tup, std::index_sequence<Is...>) {
    world_.run_as(keymap(key), [&]() {
      (put<Is>(key, std::move(std::get<Is>(tup))), ...);
    });
  }

  // ---- state ----
  rt::World& world_;
  Fn fn_;
  std::string name_;
  std::function<int(const Key&)> keymap_;
  std::function<int(const Key&)> priomap_;
  std::function<double(const Key&, const InV&...)> costmap_;
  std::function<rt::DeviceCall(const Key&, const InV&...)> device_op_;
  std::vector<std::unordered_map<Key, Record, KeyHash<Key>>> records_;
  std::tuple<std::function<void(InV&, InV&&)>...> reducers_;
  // Tree-reduction state: per slot, per rank, per key. Tombstoned (done)
  // records are kept so stale count relays can be absorbed after the wave;
  // they are excluded from pending_records and hold no payload.
  template <typename V>
  using ReduceMap = std::unordered_map<Key, ReduceRec<V>, KeyHash<Key>>;
  std::tuple<std::vector<ReduceMap<InV>>...> reduce_;
  std::map<std::pair<int, int>, ReduceShape> reduce_shapes_;  ///< (owner, arity)
  std::array<bool, kSlots> is_stream_{};
  std::array<std::int64_t, kSlots> stream_size_{};
  std::tuple<std::shared_ptr<detail::EdgeImpl<Key, InV>>...> in_edges_;
  out_terminals outs_{};
  std::uint64_t executed_ = 0;

  template <std::size_t... Is>
  static auto slots_tuple_helper(std::index_sequence<Is...>) -> std::tuple<Slot<Is>...>;
  using slots_tuple = decltype(slots_tuple_helper(std::make_index_sequence<kNumIn>{}));
  slots_tuple slots_;

  template <std::size_t>
  friend class Slot;
};

/// Compose a template task from a callable and its input/output edges
/// (Listing 1 of the paper). Key is deduced from the input edges; for a
/// task template with no inputs pass the Key explicitly:
/// `make_tt<Int1>(world, fn, std::tuple<>{}, outs, "initiator")`.
template <typename Key, typename Fn, typename... InV, typename... OutK, typename... OutV>
auto make_tt(rt::World& world, Fn fn, const std::tuple<Edge<Key, InV>...>& ins,
             const std::tuple<Edge<OutK, OutV>...>& outs, std::string name = "tt") {
  using TTType = TT<Key, Fn, std::tuple<InV...>, std::tuple<Out<OutK, OutV>...>>;
  return std::make_unique<TTType>(world, std::move(fn), ins, outs, std::move(name));
}

/// Terminal consumer: calls `f(key, value)` for every message on `e`.
/// Convenience for RESULT-style nodes that write output data back.
template <typename Key, typename Value, typename F>
auto make_sink(rt::World& world, const Edge<Key, Value>& e, F f,
               std::string name = "sink") {
  auto fn = [f = std::move(f)](const Key& k, Value& v, std::tuple<>&) { f(k, v); };
  return make_tt(world, std::move(fn), edges(e), std::tuple<>{}, std::move(name));
}

}  // namespace ttg
