// Output terminals: sending and broadcasting (Section II-A of the paper).
//
// A task body receives a tuple of Out<Key, Value> terminals and pushes
// messages through them with ttg::send / ttg::broadcast. Routing rules:
//
//   * the destination rank of each (key, value) message is the *consumer's*
//     keymap applied to the key;
//   * local deliveries copy by default; moves and (on backends that own the
//     data, i.e. PaRSEC) const-reference sends are zero-copy;
//   * remote deliveries pick the best serialization protocol for Value:
//     split-metadata (metadata eager + one-sided payload fetch) when the
//     type and backend support it, otherwise whole-object serialization;
//   * every remote send walks a tree rooted at the sender, one hop per
//     message (collective::TreeShape). By default the tree is a star: one
//     point-to-point message per destination rank, carrying that rank's key
//     list — the optimized ttg::broadcast the paper introduced — or one per
//     key when the world was configured with optimized_broadcast = false
//     (the ablation / Chameleon profile);
//   * when the consumer backend's CollectivePolicy declares a tree arity
//     (PaRSEC), a coalesced broadcast reaching several remote ranks is
//     routed down a deterministic k-ary spanning tree instead: interior
//     ranks store-and-forward the pinned serialized DataCopy block to their
//     children (no deserialize/reserialize on interior hops) while
//     delivering locally, so the root injects O(arity) transfers instead of
//     O(R). With <= arity destinations the routed tree has the star's hops
//     and wire bytes bit-identically;
//   * tree layout is topology-aware: with ranks_per_node > 1 the members of
//     one node form a contiguous subtree under a single leader, so each
//     route crosses the network once per node (collective::build_tree);
//   * streaming inputs whose consumer combines contributions up a reduction
//     tree (stream_reduces_via_tree) are folded into the *sending* rank's
//     partial accumulator instead of being routed to the key's owner; the
//     consumer's reduce layer (ttg/tt.hpp) then relays one combined partial
//     per subtree toward the owner along the inverted spanning tree.
//
// Every remote TTG message — a tree hop, a stream-control AM, a reduction
// partial — runs through one lifecycle helper, detail::Message.
#pragma once

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/collective.hpp"
#include "runtime/datacopy.hpp"
#include "serialization/traits.hpp"
#include "ttg/edge.hpp"
#include "ttg/keys.hpp"

namespace ttg {

namespace detail {

/// Classify one payload-bearing tree hop as intra- or inter-node (machine
/// topology accounting shared by the broadcast and reduction planes).
inline void record_tree_hop(rt::World& w, int from, int dst) {
  auto& stats = w.comm().mutable_stats();
  if (w.topology().same_node(from, dst)) {
    stats.intra_node_hops += 1;
  } else {
    stats.inter_node_hops += 1;
  }
}

/// Protocol of a whole-object send of V: a split-metadata type that takes
/// the whole-object path (MADNESS, or a reduction partial) is costed as an
/// archive type.
template <typename V>
constexpr ser::Protocol whole_object_protocol() {
  return ser::protocol_for<V>() == ser::Protocol::SplitMetadata ? ser::Protocol::Archive
                                                                 : ser::protocol_for<V>();
}

/// The lifecycle of one remote TTG message. open() runs inside the
/// sender's body, so the producing task (or the message being delivered)
/// becomes the trace node's predecessor. inject() hands the message to the
/// comm layer after the sender's staging delay, under the sender's rank and
/// job. deliver() runs the receiving side at the destination under its
/// rank and the sender's job, with the message as the causality context, so
/// whatever the delivery completes links back to it.
struct Message {
  rt::World* world = nullptr;
  rt::Tracer* tracer = nullptr;  ///< null when tracing is off
  std::uint32_t node = rt::Tracer::kNoNode;
  rt::JobId job = rt::kDefaultJob;
  int src = 0;
  int dst = 0;

  /// Open a message of `bytes` wire bytes under `proto`. The trace node is
  /// named `edge` + `tag` (the tag marks control traffic); `staged` says the
  /// sender paid its protocol's staging copy.
  static Message open(rt::World& w, const std::string& edge, const char* tag, int src,
                      int dst, std::size_t bytes, ser::Protocol proto, bool staged) {
    Message m{&w, w.tracing() ? &w.tracer() : nullptr, rt::Tracer::kNoNode,
              w.current_job(), src, dst};
    if (m.tracer != nullptr) {
      auto& comm = w.comm();
      m.node = m.tracer->message_created(edge + tag, src, dst, bytes,
                                         proto == ser::Protocol::SplitMetadata);
      m.tracer->add_copies(src, staged ? comm.send_copies(proto) : 0);
      m.tracer->add_copies(dst, comm.recv_copies(proto));
    }
    return m;
  }

  /// After `lag` virtual seconds, under the sender's rank and job: stamp the
  /// send time and call `send(*this)`, which hands the message to the comm
  /// layer.
  template <typename Send>
  void inject(double lag, Send send) const {
    world->engine().after(lag, [m = *this, send = std::move(send)]() {
      m.world->run_as(m.src, m.job, [&]() {
        if (m.tracer != nullptr) m.tracer->message_sent(m.node, m.world->engine().now());
        send(m);
      });
    });
  }

  /// Run `body` as this message's delivery at the destination.
  template <typename Body>
  void deliver(Body&& body) const {
    world->run_as(dst, job, [&]() {
      if (tracer != nullptr) {
        tracer->message_delivered(node, world->engine().now());
        tracer->set_context(node);
      }
      body();
      if (tracer != nullptr) tracer->clear_context();
    });
  }
};

/// Send the 64-byte control AM that stream sizes, finalize and the
/// reduction-tree waves ride on: `action` runs at `to` as its delivery.
/// Control AMs ride the AM coalescer and ReliableLink like any other
/// message.
template <typename Action>
void send_control(rt::World& w, const std::string& edge, const char* tag, int from, int to,
                  Action action) {
  constexpr std::size_t kCtrlBytes = 64;
  auto& comm = w.comm();
  const double delay =
      w.scheduler(from).charge(comm.send_side_cpu(kCtrlBytes, ser::Protocol::Trivial));
  Message::open(w, edge, tag, from, to, kCtrlBytes, ser::Protocol::Trivial, /*staged=*/true)
      .inject(delay, [action = std::move(action)](const Message& m) {
        m.world->comm().send_message(m.src, m.dst, kCtrlBytes,
                                     [m, action]() { m.deliver(action); });
      });
}

}  // namespace detail

/// Output terminal attached to one edge; fans out to all of the edge's
/// registered input terminals.
template <typename Key, typename Value>
class Out {
 public:
  using key_type = Key;
  using value_type = Value;

  Out() = default;
  Out(rt::World* world, std::shared_ptr<detail::EdgeImpl<Key, Value>> edge)
      : world_(world), edge_(std::move(edge)) {}

  /// Send one message; the value is copied (mutable afterwards).
  void send(const Key& key, const Value& value) const {
    route(std::vector<Key>{key}, value, /*moved=*/false);
  }
  /// Send one message, surrendering the value (zero-copy path).
  void send(const Key& key, Value&& value) const {
    route(std::vector<Key>{key}, value, /*moved=*/true);
  }
  /// Pure-control send (Value == Void).
  void send(const Key& key) const
    requires std::same_as<Value, Void>
  {
    route(std::vector<Key>{key}, Void{}, /*moved=*/true);
  }

  /// Send the same value to several task IDs (Fig. 2b): the value crosses
  /// the wire once per destination rank, not once per key.
  void broadcast(const std::vector<Key>& keys, const Value& value) const {
    route(keys, value, /*moved=*/false);
  }
  void broadcast(const std::vector<Key>& keys, Value&& value) const {
    route(keys, value, /*moved=*/true);
  }

  /// Declare how many stream items task `key` expects on the connected
  /// streaming input terminals.
  void set_size(const Key& key, std::size_t n) const {
    control(key, [n](InTerminalBase<Key, Value>* sink, const Key& k) {
      sink->set_stream_size_local(k, n);
    });
  }

  /// Close the connected streaming terminals' stream for `key` at its
  /// current length.
  void finalize(const Key& key) const {
    control(key, [](InTerminalBase<Key, Value>* sink, const Key& k) {
      sink->finalize_stream_local(k);
    });
  }

  [[nodiscard]] bool connected() const { return edge_ && !edge_->sinks.empty(); }
  [[nodiscard]] std::size_t fanout() const { return edge_ ? edge_->sinks.size() : 0; }

 private:
  void route(const std::vector<Key>& keys, const Value& value, bool moved) const {
    if (keys.empty()) return;
    TTG_CHECK(world_ != nullptr, "send through a default-constructed terminal");
    TTG_CHECK(connected(), "send through an unconnected output terminal");
    auto& w = *world_;
    const int me = w.rank();
    auto& comm = w.comm();

    // The payload enters the data-lifecycle layer lazily: the first remote
    // destination wraps it in a refcounted DataCopy that every message of
    // this broadcast shares — one live allocation, one serialized form under
    // the serialize-once policy, regardless of the destination-rank count.
    // Purely local routing never allocates a handle.
    rt::DataCopy<Value> data;
    const Value* payload = &value;
    auto shared = [&]() -> const rt::DataCopy<Value>& {
      if (!data) {
        if (moved) {
          // The caller surrendered the value (rvalue send): move it into
          // the runtime-owned block instead of copying.
          data = rt::DataCopy<Value>(w.data_tracker(), comm, me,
                                     std::move(const_cast<Value&>(value)));
        } else {
          data = rt::DataCopy<Value>(w.data_tracker(), comm, me, value);
        }
        payload = &data.value();
      }
      return data;
    };

    // Physical copy always happens (each task owns private inputs); the
    // virtual cost depends on the backend's CopyPolicy.
    auto put_local = [&](InTerminalBase<Key, Value>* sink, const Key& k) {
      if (moved || comm.zero_copy_local()) {
        comm.mutable_stats().local_shares += 1;
      } else {
        comm.mutable_stats().local_copies += 1;
        w.scheduler(me).charge(w.machine().copy_time(rt::detail::payload_bytes(*payload)));
      }
      sink->put_local(k, *payload);
    };

    for (auto* sink : edge_->sinks) {
      if (sink->stream_reduces_via_tree()) {
        // Tree-reducing streaming sink: every contribution folds into the
        // *current* rank's partial accumulator (ttg/tt.hpp reduce layer);
        // nothing is routed to the key's owner here.
        for (const Key& k : keys) put_local(sink, k);
        continue;
      }
      std::vector<Key> local;
      std::map<int, std::vector<Key>> remote;  // ordered => deterministic
      for (const Key& k : keys) {
        const int dst = sink->owner(k);
        if (dst == me) {
          local.push_back(k);
        } else {
          remote[dst].push_back(k);
        }
      }
      for (const Key& k : local) put_local(sink, k);
      if (remote.empty()) continue;
      if constexpr (ser::is_splitmd_v<Value>) {
        if (comm.supports_splitmd()) {
          send_tree_splitmd(sink, me, remote, shared());
          continue;
        }
      }
      send_tree(sink, me, remote, shared());
    }
  }

  // ------------------------------------------------------------------
  // Remote sends: one tree per sink.
  //
  // Destinations sit at tree positions 1..M (position 0 = sender; see
  // collective::TreeShape). The shared TreeState pins the DataCopy block and
  // carries every member's serialized part, built once at the root; each
  // hop's wire payload is the value (buffer or one-sided fetch) plus the
  // parts of the receiver's whole subtree, so a leaf hop — every hop of a
  // star — carries exactly the bytes of one point-to-point message.
  // Interior ranks of a routed tree re-inject toward their children before
  // delivering locally; each hop is an ordinary payload send, so
  // ReliableLink acks/retransmits protect every edge.
  // ------------------------------------------------------------------

  /// Shared state of one remote send; every hop's closures hold it, so the
  /// DataCopy block lives until the last hop has landed.
  struct TreeState {
    rt::World* world = nullptr;
    InTerminalBase<Key, Value>* sink = nullptr;
    rt::collective::TreeShape shape;  ///< position 0 = sender
    bool routed = false;              ///< a routed tree; a star counts no hops
    /// Position p -> parts[p - 1]: the member's archived key list
    /// (whole-object) or (metadata, key list) pair (split-metadata).
    std::vector<std::shared_ptr<const std::vector<std::byte>>> parts;
    rt::DataCopy<Value> data;
    std::shared_ptr<const std::vector<std::byte>> vbuf;  ///< whole-object: the value
    std::size_t payload_bytes = 0;  ///< split-metadata: the one-sided payload
  };

  /// Lay out one remote send from `src`: the routed spanning tree when
  /// a coalesced send reaches several ranks on a routing backend, else a
  /// star with one member per destination rank (one per key when not
  /// coalescing), in rank then key order. `part(ar, keys)` archives one
  /// member's part.
  template <typename Part>
  std::shared_ptr<TreeState> lay_out(InTerminalBase<Key, Value>* sink, int src,
                                     const std::map<int, std::vector<Key>>& remote,
                                     const rt::DataCopy<Value>& data, Part part) const {
    auto& w = *world_;
    const auto& policy = w.comm().collective();
    const bool coalesce = w.config().optimized_broadcast;
    auto st = std::make_shared<TreeState>();
    st->world = world_;
    st->sink = sink;
    st->data = data;
    auto add = [&](const std::vector<Key>& ks) {
      ser::OutputArchive ar;
      part(ar, ks);
      st->parts.push_back(std::make_shared<const std::vector<std::byte>>(ar.release()));
    };
    std::vector<int> ranks;
    ranks.reserve(remote.size());
    if (coalesce && policy.tree_arity >= 2 && remote.size() >= 2) {
      // Adaptive (opt-in) arity: the root knows the fan and the payload
      // size, and the shape ships with the broadcast, so a dynamic hint is
      // safe here (reductions must use a static hint — see TT::reduce_arity).
      const int arity = rt::collective::pick_arity(
          policy, /*reduce=*/false, static_cast<int>(remote.size()), data.bytes());
      for (const auto& [dst, ks] : remote) ranks.push_back(dst);
      st->shape = rt::collective::build_tree(src, std::move(ranks), arity, w.topology());
      st->routed = true;
      for (std::size_t p = 1; p < st->shape.ranks.size(); ++p)
        add(remote.at(st->shape.ranks[p]));
      return st;
    }
    for (const auto& [dst, ks] : remote) {
      if (coalesce) {
        ranks.push_back(dst);
        add(ks);
        continue;
      }
      for (const Key& k : ks) {
        ranks.push_back(dst);
        add({k});
      }
    }
    st->shape = rt::collective::star(src, std::move(ranks));
    return st;
  }

  /// (Bytes of the member parts in the subtree at `pos`, routing-header
  /// bytes for each member beyond the receiver itself.) A leaf hop carries
  /// its own part and no routing.
  static std::pair<std::size_t, std::size_t> subtree_parts(const TreeState& st, int pos) {
    const auto part = [&](int q) { return st.parts[static_cast<std::size_t>(q) - 1]->size(); };
    if (st.shape.children[static_cast<std::size_t>(pos)].empty()) return {part(pos), 0};
    std::size_t bytes = 0;
    std::size_t members = 0;
    for (int q : rt::collective::shape_subtree(st.shape, pos)) {
      bytes += part(q);
      ++members;
    }
    return {bytes, (members - 1) * rt::kTreeHopHeaderBytes};
  }

  /// Deliver `v` to `keys` on the current rank: a copy per key but the
  /// last, which takes the value.
  static void put_keys(InTerminalBase<Key, Value>& sink, const std::vector<Key>& keys,
                       Value&& v) {
    for (std::size_t i = 0; i + 1 < keys.size(); ++i) sink.put_local(keys[i], v);
    sink.put_local_move(keys.back(), std::move(v));
  }

  static constexpr ser::Protocol kWholeObject = detail::whole_object_protocol<Value>();

  /// Wire bytes of the whole-object hop delivering subtree `pos`: the value
  /// buffer plus the subtree's key lists, and its routing headers.
  static std::size_t tree_wire_bytes(const TreeState& st, int pos) {
    const auto [bytes, routing] = subtree_parts(st, pos);
    return ser::wire_size(st.data.value(), st.vbuf->size() + bytes) + routing;
  }

  /// Issue the whole-object hop that delivers subtree `pos` from rank
  /// `from`, `lag` virtual seconds from now. `staged`: the sender paid the
  /// staging copy (root cache misses only; forwards re-inject the cached
  /// buffer with no staging).
  static void tree_inject(const std::shared_ptr<const TreeState>& st, int from, int pos,
                          double lag, bool staged) {
    const int dst = st->shape.ranks[static_cast<std::size_t>(pos)];
    const std::size_t wire = tree_wire_bytes(*st, pos);
    if (st->routed) detail::record_tree_hop(*st->world, from, dst);
    detail::Message::open(*st->world, st->sink->consumer_name(), "", from, dst, wire,
                          kWholeObject, staged)
        .inject(lag, [st, pos, wire](const detail::Message& m) {
          // The pin keeps the DataCopy block (with its cached buffer) alive
          // across retransmissions; the block is released at final delivery.
          m.world->comm().send_payload(m.src, m.dst, wire, st->data.pin(),
                                       [st, pos, m]() { tree_deliver(st, pos, m); });
        });
  }

  /// Delivery of the whole-object hop for position `pos`: forward the
  /// pinned block to the position's children first (store-and-forward — the
  /// cached buffer is re-injected as-is, paying only per-message injection
  /// CPU per child, pipelined), then deliver the member's keys locally.
  static void tree_deliver(const std::shared_ptr<const TreeState>& st, int pos,
                           const detail::Message& m) {
    ser::InputArchive ia(*st->vbuf);
    Value v{};
    ia& v;
    std::vector<Key> keys;
    ser::InputArchive ka(*st->parts[static_cast<std::size_t>(pos) - 1]);
    ka& keys;
    m.deliver([&]() {
      auto& comm = m.world->comm();
      double lag = 0.0;
      for (int c : st->shape.children[static_cast<std::size_t>(pos)]) {
        st->data.record_forward_hit();
        comm.mutable_stats().broadcast_forwards += 1;
        lag += comm.per_message_cpu();
        tree_inject(st, m.dst, c, lag, /*staged=*/false);
      }
      put_keys(*st->sink, keys, std::move(v));
    });
  }

  /// Whole-object send. The value buffer comes from the DataCopy's
  /// serialized cache — one archive pass per send under the serialize-once
  /// policy — and each member's key list is archived once, here. One
  /// serialized() call per root child keeps the per-destination cache
  /// accounting of point-to-point sends; a routed tree's remaining
  /// destinations are covered by record_forward_hit at its interior hops.
  void send_tree(InTerminalBase<Key, Value>* sink, int src,
                 const std::map<int, std::vector<Key>>& remote,
                 const rt::DataCopy<Value>& data) const {
    static_assert(std::is_default_constructible_v<Value>,
                  "remote TTG values must be default-constructible");
    auto& w = *world_;
    auto& comm = w.comm();
    auto st = lay_out(sink, src, remote, data,
                      [](ser::OutputArchive& ar, const std::vector<Key>& ks) { ar& ks; });
    for (int c : st->shape.children[0]) {
      bool cache_hit = false;
      auto vbuf = data.serialized(&cache_hit);
      if (!st->vbuf) st->vbuf = std::move(vbuf);
      // A cache hit skips the staging pass entirely: the sender pays only
      // the per-message AM injection CPU (the PaRSEC broadcast win). A miss
      // is charged the full send-side cost.
      const double cpu = cache_hit ? comm.per_message_cpu()
                                   : comm.send_side_cpu(tree_wire_bytes(*st, c), kWholeObject);
      tree_inject(st, src, c, w.scheduler(src).charge(cpu), /*staged=*/!cache_hit);
    }
  }

  /// Where a split-metadata hop lands: the object its metadata created and
  /// the keys it names.
  struct Landed {
    Value value;
    std::vector<Key> keys;
  };

  /// Issue the split-metadata hop for subtree `pos` from rank `from`;
  /// `srcv` is the object the child's one-sided get reads (the root's
  /// DataCopy value or the parent hop's landed object).
  static void smd_inject(const std::shared_ptr<const TreeState>& st, int from, int pos,
                         double lag, std::shared_ptr<const Value> srcv) {
    using SMD = ser::SplitMetadata<Value>;
    const int dst = st->shape.ranks[static_cast<std::size_t>(pos)];
    const auto [bytes, routing] = subtree_parts(*st, pos);
    const std::size_t md_bytes = bytes + routing;
    if (st->routed) detail::record_tree_hop(*st->world, from, dst);
    // Metadata + payload both count toward wire bytes; no staging or
    // unstaging copies are paid on the splitmd data plane.
    detail::Message::open(*st->world, st->sink->consumer_name(), "", from, dst,
                          md_bytes + st->payload_bytes, ser::Protocol::SplitMetadata,
                          /*staged=*/false)
        .inject(lag, [st, pos, md_bytes, srcv = std::move(srcv)](const detail::Message& m) {
          auto landed = std::make_shared<Landed>();
          m.world->comm().send_splitmd(
              m.src, m.dst, md_bytes, st->payload_bytes,
              /*on_metadata=*/
              [part = st->parts[static_cast<std::size_t>(pos) - 1], landed]() {
                ser::InputArchive ia(*part);
                typename SMD::metadata_type md{};
                ia& md;
                ia& landed->keys;
                landed->value = SMD::create(md);
              },
              /*on_payload=*/
              [st, pos, landed, srcv, m]() {
                const auto src_span = SMD::payload(*srcv);
                const auto dst_span = SMD::payload(landed->value);
                TTG_CHECK(src_span.size() == dst_span.size(), "splitmd payload size mismatch");
                if (!src_span.empty())
                  std::memcpy(dst_span.data(), src_span.data(), src_span.size());
                smd_deliver(st, pos, landed, m);
              },
              /*on_release=*/[srcv]() { /* dropping the share releases the source */ });
        });
  }

  /// Delivery of a split-metadata hop: forward to children first (they
  /// fetch the payload one-sidedly from this hop's landed object), then
  /// deliver locally. Interior hops copy on every local put — the landed
  /// object stays intact as the children's RMA source; leaves move the last
  /// key.
  static void smd_deliver(const std::shared_ptr<const TreeState>& st, int pos,
                          const std::shared_ptr<Landed>& landed, const detail::Message& m) {
    m.deliver([&]() {
      auto& comm = m.world->comm();
      const auto& children = st->shape.children[static_cast<std::size_t>(pos)];
      double lag = 0.0;
      for (int c : children) {
        comm.mutable_stats().broadcast_forwards += 1;
        lag += comm.per_message_cpu();
        smd_inject(st, m.dst, c, lag, std::shared_ptr<const Value>(landed, &landed->value));
      }
      if (children.empty()) {
        put_keys(*st->sink, landed->keys, std::move(landed->value));
      } else {
        for (const Key& k : landed->keys) st->sink->put_local(k, landed->value);
      }
    });
  }

  /// Split-metadata send. Each member's part is its (metadata, keys)
  /// archive; no serialization cache is involved, because splitmd never
  /// archives the payload.
  void send_tree_splitmd(InTerminalBase<Key, Value>* sink, int src,
                         const std::map<int, std::vector<Key>>& remote,
                         const rt::DataCopy<Value>& data) const {
    using SMD = ser::SplitMetadata<Value>;
    auto& w = *world_;
    auto md = SMD::get_metadata(data.value());
    auto st = lay_out(sink, src, remote, data,
                      [&md](ser::OutputArchive& ar, const std::vector<Key>& ks) {
                        ar& md;
                        ar& ks;
                      });
    st->payload_bytes = SMD::payload_bytes(data.value());
    // The root's children read the payload straight out of the pinned
    // DataCopy value (aliasing share: releasing it releases the state).
    std::shared_ptr<const Value> rootv(st, &st->data.value());
    for (int c : st->shape.children[0]) {
      const double cpu =
          w.comm().send_side_cpu(st->payload_bytes, ser::Protocol::SplitMetadata);
      smd_inject(st, src, c, w.scheduler(src).charge(cpu), rootv);
    }
  }

  /// Route a control action (stream size / finalize) to the owner of `key`
  /// on every sink. A remote arrival can complete a task, which then links
  /// back to the control message.
  template <typename Action>
  void control(const Key& key, Action action) const {
    TTG_CHECK(world_ != nullptr, "control through a default-constructed terminal");
    TTG_CHECK(connected(), "control through an unconnected output terminal");
    auto& w = *world_;
    const int me = w.rank();
    for (auto* sink : edge_->sinks) {
      const int dst = sink->owner(key);
      if (dst == me) {
        action(sink, key);
      } else {
        detail::send_control(w, sink->consumer_name(), "#ctrl", me, dst,
                             [sink, key, action]() { action(sink, key); });
      }
    }
  }

  rt::World* world_ = nullptr;
  std::shared_ptr<detail::EdgeImpl<Key, Value>> edge_;
};

}  // namespace ttg
