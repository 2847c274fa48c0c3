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
//   * broadcasts to several task IDs owned by the same remote rank are
//     coalesced into a single message carrying the key list (the optimized
//     ttg::broadcast the paper introduced) unless the world was configured
//     with optimized_broadcast = false (the ablation / Chameleon profile).
//   * when the consumer backend's CollectivePolicy declares a tree arity
//     (PaRSEC), a coalesced broadcast reaching several remote ranks is
//     routed down a deterministic k-ary spanning tree rooted at the sender:
//     interior ranks store-and-forward the pinned serialized DataCopy block
//     to their children (no deserialize/reserialize on interior hops) while
//     delivering locally, so the root injects O(arity) transfers instead of
//     O(R). With <= arity destinations the tree degenerates to the flat
//     pattern bit-identically.
//   * tree layout is topology-aware: with ranks_per_node > 1 the members of
//     one node form a contiguous subtree under a single leader, so each
//     route crosses the network once per node (collective::build_tree).
//   * streaming inputs whose consumer combines contributions up a reduction
//     tree (stream_reduces_via_tree) are folded into the *sending* rank's
//     partial accumulator instead of being routed to the key's owner; the
//     consumer's reduce layer (ttg/tt.hpp) then relays one combined partial
//     per subtree toward the owner along the inverted spanning tree.
#pragma once

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "runtime/collective.hpp"
#include "runtime/datacopy.hpp"
#include "serialization/traits.hpp"
#include "ttg/edge.hpp"
#include "ttg/keys.hpp"

namespace ttg {

namespace detail {
/// Local-copy charge estimate: the declared wire size when available
/// (Tile-like types), else the static size of the value.
template <typename V>
std::size_t local_copy_bytes(const V& v) {
  if constexpr (ser::detail::HasWireBytes<V>) {
    return v.wire_bytes();
  } else {
    return sizeof(V);
  }
}

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
    const bool coalesce = w.config().optimized_broadcast;

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

    for (auto* sink : edge_->sinks) {
      if (sink->stream_reduces_via_tree()) {
        // Tree-reducing streaming sink: every contribution folds into the
        // *current* rank's partial accumulator (ttg/tt.hpp reduce layer);
        // nothing is routed to the key's owner here. Cost accounting is
        // exactly the flat local-delivery path.
        for (const Key& k : keys) {
          if (moved || comm.zero_copy_local()) {
            comm.mutable_stats().local_shares += 1;
          } else {
            comm.mutable_stats().local_copies += 1;
            w.scheduler(me).charge(
                w.machine().copy_time(detail::local_copy_bytes(*payload)));
          }
          sink->put_local(k, *payload);
        }
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
      for (const Key& k : local) {
        // Physical copy always happens (each task owns private inputs);
        // the virtual cost depends on the backend's CopyPolicy.
        if (moved || comm.zero_copy_local()) {
          comm.mutable_stats().local_shares += 1;
        } else {
          comm.mutable_stats().local_copies += 1;
          w.scheduler(me).charge(
              w.machine().copy_time(detail::local_copy_bytes(*payload)));
        }
        sink->put_local(k, *payload);
      }
      if (coalesce && comm.collective().tree_arity >= 2 && remote.size() >= 2) {
        // Several remote ranks + a routing backend: ship down the spanning
        // tree. (A single remote rank is a plain point-to-point send.)
        send_tree(sink, me, remote, shared());
        continue;
      }
      for (auto& [dst, ks] : remote) {
        const rt::DataCopy<Value>& dc = shared();
        if (coalesce) {
          send_remote(sink, me, dst, ks, dc);
        } else {
          for (const Key& k : ks) send_remote(sink, me, dst, {k}, dc);
        }
      }
    }
  }

  void send_remote(InTerminalBase<Key, Value>* sink, int src, int dst,
                   const std::vector<Key>& ks, const rt::DataCopy<Value>& data) const {
    auto& w = *world_;
    auto& comm = w.comm();
    if constexpr (ser::is_splitmd_v<Value>) {
      if (comm.supports_splitmd()) {
        send_splitmd(sink, src, dst, ks, data);
        return;
      }
    }
    static_assert(std::is_default_constructible_v<Value>,
                  "remote TTG values must be default-constructible");
    // Whole-object path. The value buffer comes from the DataCopy's
    // serialized cache — one archive pass per broadcast under the
    // serialize-once policy — and only the piggybacked key list is
    // serialized per message. Concatenated, the two buffers carry exactly
    // the bytes of the old single-archive message.
    bool cache_hit = false;
    auto vbuf = data.serialized(&cache_hit);
    ser::OutputArchive kar;
    kar& ks;
    auto kbuf = std::make_shared<const std::vector<std::byte>>(kar.release());
    const std::size_t wire = ser::wire_size(data.value(), vbuf->size() + kbuf->size());
    // Downgrade the protocol label when splitmd exists but the backend
    // cannot use it (MADNESS): costs follow the whole-object path.
    constexpr ser::Protocol proto =
        ser::protocol_for<Value>() == ser::Protocol::SplitMetadata
            ? ser::Protocol::Archive
            : ser::protocol_for<Value>();
    // A cache hit skips the staging pass entirely: the sender pays only the
    // per-message AM injection CPU (the PaRSEC broadcast win). A miss is
    // charged the full send-side cost, exactly as before the cache existed.
    const double cpu =
        cache_hit ? comm.per_message_cpu() : comm.send_side_cpu(wire, proto);
    const double delay = w.scheduler(src).charge(cpu);
    // Trace the message while still inside the sender's body so the
    // producing task becomes the message node's predecessor.
    rt::Tracer* tr = w.tracing() ? &w.tracer() : nullptr;
    std::uint32_t msg = rt::Tracer::kNoNode;
    if (tr != nullptr) {
      msg = tr->message_created(sink->consumer_name(), src, dst, wire,
                                /*splitmd=*/false);
      tr->add_copies(src, cache_hit ? 0 : comm.send_copies(proto));
      tr->add_copies(dst, comm.recv_copies(proto));
    }
    rt::World* wp = world_;
    const rt::JobId job = w.current_job();
    w.engine().after(delay, [wp, &comm, job, src, dst, wire, vbuf, kbuf, data, sink,
                             tr, msg]() {
      wp->run_as_job(job, [&]() {
        if (tr != nullptr) tr->message_sent(msg, wp->engine().now());
        // The pin keeps the DataCopy block (with its cached buffer) alive
        // across retransmissions; the block is released at final delivery.
        comm.send_payload(src, dst, wire, data.pin(), [wp, job, dst, vbuf, kbuf,
                                                       sink, tr, msg]() {
          ser::InputArchive ia(*vbuf);
          Value v{};
          ia& v;
          std::vector<Key> keys;
          ser::InputArchive ka(*kbuf);
          ka& keys;
          wp->run_as_job(job, [&]() {
            wp->run_as(dst, [&]() {
              // Deliveries run under the message's causality context: tasks
              // completed by these puts become the message's successors.
              if (tr != nullptr) {
                tr->message_delivered(msg, wp->engine().now());
                tr->set_context(msg);
              }
              for (std::size_t i = 0; i + 1 < keys.size(); ++i)
                sink->put_local(keys[i], v);
              sink->put_local_move(keys.back(), std::move(v));
              if (tr != nullptr) tr->clear_context();
            });
          });
        });
      });
    });
  }

  void send_splitmd(InTerminalBase<Key, Value>* sink, int src, int dst,
                    const std::vector<Key>& ks, const rt::DataCopy<Value>& data) const {
    using SMD = ser::SplitMetadata<Value>;
    auto& w = *world_;
    auto& comm = w.comm();
    ser::OutputArchive ar;
    auto md = SMD::get_metadata(data.value());
    ar& md;
    ar& ks;
    auto mdbuf = std::make_shared<std::vector<std::byte>>(ar.release());
    const std::size_t payload_bytes = SMD::payload_bytes(data.value());
    // The runtime keeps the source object registered/alive until the remote
    // completion notification. The refcounted DataCopy models that: every
    // destination of a broadcast shares the one runtime-owned block (the
    // old code paid a full per-destination Value copy here).
    auto obj = std::make_shared<Value>();
    auto keys_out = std::make_shared<std::vector<Key>>();
    const double cpu = comm.send_side_cpu(payload_bytes, ser::Protocol::SplitMetadata);
    const double delay = w.scheduler(src).charge(cpu);
    rt::Tracer* tr = w.tracing() ? &w.tracer() : nullptr;
    std::uint32_t msg = rt::Tracer::kNoNode;
    if (tr != nullptr) {
      // Metadata + payload both count toward wire bytes; no staging or
      // unstaging copies are paid on the splitmd data plane.
      msg = tr->message_created(sink->consumer_name(), src, dst,
                                mdbuf->size() + payload_bytes, /*splitmd=*/true);
    }
    rt::World* wp = world_;
    const rt::JobId job = w.current_job();
    w.engine().after(delay, [wp, &comm, job, src, dst, mdbuf, payload_bytes, data,
                             obj, keys_out, sink, tr, msg]() {
      wp->run_as_job(job, [&]() {
        if (tr != nullptr) tr->message_sent(msg, wp->engine().now());
        comm.send_splitmd(
            src, dst, mdbuf->size(), payload_bytes,
            /*on_metadata=*/
            [mdbuf, obj, keys_out]() {
              ser::InputArchive ia(*mdbuf);
              typename SMD::metadata_type m{};
              ia& m;
              ia&* keys_out;
              *obj = SMD::create(m);
            },
            /*on_payload=*/
            [wp, job, dst, data, obj, keys_out, sink, tr, msg]() {
              const auto src_span = SMD::payload(data.value());
              const auto dst_span = SMD::payload(*obj);
              TTG_CHECK(src_span.size() == dst_span.size(),
                        "splitmd payload size mismatch");
              if (!src_span.empty())
                std::memcpy(dst_span.data(), src_span.data(), src_span.size());
              wp->run_as_job(job, [&]() {
                wp->run_as(dst, [&]() {
                  if (tr != nullptr) {
                    tr->message_delivered(msg, wp->engine().now());
                    tr->set_context(msg);
                  }
                  const auto& keys = *keys_out;
                  for (std::size_t i = 0; i + 1 < keys.size(); ++i)
                    sink->put_local(keys[i], *obj);
                  sink->put_local_move(keys.back(), std::move(*obj));
                  if (tr != nullptr) tr->clear_context();
                });
              });
            },
            /*on_release=*/[data]() { /* dropping the handle releases the source */ });
      });
    });
  }

  // ------------------------------------------------------------------
  // Tree-routed broadcast (collective data plane).
  //
  // Destinations are laid out as a topology-aware k-ary tree over positions
  // 0..M (position 0 = sender; see collective::build_tree — with one rank
  // per node this is the plain heap over ascending-rank members). The
  // shared TreeState pins the DataCopy block and carries every member's
  // serialized key list, built once at the root; each hop's wire payload is
  // the value buffer plus the key lists of the receiver's whole subtree, so
  // a leaf hop carries exactly the bytes of the equivalent flat message.
  // Interior ranks re-inject the pinned block toward their children (a
  // serialize-cache reuse, never an archive pass) before delivering
  // locally; each hop is an ordinary payload send, so ReliableLink
  // acks/retransmits protect every edge.
  // ------------------------------------------------------------------

  /// Shared state of one whole-object tree broadcast.
  struct WireTreeState {
    struct Member {
      int rank = 0;
      std::shared_ptr<const std::vector<std::byte>> kbuf;  ///< serialized keys
    };
    rt::World* world = nullptr;
    InTerminalBase<Key, Value>* sink = nullptr;
    rt::JobId job = rt::kDefaultJob;  ///< job of the broadcasting task
    rt::collective::TreeShape shape;  ///< positions: 0 = sender, p -> members[p-1]
    std::vector<Member> members;      ///< tree position p -> members[p-1]
    rt::DataCopy<Value> data;         ///< pins the block (and cached buffer)
    std::shared_ptr<const std::vector<std::byte>> vbuf;  ///< serialized value
  };

  /// Protocol label for tree/flat whole-object sends (splitmd-capable types
  /// downgrade when the backend routes them through the archive path).
  static constexpr ser::Protocol tree_proto() {
    return ser::protocol_for<Value>() == ser::Protocol::SplitMetadata
               ? ser::Protocol::Archive
               : ser::protocol_for<Value>();
  }

  /// Wire bytes of the hop delivering subtree `pos`: the value buffer, the
  /// key lists of every member in the subtree, and a routing header per
  /// forwarded member. A leaf (subtree of one) matches the flat message.
  static std::size_t tree_wire_bytes(const WireTreeState& st, int pos) {
    std::size_t kbytes = 0;
    int sub = 0;
    for (int q : rt::collective::shape_subtree(st.shape, pos)) {
      kbytes += st.members[static_cast<std::size_t>(q) - 1].kbuf->size();
      ++sub;
    }
    const auto routing = static_cast<std::size_t>(sub - 1) * rt::kTreeHopHeaderBytes;
    return ser::wire_size(st.data.value(), st.vbuf->size() + kbytes) + routing;
  }

  /// Issue the hop that delivers subtree `pos` from rank `from`, `lag`
  /// virtual seconds from now. `src_copies` is the staging-copy count to
  /// attribute to the sender (root cache misses only; forwards re-inject
  /// the cached buffer with no staging).
  static void tree_inject(const std::shared_ptr<const WireTreeState>& st, int from,
                          int pos, double lag, int src_copies) {
    rt::World* wp = st->world;
    auto& comm = wp->comm();
    const int dst = st->members[static_cast<std::size_t>(pos) - 1].rank;
    const std::size_t wire = tree_wire_bytes(*st, pos);
    detail::record_tree_hop(*wp, from, dst);
    rt::Tracer* tr = wp->tracing() ? &wp->tracer() : nullptr;
    std::uint32_t msg = rt::Tracer::kNoNode;
    if (tr != nullptr) {
      msg = tr->message_created(st->sink->consumer_name(), from, dst, wire,
                                /*splitmd=*/false);
      tr->add_copies(from, src_copies);
      tr->add_copies(dst, comm.recv_copies(tree_proto()));
    }
    wp->engine().after(lag, [wp, st, from, dst, wire, pos, tr, msg]() {
      wp->run_as_job(st->job, [&]() {
        if (tr != nullptr) tr->message_sent(msg, wp->engine().now());
        wp->comm().send_payload(from, dst, wire, st->data.pin(), [st, pos, tr, msg]() {
          tree_deliver(st, pos, tr, msg);
        });
      });
    });
  }

  /// Delivery of the hop for tree position `pos`: forward the pinned block
  /// to the position's children first (store-and-forward — the cached
  /// buffer is re-injected as-is, paying only per-message injection CPU per
  /// child, pipelined), then deliver the member's keys locally.
  static void tree_deliver(const std::shared_ptr<const WireTreeState>& st, int pos,
                           rt::Tracer* tr, std::uint32_t msg) {
    rt::World* wp = st->world;
    const auto& m = st->members[static_cast<std::size_t>(pos) - 1];
    ser::InputArchive ia(*st->vbuf);
    Value v{};
    ia& v;
    std::vector<Key> keys;
    ser::InputArchive ka(*m.kbuf);
    ka& keys;
    wp->run_as_job(st->job, [&]() {
      wp->run_as(m.rank, [&]() {
        // Under the message's causality context: child hops and the tasks
        // completed by the local puts all become this message's successors.
        if (tr != nullptr) {
          tr->message_delivered(msg, wp->engine().now());
          tr->set_context(msg);
        }
        auto& comm = wp->comm();
        double lag = 0.0;
        for (int c : st->shape.children[static_cast<std::size_t>(pos)]) {
          st->data.record_forward_hit();
          comm.mutable_stats().broadcast_forwards += 1;
          lag += comm.per_message_cpu();
          tree_inject(st, m.rank, c, lag, /*src_copies=*/0);
        }
        for (std::size_t i = 0; i + 1 < keys.size(); ++i)
          st->sink->put_local(keys[i], v);
        st->sink->put_local_move(keys.back(), std::move(v));
        if (tr != nullptr) tr->clear_context();
      });
    });
  }

  /// Root of a tree broadcast: build the shared state (every member's key
  /// list serialized once, here) and inject the root's child hops. One
  /// serialized() call per root child keeps the per-destination cache
  /// accounting identical to flat routing; the remaining destinations are
  /// covered by record_forward_hit at the interior hops.
  void send_tree(InTerminalBase<Key, Value>* sink, int src,
                 const std::map<int, std::vector<Key>>& remote,
                 const rt::DataCopy<Value>& data) const {
    auto& w = *world_;
    auto& comm = w.comm();
    // Adaptive (opt-in) arity: the root knows the fan and the payload size,
    // and the shape ships with the broadcast, so a dynamic hint is safe here
    // (reductions must use a static hint — see TT::reduce_arity).
    const int arity =
        rt::collective::pick_arity(comm.collective(), /*reduce=*/false,
                                   static_cast<int>(remote.size()),
                                   detail::local_copy_bytes(data.value()));
    if constexpr (ser::is_splitmd_v<Value>) {
      if (comm.supports_splitmd()) {
        send_tree_splitmd(sink, src, arity, remote, data);
        return;
      }
    }
    static_assert(std::is_default_constructible_v<Value>,
                  "remote TTG values must be default-constructible");
    auto st = std::make_shared<WireTreeState>();
    st->world = world_;
    st->sink = sink;
    st->job = w.current_job();
    std::vector<int> dsts;
    dsts.reserve(remote.size());
    for (const auto& [dst, ks] : remote) dsts.push_back(dst);
    st->shape = rt::collective::build_tree(src, std::move(dsts), arity, w.topology());
    st->members.reserve(remote.size());
    for (std::size_t p = 1; p < st->shape.ranks.size(); ++p) {
      const int dst = st->shape.ranks[p];
      ser::OutputArchive kar;
      kar& remote.at(dst);
      st->members.push_back(
          {dst, std::make_shared<const std::vector<std::byte>>(kar.release())});
    }
    st->data = data;
    for (int c : st->shape.children[0]) {
      bool cache_hit = false;
      auto vbuf = data.serialized(&cache_hit);
      if (!st->vbuf) st->vbuf = vbuf;
      const std::size_t wire = tree_wire_bytes(*st, c);
      const double cpu =
          cache_hit ? comm.per_message_cpu() : comm.send_side_cpu(wire, tree_proto());
      const double delay = w.scheduler(src).charge(cpu);
      tree_inject(st, src, c, delay,
                  cache_hit ? 0 : comm.send_copies(tree_proto()));
    }
  }

  /// Shared state of one split-metadata tree broadcast. No serialization
  /// cache is involved (splitmd never archives the payload); members carry
  /// their flat-identical (metadata, keys) buffer and children RMA-fetch
  /// the payload from their parent's landed object instead of the root.
  struct SmdTreeState {
    struct Member {
      int rank = 0;
      std::shared_ptr<std::vector<std::byte>> mdbuf;  ///< archive(md, keys)
    };
    rt::World* world = nullptr;
    InTerminalBase<Key, Value>* sink = nullptr;
    rt::JobId job = rt::kDefaultJob;  ///< job of the broadcasting task
    rt::collective::TreeShape shape;  ///< positions: 0 = sender, p -> members[p-1]
    std::vector<Member> members;
    rt::DataCopy<Value> data;  ///< root source object, alive until all hops land
    std::size_t payload_bytes = 0;
  };

  /// Metadata bytes of the hop delivering subtree `pos` (member metadata
  /// buffers of the subtree + a routing header per forwarded member).
  static std::size_t smd_md_bytes(const SmdTreeState& st, int pos) {
    std::size_t bytes = 0;
    int sub = 0;
    for (int q : rt::collective::shape_subtree(st.shape, pos)) {
      bytes += st.members[static_cast<std::size_t>(q) - 1].mdbuf->size();
      ++sub;
    }
    return bytes + static_cast<std::size_t>(sub - 1) * rt::kTreeHopHeaderBytes;
  }

  /// Issue the splitmd hop for subtree `pos` from rank `from`; `srcv` is
  /// the object the child's one-sided get reads (the root's DataCopy value
  /// or the parent hop's landed object).
  static void smd_inject(const std::shared_ptr<const SmdTreeState>& st, int from,
                         int pos, double lag, std::shared_ptr<const Value> srcv) {
    using SMD = ser::SplitMetadata<Value>;
    rt::World* wp = st->world;
    const int dst = st->members[static_cast<std::size_t>(pos) - 1].rank;
    const std::size_t md_bytes = smd_md_bytes(*st, pos);
    detail::record_tree_hop(*wp, from, dst);
    rt::Tracer* tr = wp->tracing() ? &wp->tracer() : nullptr;
    std::uint32_t msg = rt::Tracer::kNoNode;
    if (tr != nullptr) {
      msg = tr->message_created(st->sink->consumer_name(), from, dst,
                                md_bytes + st->payload_bytes, /*splitmd=*/true);
    }
    auto obj = std::make_shared<Value>();
    auto keys_out = std::make_shared<std::vector<Key>>();
    wp->engine().after(lag, [wp, st, from, dst, md_bytes, pos, obj, keys_out,
                             srcv = std::move(srcv), tr, msg]() {
      wp->run_as_job(st->job, [&]() {
        if (tr != nullptr) tr->message_sent(msg, wp->engine().now());
        const auto& mm = st->members[static_cast<std::size_t>(pos) - 1];
        wp->comm().send_splitmd(
            from, dst, md_bytes, st->payload_bytes,
            /*on_metadata=*/
            [mdbuf = mm.mdbuf, obj, keys_out]() {
              ser::InputArchive ia(*mdbuf);
              typename SMD::metadata_type m{};
              ia& m;
              ia&* keys_out;
              *obj = SMD::create(m);
            },
            /*on_payload=*/
            [st, pos, obj, keys_out, srcv, tr, msg]() {
              const auto src_span = SMD::payload(*srcv);
              const auto dst_span = SMD::payload(*obj);
              TTG_CHECK(src_span.size() == dst_span.size(),
                        "splitmd payload size mismatch");
              if (!src_span.empty())
                std::memcpy(dst_span.data(), src_span.data(), src_span.size());
              smd_deliver(st, pos, obj, keys_out, tr, msg);
            },
            /*on_release=*/[srcv]() { /* drop the parent's source reference */ });
      });
    });
  }

  /// Delivery of a splitmd hop: forward to children first (they fetch the
  /// payload one-sidedly from this hop's landed object), then deliver
  /// locally. Interior hops copy on every local put — the landed object
  /// stays intact as the children's RMA source; leaves move the last key
  /// exactly like the flat path.
  static void smd_deliver(const std::shared_ptr<const SmdTreeState>& st, int pos,
                          const std::shared_ptr<Value>& obj,
                          const std::shared_ptr<std::vector<Key>>& keys_out,
                          rt::Tracer* tr, std::uint32_t msg) {
    rt::World* wp = st->world;
    const auto& m = st->members[static_cast<std::size_t>(pos) - 1];
    wp->run_as_job(st->job, [&]() {
      wp->run_as(m.rank, [&]() {
        if (tr != nullptr) {
          tr->message_delivered(msg, wp->engine().now());
          tr->set_context(msg);
        }
        auto& comm = wp->comm();
        const auto& children = st->shape.children[static_cast<std::size_t>(pos)];
        double lag = 0.0;
        for (int c : children) {
          comm.mutable_stats().broadcast_forwards += 1;
          lag += comm.per_message_cpu();
          smd_inject(st, m.rank, c, lag, obj);
        }
        const auto& keys = *keys_out;
        if (children.empty()) {
          for (std::size_t i = 0; i + 1 < keys.size(); ++i)
            st->sink->put_local(keys[i], *obj);
          st->sink->put_local_move(keys.back(), std::move(*obj));
        } else {
          for (const Key& k : keys) st->sink->put_local(k, *obj);
        }
        if (tr != nullptr) tr->clear_context();
      });
    });
  }

  /// Root of a splitmd tree broadcast.
  void send_tree_splitmd(InTerminalBase<Key, Value>* sink, int src, int arity,
                         const std::map<int, std::vector<Key>>& remote,
                         const rt::DataCopy<Value>& data) const {
    using SMD = ser::SplitMetadata<Value>;
    auto& w = *world_;
    auto& comm = w.comm();
    auto st = std::make_shared<SmdTreeState>();
    st->world = world_;
    st->sink = sink;
    st->job = w.current_job();
    std::vector<int> dsts;
    dsts.reserve(remote.size());
    for (const auto& [dst, ks] : remote) dsts.push_back(dst);
    st->shape = rt::collective::build_tree(src, std::move(dsts), arity, w.topology());
    st->members.reserve(remote.size());
    auto md = SMD::get_metadata(data.value());
    for (std::size_t p = 1; p < st->shape.ranks.size(); ++p) {
      const int dst = st->shape.ranks[p];
      ser::OutputArchive ar;
      ar& md;
      ar& remote.at(dst);
      st->members.push_back(
          {dst, std::make_shared<std::vector<std::byte>>(ar.release())});
    }
    st->data = data;
    st->payload_bytes = SMD::payload_bytes(data.value());
    // The root's children read the payload straight out of the pinned
    // DataCopy value (aliasing share: releasing it releases the state).
    std::shared_ptr<const Value> rootv(st, &st->data.value());
    for (int c : st->shape.children[0]) {
      const double cpu =
          comm.send_side_cpu(st->payload_bytes, ser::Protocol::SplitMetadata);
      const double delay = w.scheduler(src).charge(cpu);
      smd_inject(st, src, c, delay, rootv);
    }
  }

  /// Route a control action (stream size / finalize) to the owner of `key`
  /// on every sink.
  template <typename Action>
  void control(const Key& key, Action action) const {
    TTG_CHECK(world_ != nullptr, "control through a default-constructed terminal");
    TTG_CHECK(connected(), "control through an unconnected output terminal");
    auto& w = *world_;
    const int me = w.rank();
    auto& comm = w.comm();
    for (auto* sink : edge_->sinks) {
      const int dst = sink->owner(key);
      if (dst == me) {
        action(sink, key);
      } else {
        constexpr std::size_t kCtrlBytes = 64;
        const double cpu = comm.send_side_cpu(kCtrlBytes, ser::Protocol::Trivial);
        const double delay = w.scheduler(me).charge(cpu);
        rt::Tracer* tr = w.tracing() ? &w.tracer() : nullptr;
        std::uint32_t msg = rt::Tracer::kNoNode;
        if (tr != nullptr) {
          msg = tr->message_created(sink->consumer_name() + "#ctrl", me, dst, kCtrlBytes,
                                    /*splitmd=*/false);
          tr->add_copies(me, comm.send_copies(ser::Protocol::Trivial));
          tr->add_copies(dst, comm.recv_copies(ser::Protocol::Trivial));
        }
        rt::World* wp = world_;
        const rt::JobId job = w.current_job();
        w.engine().after(delay, [wp, &comm, job, me, dst, sink, key, action, tr,
                                 msg]() {
          wp->run_as_job(job, [&]() {
            if (tr != nullptr) tr->message_sent(msg, wp->engine().now());
            comm.send_message(me, dst, kCtrlBytes, [wp, job, dst, sink, key, action,
                                                    tr, msg]() {
              wp->run_as_job(job, [&]() {
                wp->run_as(dst, [&]() {
                  // Stream-size/finalize arrivals can complete a task: keep the
                  // causality context so that task links back to this message.
                  if (tr != nullptr) {
                    tr->message_delivered(msg, wp->engine().now());
                    tr->set_context(msg);
                  }
                  action(sink, key);
                  if (tr != nullptr) tr->clear_context();
                });
              });
            });
          });
        });
      }
    }
  }

  rt::World* world_ = nullptr;
  std::shared_ptr<detail::EdgeImpl<Key, Value>> edge_;
};

}  // namespace ttg
