// Tree-shape helpers plus the CommEngine collective data plane shared by
// both backends: the logical send_message wrapper and the eager-AM
// coalescer (flush-window batching of small same-destination AMs into one
// wire transfer).
#include "runtime/collective.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "runtime/comm.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace ttg::rt::collective {

namespace {

/// Topology-aware member order for a tree rooted at `root_rank`: members on
/// the root's node first, then the remaining members grouped by node
/// (nodes ascending), ranks ascending within each group. With
/// ranks_per_node <= 1 this is simply ascending rank order.
std::vector<int> layout_members(int root_rank, std::vector<int> members,
                                const Topology& topo) {
  const int root_node = topo.node_of(root_rank);
  std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
    const int na = topo.node_of(a);
    const int nb = topo.node_of(b);
    if ((na == root_node) != (nb == root_node)) return na == root_node;
    if (na != nb) return na < nb;
    return a < b;
  });
  return members;
}

}  // namespace

TreeShape build_tree(int root_rank, std::vector<int> members, int arity,
                     const Topology& topo) {
  if (arity < 1) arity = 1;
  members = layout_members(root_rank, std::move(members), topo);
  TreeShape s;
  const std::size_t m = members.size();
  s.ranks.reserve(m + 1);
  s.ranks.push_back(root_rank);
  for (int r : members) s.ranks.push_back(r);
  s.children.assign(m + 1, {});
  s.parent.assign(m + 1, -1);
  // Heap-attach the positions of `list` under position `top`: list[idx]'s
  // parent is `top` for the first `arity` entries, then list[idx/arity - 1].
  auto attach_heap = [&](int top, const std::vector<int>& list) {
    for (std::size_t idx = 0; idx < list.size(); ++idx) {
      const int parent = idx < static_cast<std::size_t>(arity)
                             ? top
                             : list[idx / static_cast<std::size_t>(arity) - 1];
      s.parent[static_cast<std::size_t>(list[idx])] = parent;
      s.children[static_cast<std::size_t>(parent)].push_back(list[idx]);
    }
  };
  // Top level under the root: the root-node members plus each other node's
  // leader (its first member in layout order). Remaining group members hang
  // under their leader. With ranks_per_node <= 1 every group is a
  // singleton, so `top` is simply positions 1..M — the plain heap.
  const int root_node = topo.node_of(root_rank);
  std::vector<int> top;
  std::map<int, std::vector<int>> groups;  // node -> member positions
  for (std::size_t i = 0; i < m; ++i) {
    const int pos = static_cast<int>(i) + 1;
    const int node = topo.node_of(members[i]);
    if (node == root_node) {
      top.push_back(pos);
    } else {
      groups[node].push_back(pos);
    }
  }
  for (const auto& [node, positions] : groups) top.push_back(positions.front());
  std::sort(top.begin(), top.end());  // layout order: root-node first, then leaders
  attach_heap(0, top);
  for (const auto& [node, positions] : groups) {
    const std::vector<int> rest(positions.begin() + 1, positions.end());
    attach_heap(positions.front(), rest);
  }
  return s;
}

TreeShape star(int root_rank, std::vector<int> members) {
  TreeShape s;
  s.ranks = std::move(members);
  s.ranks.insert(s.ranks.begin(), root_rank);
  const std::size_t m = s.ranks.size() - 1;
  s.children.assign(m + 1, {});
  for (std::size_t p = 1; p <= m; ++p) s.children[0].push_back(static_cast<int>(p));
  s.parent.assign(m + 1, 0);
  s.parent[0] = -1;
  return s;
}

std::vector<int> shape_subtree(const TreeShape& shape, int pos) {
  std::vector<int> out;
  std::vector<int> stack{pos};
  while (!stack.empty()) {
    const int p = stack.back();
    stack.pop_back();
    if (p > 0) out.push_back(p);
    const auto& kids = shape.children[static_cast<std::size_t>(p)];
    // Reverse push so preorder comes out left-to-right.
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

int pick_arity(const CollectivePolicy& policy, bool reduce, int fan,
               std::size_t payload_bytes) {
  const int base = reduce ? policy.reduce_arity : policy.tree_arity;
  if (!policy.adaptive || base < 2) return base;
  if (payload_bytes >= 256 * 1024) return 2;
  if (payload_bytes <= policy.am_coalesce_max && fan >= 8 * base) return 2 * base;
  return base;
}

Tuning derive_tuning(const sim::MachineModel& m) {
  Tuning t;
  // Coalescing ceiling: the AM path's bandwidth-delay-like product (bytes
  // the NIC injects during one per-message CPU interval), rounded up to a
  // power of two, capped at half the eager threshold so a full batch plus
  // framing stays eager.
  const double bdp = m.nic_bw * m.am_cpu;
  std::size_t coalesce = 1;
  while (static_cast<double>(coalesce) < bdp) coalesce <<= 1;
  t.am_coalesce_max = std::min(coalesce, m.eager_threshold / 2);
  // One child per KiB of coalescing headroom, clamped to [2, 8].
  t.arity = static_cast<int>(
      std::clamp<std::size_t>(t.am_coalesce_max / 1024, 2, 8));
  // Flush window: the AM service interval rounded to the nearest decade.
  // The decade table keeps the window an exact decimal literal — the value
  // feeds engine timers, so any ulp drift would shift every event time.
  static constexpr double kDecades[] = {1e-9, 1e-8, 1e-7, 1e-6,
                                        1e-5, 1e-4, 1e-3};
  const double interval = m.am_cpu + m.net_latency / 2.0;
  const int exp10 =
      static_cast<int>(std::lround(std::log10(interval)));  // negative
  const int idx = std::clamp(exp10 + 9, 0, 6);
  t.window = kDecades[idx];
  return t;
}

}  // namespace ttg::rt::collective

namespace ttg::rt {

void CommEngine::send_message(int src, int dst, std::size_t wire_bytes,
                              std::function<void()> deliver) {
  stats_.messages += 1;
  {
    JobCommStats& js = job_stats_[current_job()];
    js.messages += 1;
    js.wire_bytes += static_cast<std::uint64_t>(wire_bytes);
  }
  if (flush_engine_ != nullptr && collective_.am_flush_window > 0.0 &&
      wire_bytes <= collective_.am_coalesce_max && src != dst) {
    AmBatch& b = batches_[{src, dst}];
    if (b.window_open) {
      b.bytes += wire_bytes;
      b.delivers.push_back(std::move(deliver));
      return;
    }
    // First AM of a burst ships immediately (no added latency) and opens
    // the window that catches followers to the same destination.
    b.window_open = true;
    flush_engine_->after(collective_.am_flush_window,
                         [this, src, dst]() { flush_batch(src, dst); });
  }
  wire_send(src, dst, wire_bytes, std::move(deliver));
}

void CommEngine::flush_batch(int src, int dst) {
  const auto it = batches_.find({src, dst});
  if (it == batches_.end()) return;
  AmBatch b = std::move(it->second);
  it->second = AmBatch{};  // window closed, queue empty
  if (b.delivers.empty()) return;
  if (b.delivers.size() == 1) {
    // A lone follower is just a plain (slightly delayed) send.
    wire_send(src, dst, b.bytes, std::move(b.delivers.front()));
    return;
  }
  stats_.am_batches += 1;
  stats_.batched_msgs += b.delivers.size();
  // One wire transfer, one receive-side AM handling charge, one ack under
  // resilience; the member AMs deliver in their send order.
  const std::size_t total =
      b.bytes + b.delivers.size() * kAmBatchHeaderBytes;
  wire_send(src, dst, total, [delivers = std::move(b.delivers)]() {
    for (const auto& d : delivers) d();
  });
}

}  // namespace ttg::rt
