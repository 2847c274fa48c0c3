// Collective routing: spanning-tree shape helpers for tree-routed
// broadcasts and streaming reductions (paper Section II-A's optimized
// ttg::broadcast, extended the way TaskTorrent and Specx route one-to-many
// and many-to-one dataflow through intermediate ranks).
//
// A coalesced broadcast to M remote destinations is laid out as a
// heap-shaped k-ary tree over *positions* 0..M: position 0 is the sender
// (root), positions 1..M are the destinations in ascending-rank order (the
// order the terminal's per-destination map yields, so the shape is a pure
// function of the member set and the arity — deterministic and
// reproducible). The children of position p are positions k*p+1 .. k*p+k,
// clipped to M; with M <= k the tree degenerates to the flat root-to-all
// pattern bit-identically.
//
// Every other remote TTG send is laid out as a star (see star()): the root
// has every member as a child, one member per destination rank (or per
// key), in the given order — the flat pattern of point-to-point messages.
//
// Streaming reductions route the same trees *inverted*: members send
// combined partial values toward position 0 (the key's owner rank).
//
// On top of the pure heap shape sits a topology-aware layout (build_tree):
// a Topology declares how many consecutive ranks share a node, and the
// member order is rearranged so each node's ranks form one subtree that is
// entered by exactly one inter-node edge — subtrees pack onto a node
// before the route crosses the network. With ranks_per_node <= 1 the
// layout degenerates to the plain heap over ascending ranks, so default
// worlds keep the historical (PR-4) shapes bit-identically.
//
// These are pure functions so tests can pin shapes down without running a
// world.
#pragma once

#include <cstddef>
#include <vector>

namespace ttg::rt {
struct CollectivePolicy;  // runtime/comm.hpp
}
namespace ttg::sim {
struct MachineModel;  // sim/machine.hpp
}

namespace ttg::rt::collective {

/// Machine model for topology-aware tree layout: `ranks_per_node`
/// consecutive ranks share a node (the usual block process mapping), so
/// rank r lives on node r / ranks_per_node. <= 1 means every rank is its
/// own node (layout reduces to the plain heap over ascending ranks).
struct Topology {
  int ranks_per_node = 1;
  [[nodiscard]] int node_of(int rank) const {
    return ranks_per_node > 1 ? rank / ranks_per_node : rank;
  }
  [[nodiscard]] bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
};

/// An explicit tree over member *positions*: position 0 is the root rank,
/// positions 1..M are the members in layout order. Built once per
/// (root, member set, arity, topology) and shared by every hop.
struct TreeShape {
  std::vector<int> ranks;                  ///< position -> rank (ranks[0] = root)
  std::vector<std::vector<int>> children;  ///< position -> child positions
  std::vector<int> parent;                 ///< position -> parent (parent[0] = -1)
  [[nodiscard]] int nmembers() const { return static_cast<int>(ranks.size()) - 1; }
};

/// Build the k-ary tree over `members` rooted at `root_rank`, packing each
/// node's members into one subtree: the root-node group and the leader
/// (lowest-rank member) of every other node hang as a heap under the root;
/// a group's remaining members hang as a heap under their leader. Exactly
/// one inter-node edge enters each non-root node's group. With
/// ranks_per_node <= 1 every group is a singleton, and the shape is the
/// plain position heap over ascending ranks.
[[nodiscard]] TreeShape build_tree(int root_rank, std::vector<int> members, int arity,
                                   const Topology& topo);

/// The star over `members` rooted at `root_rank`: position p holds
/// members[p - 1] as given (a rank may repeat) and every member is a child
/// of the root.
[[nodiscard]] TreeShape star(int root_rank, std::vector<int> members);

/// All member positions in the subtree rooted at `pos` of an explicit
/// shape (pos itself included when > 0), in deterministic preorder.
[[nodiscard]] std::vector<int> shape_subtree(const TreeShape& shape, int pos);

/// Adaptive arity selection (CollectivePolicy::adaptive): derive the tree
/// arity for one collective from its fan (destination count for a
/// broadcast, contributor bound for a reduction) and payload size.
/// Bandwidth-bound payloads (>= 256 KB) prefer a deep binary tree (better
/// hop pipelining); latency-bound coalescable AMs (<= kAmCoalesceMaxBytes)
/// with a wide fan (>= 8x the base arity) double the arity to cut depth.
/// With `adaptive` off — both backends' default — returns the policy's
/// static arity unchanged. Reductions must pass a *static* payload hint
/// (sizeof the value type): every rank derives the tree independently, so
/// the inputs must be rank-invariant; broadcast roots may use the actual
/// serialized size since the root alone decides the shape.
[[nodiscard]] int pick_arity(const CollectivePolicy& policy, bool reduce, int fan,
                             std::size_t payload_bytes);

/// Collective tuning derived from the machine model instead of per-backend
/// constants (carried-forward ROADMAP item). The shapes are functions of
/// the AM path's bandwidth-delay-like product — the bytes the NIC moves in
/// one per-message CPU interval:
///
///   am_coalesce_max — that product rounded up to a power of two, capped at
///                     half the eager threshold so a coalesced batch (plus
///                     framing) stays on the eager protocol;
///   arity           — one tree child per KiB of coalescing headroom,
///                     clamped to [2, 8]: fatter links amortize more
///                     concurrent child sends per store-and-forward hop;
///   window          — the AM service interval (per-message CPU plus half
///                     the wire latency) rounded to the nearest decade, so
///                     the window covers a burst issued back-to-back by one
///                     task body without delaying unrelated traffic.
///
/// On the hawk and seawulf presets this reproduces the historical static
/// tuning {arity 4, window 1 us, coalesce max 4096} bit-identically
/// (pinned by tests/test_device.cpp), so checked-in baselines are
/// unchanged; on machine models with very different NIC/CPU ratios the
/// tuning scales instead of staying frozen.
struct Tuning {
  int arity = 0;
  double window = 0.0;
  std::size_t am_coalesce_max = 0;
};
[[nodiscard]] Tuning derive_tuning(const sim::MachineModel& m);

}  // namespace ttg::rt::collective
