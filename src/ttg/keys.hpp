// Task-ID (key) types.
//
// In the TTG model every message is a (task ID, data) pair; task IDs are
// typically small integer tuples. The paper's Cholesky example uses Int1
// (POTRF iteration), Int2 (TRSM tile coordinate), and Int3 (GEMM tile
// coordinate + iteration); Floyd-Warshall uses Int3 as well. Pure-dataflow
// nodes use a void-like key. All keys are hashable, comparable, trivially
// serializable, and printable.
#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "support/hash.hpp"

namespace ttg {

/// Null type standing in for `void` task IDs / data parts: "pure control
/// flow can be implemented by omitting the data part ... pure dataflow ...
/// by using the null type to represent the task ID" (Section II).
struct Void {
  auto operator<=>(const Void&) const = default;
  [[nodiscard]] std::uint64_t hash() const { return 0; }
};

/// 1-tuple task ID.
struct Int1 {
  int i = 0;
  auto operator<=>(const Int1&) const = default;
  [[nodiscard]] std::uint64_t hash() const {
    return support::hash_value(static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)));
  }
};

/// 2-tuple task ID (e.g. a tile coordinate).
struct Int2 {
  int i = 0;
  int j = 0;
  auto operator<=>(const Int2&) const = default;
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = support::hash_value(static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)));
    support::hash_combine(h, static_cast<std::uint32_t>(j));
    return h;
  }
};

/// 3-tuple task ID (e.g. tile coordinate + iteration).
struct Int3 {
  int i = 0;
  int j = 0;
  int k = 0;
  auto operator<=>(const Int3&) const = default;
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = support::hash_value(static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)));
    support::hash_combine(h, static_cast<std::uint32_t>(j));
    support::hash_combine(h, static_cast<std::uint32_t>(k));
    return h;
  }
};

namespace detail {
/// "(a,b,...)". Built by appending: GCC 12 at -O3 flags the equivalent
/// `"(" + std::to_string(a) + ...` chain with false -Wrestrict warnings.
inline std::string tuple_string(std::initializer_list<int> parts) {
  std::string s = "(";
  for (const int p : parts) {
    if (s.size() > 1) s += ',';
    s += std::to_string(p);
  }
  s += ')';
  return s;
}
}  // namespace detail

inline std::string to_string(const Void&) { return "()"; }
inline std::string to_string(const Int1& k) { return detail::tuple_string({k.i}); }
inline std::string to_string(const Int2& k) { return detail::tuple_string({k.i, k.j}); }
inline std::string to_string(const Int3& k) {
  return detail::tuple_string({k.i, k.j, k.k});
}

namespace detail {
template <typename K>
concept Printable = requires(const K& k) {
  { to_string(k) } -> std::convertible_to<std::string>;
};
}  // namespace detail

/// Best-effort key rendering for diagnostics: uses ADL to_string if the
/// key type provides one.
template <typename K>
std::string key_to_string(const K& k) {
  if constexpr (detail::Printable<K>) {
    return to_string(k);
  } else {
    return "<key>";
  }
}

/// Hash functor for unordered containers keyed by task IDs.
template <typename K>
struct KeyHash {
  std::size_t operator()(const K& k) const {
    return static_cast<std::size_t>(support::hash_value(k));
  }
};

}  // namespace ttg
