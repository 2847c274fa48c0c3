// Dense matrix tiles — the unit of data flowing through the linear-algebra
// TTGs (Cholesky, Floyd-Warshall, block-sparse GEMM).
//
// A Tile is a column-major rows x cols block of doubles. It exists in two
// modes:
//
//   * real  — carries actual numerical data; used by all correctness tests,
//             the examples, and small benches. Kernels compute real math.
//   * ghost — carries only its dimensions and a 64-bit signature; kernels
//             combine signatures instead of computing, and the declared
//             wire size (wire_bytes) remains rows*cols*8 so the simulated
//             network sees exactly the traffic a real run would generate.
//             This is the substitution that lets 256-node experiments run
//             on a single host (see DESIGN.md).
//
// Tiles support all three TTG serialization protocols: split-metadata (the
// contiguous payload is the data vector), archive (whole object), and the
// signature tracking survives both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serialization/traits.hpp"
#include "support/error.hpp"

namespace ttg::linalg {

class Tile {
 public:
  Tile() = default;

  /// Real tile, zero-initialized.
  Tile(int rows, int cols)
      : rows_(rows), cols_(cols), ghost_(false),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0) {
    TTG_CHECK(rows >= 0 && cols >= 0, "negative tile dims");
  }

  /// Ghost tile: dimensions + signature only.
  static Tile ghost(int rows, int cols, std::uint64_t sig = 0x9e3779b97f4a7c15ull) {
    Tile t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.ghost_ = true;
    t.sig_ = sig;
    return t;
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] bool is_ghost() const { return ghost_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Column-major element access (real tiles only).
  [[nodiscard]] double& operator()(int i, int j) {
    TTG_CHECK(!ghost_, "element access on ghost tile");
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  [[nodiscard]] double operator()(int i, int j) const {
    TTG_CHECK(!ghost_, "element access on ghost tile");
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  /// Column j's rows() contiguous doubles (real tiles only): the unit-stride
  /// view the dense kernels loop over, checked once per column.
  [[nodiscard]] double* col(int j) {
    TTG_CHECK(!ghost_, "column access on ghost tile");
    return data_.data() + static_cast<std::size_t>(j) * rows_;
  }
  [[nodiscard]] const double* col(int j) const {
    TTG_CHECK(!ghost_, "column access on ghost tile");
    return data_.data() + static_cast<std::size_t>(j) * rows_;
  }

  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  /// Ghost signature: a deterministic digest standing in for the numerical
  /// content so ghost runs can be checked for plumbing errors.
  [[nodiscard]] std::uint64_t signature() const { return sig_; }
  void set_signature(std::uint64_t s) { sig_ = s; }

  /// Declared wire size: full data footprint regardless of mode.
  [[nodiscard]] std::size_t wire_bytes() const {
    return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_) *
           sizeof(double);
  }

  /// Frobenius norm (real tiles).
  [[nodiscard]] double norm() const;

  /// Max |a_ij - b_ij| between two real tiles of equal shape.
  [[nodiscard]] double max_abs_diff(const Tile& other) const;

  template <typename Ar>
  void serialize(Ar& ar) {
    ar& rows_& cols_& ghost_& sig_& data_;
  }

  friend bool operator==(const Tile& a, const Tile& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.ghost_ == b.ghost_ &&
           a.sig_ == b.sig_ && a.data_ == b.data_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  bool ghost_ = false;
  std::uint64_t sig_ = 0;
  std::vector<double> data_;
};

}  // namespace ttg::linalg

namespace ttg::ser {

/// Split-metadata protocol support for tiles: the metadata is the header
/// (dims, mode, signature); the contiguous payload is the data vector. For
/// ghost tiles the actual payload is empty but the declared payload size is
/// the full data footprint — the RMA transfer is charged in full.
template <>
struct SplitMetadata<linalg::Tile> {
  struct metadata_type {
    int rows = 0;
    int cols = 0;
    bool ghost = false;
    std::uint64_t sig = 0;
  };
  static metadata_type get_metadata(const linalg::Tile& t) {
    return {t.rows(), t.cols(), t.is_ghost(), t.signature()};
  }
  static linalg::Tile create(const metadata_type& m) {
    if (m.ghost) return linalg::Tile::ghost(m.rows, m.cols, m.sig);
    return linalg::Tile(m.rows, m.cols);
  }
  static std::size_t payload_bytes(const linalg::Tile& t) { return t.wire_bytes(); }
  static std::span<const std::byte> payload(const linalg::Tile& t) {
    return std::as_bytes(std::span<const double>(t.data()));
  }
  static std::span<std::byte> payload(linalg::Tile& t) {
    return std::as_writable_bytes(std::span<double>(t.data()));
  }
};

}  // namespace ttg::ser
