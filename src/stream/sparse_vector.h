#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace wmsketch {

/// A sparse feature vector: parallel arrays of strictly-increasing feature
/// indices and their (finite, nonzero) values. This is the `x` of every
/// example flowing through the library; all classifiers touch only the
/// nonzero entries, giving O(s·nnz(x)) updates (Sec. 5.1).
class SparseVector {
 public:
  SparseVector() = default;

  /// Constructs from parallel arrays without validation; prefer
  /// FromUnsorted/Validate for untrusted input. Asserts equal lengths.
  SparseVector(std::vector<uint32_t> indices, std::vector<float> values);

  /// Builds a vector from possibly-unsorted, possibly-duplicated pairs:
  /// sorts by index, sums duplicates, and drops exact zeros. Returns
  /// InvalidArgument for non-finite values.
  static Result<SparseVector> FromUnsorted(std::vector<std::pair<uint32_t, float>> pairs);

  /// A vector with a single nonzero entry (the 1-sparse encoding used by the
  /// streaming-explanation, deltoid, and PMI applications).
  static SparseVector OneHot(uint32_t index, float value = 1.0f);

  /// Checks the representation invariants (sorted unique indices, finite
  /// nonzero values); used on untrusted inputs such as parsed files.
  Status Validate() const;

  size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  const std::vector<uint32_t>& indices() const { return indices_; }
  const std::vector<float>& values() const { return values_; }
  uint32_t index(size_t i) const { return indices_[i]; }
  float value(size_t i) const { return values_[i]; }

  /// Dot product against a dense weight array of dimension >= max index + 1.
  double Dot(const std::vector<float>& dense) const;

  bool operator==(const SparseVector& other) const = default;

 private:
  std::vector<uint32_t> indices_;
  std::vector<float> values_;
};

/// A labeled example: sparse features and a binary label in {-1, +1}.
struct Example {
  SparseVector x;
  int8_t y = 1;

  /// Validates the feature vector and the label domain.
  Status Validate() const {
    if (y != 1 && y != -1) return Status::InvalidArgument("label must be +1 or -1");
    return x.Validate();
  }
};

}  // namespace wmsketch
