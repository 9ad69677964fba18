#include "stream/sparse_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wmsketch {

SparseVector::SparseVector(std::vector<uint32_t> indices, std::vector<float> values)
    : indices_(std::move(indices)), values_(std::move(values)) {
  assert(indices_.size() == values_.size());
}

Result<SparseVector> SparseVector::FromUnsorted(std::vector<std::pair<uint32_t, float>> pairs) {
  for (const auto& [idx, val] : pairs) {
    if (!std::isfinite(val)) {
      return Status::InvalidArgument("non-finite feature value at index " + std::to_string(idx));
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<uint32_t> indices;
  std::vector<float> values;
  indices.reserve(pairs.size());
  values.reserve(pairs.size());
  for (const auto& [idx, val] : pairs) {
    if (!indices.empty() && indices.back() == idx) {
      values.back() += val;
    } else {
      indices.push_back(idx);
      values.push_back(val);
    }
  }
  // Drop entries that summed to exactly zero.
  size_t out = 0;
  for (size_t i = 0; i < indices.size(); ++i) {
    if (values[i] != 0.0f) {
      indices[out] = indices[i];
      values[out] = values[i];
      ++out;
    }
  }
  indices.resize(out);
  values.resize(out);
  return SparseVector(std::move(indices), std::move(values));
}

SparseVector SparseVector::OneHot(uint32_t index, float value) {
  return SparseVector({index}, {value});
}

Status SparseVector::Validate() const {
  if (indices_.size() != values_.size()) {
    return Status::Corruption("index/value arrays disagree in length");
  }
  for (size_t i = 0; i < indices_.size(); ++i) {
    if (i > 0 && indices_[i] <= indices_[i - 1]) {
      return Status::InvalidArgument("indices not strictly increasing at position " +
                                     std::to_string(i));
    }
    if (!std::isfinite(values_[i])) {
      return Status::InvalidArgument("non-finite value at position " + std::to_string(i));
    }
    if (values_[i] == 0.0f) {
      return Status::InvalidArgument("explicit zero value at position " + std::to_string(i));
    }
  }
  return Status::OK();
}

double SparseVector::Dot(const std::vector<float>& dense) const {
  double s = 0.0;
  for (size_t i = 0; i < indices_.size(); ++i) {
    assert(indices_[i] < dense.size());
    s += static_cast<double>(values_[i]) * static_cast<double>(dense[indices_[i]]);
  }
  return s;
}

}  // namespace wmsketch
