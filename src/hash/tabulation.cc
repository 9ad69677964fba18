#include "hash/tabulation.h"

#include <cassert>

#include "util/math.h"

namespace wmsketch {

TabulationHash::TabulationHash(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& table : tables_) {
    for (auto& cell : table) cell = sm.Next();
  }
}

std::vector<SignedBucketHash> SignedRows(uint64_t seed, uint32_t width, uint32_t depth) {
  assert(IsPowerOfTwo(width));
  assert(depth >= 1 && depth <= kMaxSketchDepth);
  SplitMix64 sm(seed);
  std::vector<SignedBucketHash> rows;
  rows.reserve(depth);
  for (uint32_t j = 0; j < depth; ++j) rows.emplace_back(sm.Next(), width);
  return rows;
}

}  // namespace wmsketch
