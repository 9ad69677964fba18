#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace wmsketch {

#ifdef WMS_HASH_STATS
/// Per-thread count of tabulation-hash evaluations, compiled in only under
/// -DWMS_HASH_STATS=ON. bench_hot_path and hash_plan_test read (and reset)
/// it to verify the single-hash invariant: one evaluation per (feature, row)
/// pair per update, i.e. exactly nnz×depth.
inline thread_local uint64_t g_hash_evaluations = 0;
#endif

/// 3-wise-independent tabulation hashing over 32-bit keys (Appendix B).
///
/// The key is split into four bytes; each byte indexes a table of 256 random
/// 64-bit words whose XOR is the hash. Simple tabulation is 3-independent
/// and, by Pătraşcu–Thorup, behaves like full independence for hashing-based
/// sketches — which is why the paper's implementation uses it instead of the
/// O(log(d/δ))-independent polynomial hashes assumed by the theory. A single
/// 64-bit output supplies both the bucket index (low bits) and the ±1 sign
/// (a high bit), so each (row, feature) pair costs one table-walk.
class TabulationHash {
 public:
  /// Constructs the hash by filling the 4×256 tables from `seed`.
  explicit TabulationHash(uint64_t seed);

  /// 64-bit hash of a 32-bit key.
  uint64_t Hash(uint32_t key) const {
#ifdef WMS_HASH_STATS
    ++g_hash_evaluations;
#endif
    return tables_[0][key & 0xff] ^ tables_[1][(key >> 8) & 0xff] ^
           tables_[2][(key >> 16) & 0xff] ^ tables_[3][(key >> 24) & 0xff];
  }

 private:
  std::array<std::array<uint64_t, 256>, 4> tables_;
};

/// One hash row of a Count-Sketch-style structure: maps a feature id to a
/// bucket in [0, width) and a sign in {-1, +1}, both derived from a single
/// tabulation hash evaluation. `width` must be a power of two.
class SignedBucketHash {
 public:
  /// Constructs a row hash with its own tabulation tables. Requires `width`
  /// to be a power of two (enforced by the sketches that own rows).
  SignedBucketHash(uint64_t seed, uint32_t width)
      : tab_(seed), mask_(width - 1) {}

  /// Bucket index in [0, width).
  uint32_t Bucket(uint32_t key) const { return static_cast<uint32_t>(tab_.Hash(key)) & mask_; }

  /// Sign in {-1.0f, +1.0f}, taken from bit 32 of the hash so it is
  /// independent of the low bucket bits for any width <= 2^32.
  float Sign(uint32_t key) const {
    return ((tab_.Hash(key) >> 32) & 1) != 0 ? 1.0f : -1.0f;
  }

  /// Bucket and sign from a single hash evaluation (the hot path).
  void BucketAndSign(uint32_t key, uint32_t* bucket, float* sign) const {
    const uint64_t h = tab_.Hash(key);
    *bucket = static_cast<uint32_t>(h) & mask_;
    *sign = ((h >> 32) & 1) != 0 ? 1.0f : -1.0f;
  }

  uint32_t width() const { return mask_ + 1; }

 private:
  TabulationHash tab_;
  uint32_t mask_;
};

/// The most hash rows any sketch in the library has (WM, AWM, Count-Sketch,
/// Count-Min; BudgetConfig::Validate() rejects deeper shapes). Per-key
/// median buffers are sized by it.
inline constexpr uint32_t kMaxSketchDepth = 64;

/// The `depth` rows of `width` buckets that a sketch seeded with `seed`
/// hashes through: row j takes the (j+1)-th SplitMix64 output of `seed` as
/// its own seed. Sketches of equal (width, depth, seed) therefore hash
/// identically, which is what lets their tables be summed. Requires width a
/// power of two and 1 <= depth <= kMaxSketchDepth.
std::vector<SignedBucketHash> SignedRows(uint64_t seed, uint32_t width, uint32_t depth);

}  // namespace wmsketch
