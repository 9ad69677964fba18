#pragma once

#include <cstdint>

namespace wmsketch {

/// The 64-bit finalizer (fmix64) of MurmurHash3 (Austin Appleby's
/// public-domain algorithm), reimplemented from the specification: a fast
/// standalone integer mixer. bench_ablation_hashing compares it with the
/// tabulation and polynomial hash families.
uint64_t Murmur3Fmix64(uint64_t key);

}  // namespace wmsketch
