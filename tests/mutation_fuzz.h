#pragma once

// Seeded mutation fuzzing shared by the decoder tests (dist_test's payload
// codecs, frame_fuzz_test's frame layer): a valid input built by the
// encoders, the offsets of its count, length and id fields, and one seeded
// mutation of it at a time. The sanitizer builds turn any out-of-bounds read
// or undefined behaviour a mutation provokes into a failure.

#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace wmsketch::fuzz {

// One decoder under mutation: valid input built by the encoders, and the
// offsets of its count, length and id fields (width 1, 4 or 8 bytes).
struct FuzzTarget {
  std::string name;
  std::string seed;
  std::vector<std::pair<size_t, size_t>> fields;  // (offset, width)
  std::function<Status(std::string_view)> decode;
};

// One seeded mutation of `seed`: a bit flip, a byte overwrite, a
// truncation, an insertion, or a count/length field set to 0, 1 or its
// maximum (2^64 − 1 for a u64).
inline std::string Mutate(const FuzzTarget& t, std::mt19937_64& rng) {
  std::string b = t.seed;
  switch (rng() % 5) {
    case 0:
      b[rng() % b.size()] ^= static_cast<char>(1u << (rng() % 8));
      break;
    case 1:
      b[rng() % b.size()] = static_cast<char>(rng());
      break;
    case 2:
      b.resize(rng() % b.size());
      break;
    case 3:
      b.insert(rng() % (b.size() + 1), 1 + rng() % 16, static_cast<char>(rng()));
      break;
    default: {
      const auto [at, width] = t.fields[rng() % t.fields.size()];
      const uint64_t values[] = {0, 1, ~uint64_t{0}};
      const uint64_t v = values[rng() % 3];
      std::memcpy(b.data() + at, &v, width);
      break;
    }
  }
  return b;
}

}  // namespace wmsketch::fuzz
