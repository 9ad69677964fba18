#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace wmsketch {

/// The structural identity of a signed-hash sketch table for merge purposes:
/// two tables can be summed iff their projection matrices are equal, which
/// holds exactly when width, depth, and the seed the row hashes were derived
/// from all match. Shared by the WM-Sketch and AWM-Sketch merges and the
/// delta applier so every merge path rejects mismatches identically.
struct SketchShape {
  uint32_t width = 0;
  uint32_t depth = 0;
  uint64_t seed = 0;
};

/// Checks that two sketch shapes are merge-compatible. Returns OK when they
/// agree; otherwise InvalidArgument naming `kind` (e.g. "count-sketch") and
/// the first mismatching dimension.
inline Status CheckMergeCompatible(const std::string& kind, const SketchShape& a,
                                   const SketchShape& b) {
  if (a.width != b.width) {
    return Status::InvalidArgument(kind + " merge: width mismatch (" +
                                   std::to_string(a.width) + " vs " +
                                   std::to_string(b.width) + ")");
  }
  if (a.depth != b.depth) {
    return Status::InvalidArgument(kind + " merge: depth mismatch (" +
                                   std::to_string(a.depth) + " vs " +
                                   std::to_string(b.depth) + ")");
  }
  if (a.seed != b.seed) {
    return Status::InvalidArgument(kind + " merge: seed mismatch (" +
                                   std::to_string(a.seed) + " vs " +
                                   std::to_string(b.seed) +
                                   "); hash rows differ, tables cannot be summed");
  }
  return Status::OK();
}

/// Companion check for the sketches that pair their table with a tracked-set
/// structure (the WM top-K heap, the AWM active set): rebuilding the merged
/// structure requires equal capacities. `what` names the structure in the
/// error ("heap capacity", "active-set capacity").
inline Status CheckCapacityCompatible(const std::string& kind, const std::string& what,
                                      size_t a, size_t b) {
  if (a != b) {
    return Status::InvalidArgument(kind + " merge: " + what + " mismatch (" +
                                   std::to_string(a) + " vs " + std::to_string(b) + ")");
  }
  return Status::OK();
}

}  // namespace wmsketch
