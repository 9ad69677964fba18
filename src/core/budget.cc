#include "core/budget.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "core/awm_sketch.h"
#include "core/frequent_features.h"
#include "core/truncation.h"
#include "core/wm_sketch.h"
#include "linear/feature_hashing.h"
#include "util/math.h"
#include "util/memory_cost.h"

namespace wmsketch {

std::string MethodName(Method method) {
  switch (method) {
    case Method::kSimpleTruncation:
      return "trun";
    case Method::kProbabilisticTruncation:
      return "ptrun";
    case Method::kSpaceSavingFrequent:
      return "ss";
    case Method::kCountMinFrequent:
      return "cmff";
    case Method::kFeatureHashing:
      return "hash";
    case Method::kWmSketch:
      return "wm";
    case Method::kAwmSketch:
      return "awm";
  }
  return "?";
}

const std::vector<Method>& AllMethods() {
  static const std::vector<Method> kAll = {
      Method::kSimpleTruncation,    Method::kProbabilisticTruncation,
      Method::kSpaceSavingFrequent, Method::kCountMinFrequent,
      Method::kFeatureHashing,      Method::kWmSketch,
      Method::kAwmSketch,
  };
  return kAll;
}

namespace {

Status ShapeError(ConfigError error, const std::string& what) {
  return Status::InvalidArgument(what, ToDetail(error));
}

// Shared table-shape checks for the sketch-backed methods.
Status ValidateTable(uint32_t width, uint32_t depth) {
  if (!IsPowerOfTwo(width)) {
    return ShapeError(ConfigError::kWidthNotPowerOfTwo,
                      "width must be a nonzero power of two, got " + std::to_string(width));
  }
  if (depth < 1) return ShapeError(ConfigError::kDepthZero, "depth must be >= 1");
  if (depth > kMaxSketchDepth) {
    return ShapeError(ConfigError::kDepthTooLarge,
                      "depth " + std::to_string(depth) + " exceeds the maximum " +
                          std::to_string(kMaxSketchDepth));
  }
  return Status::OK();
}

}  // namespace

Status BudgetConfig::Validate() const {
  switch (method) {
    case Method::kSimpleTruncation:
    case Method::kProbabilisticTruncation:
    case Method::kSpaceSavingFrequent:
      if (heap_capacity < 1) {
        return ShapeError(ConfigError::kActiveSetEmpty,
                          MethodName(method) + " requires at least one tracked entry");
      }
      return Status::OK();
    case Method::kFeatureHashing:
      if (!IsPowerOfTwo(width)) {
        return ShapeError(ConfigError::kWidthNotPowerOfTwo,
                          "bucket count must be a nonzero power of two, got " +
                              std::to_string(width));
      }
      return Status::OK();
    case Method::kCountMinFrequent:
      WMS_RETURN_NOT_OK(ValidateTable(width, depth));
      if (heap_capacity < 1) {
        return ShapeError(ConfigError::kActiveSetEmpty,
                          "cmff requires at least one monitored entry");
      }
      return Status::OK();
    case Method::kWmSketch:
      // heap_capacity 0 is legal for WM (it disables passive top-K tracking).
      return ValidateTable(width, depth);
    case Method::kAwmSketch:
      WMS_RETURN_NOT_OK(ValidateTable(width, depth));
      if (heap_capacity < 1) {
        return ShapeError(ConfigError::kActiveSetEmpty,
                          "awm requires a non-empty active set");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown method");
}

size_t BudgetConfig::MemoryCostBytes() const {
  switch (method) {
    case Method::kSimpleTruncation:
      return HeapBytes(heap_capacity);
    case Method::kProbabilisticTruncation:
    case Method::kSpaceSavingFrequent:
      return HeapBytes(heap_capacity, /*aux_per_entry=*/1);
    case Method::kFeatureHashing:
      return TableBytes(width);
    case Method::kCountMinFrequent:
    case Method::kWmSketch:
    case Method::kAwmSketch:
      return TableBytes(static_cast<size_t>(width) * depth) + HeapBytes(heap_capacity);
  }
  return 0;
}

std::string BudgetConfig::ToString() const {
  std::ostringstream os;
  os << MethodName(method) << "(";
  switch (method) {
    case Method::kSimpleTruncation:
    case Method::kProbabilisticTruncation:
    case Method::kSpaceSavingFrequent:
      os << "K=" << heap_capacity;
      break;
    case Method::kFeatureHashing:
      os << "w=" << width;
      break;
    default:
      os << "|S|=" << heap_capacity << ", w=" << width << ", d=" << depth;
  }
  os << ")";
  return os.str();
}

namespace {

// Largest power of two with `cells` * 4 bytes <= `bytes` (>= 1 even for
// degenerate inputs; DefaultConfig rejects sub-minimum budgets before this
// can matter).
uint32_t WidthFittingBytes(size_t bytes) {
  const size_t cells = bytes / kBytesPerWeight;
  uint64_t w = 1;
  while (w * 2 <= cells) w *= 2;
  return static_cast<uint32_t>(w);
}

}  // namespace

Result<BudgetConfig> DefaultConfig(Method method, size_t budget_bytes) {
  if (budget_bytes < kMinBudgetBytes) {
    return Status::OutOfRange(
        "budget " + std::to_string(budget_bytes) + " bytes is below the " +
            std::to_string(kMinBudgetBytes) + "-byte minimum",
        ToDetail(ConfigError::kBudgetTooSmall));
  }
  BudgetConfig cfg;
  cfg.method = method;
  switch (method) {
    case Method::kSimpleTruncation:
      cfg.heap_capacity = budget_bytes / HeapBytes(1);
      break;
    case Method::kProbabilisticTruncation:
    case Method::kSpaceSavingFrequent:
      cfg.heap_capacity = budget_bytes / HeapBytes(1, 1);
      break;
    case Method::kFeatureHashing:
      cfg.width = WidthFittingBytes(budget_bytes);
      break;
    case Method::kCountMinFrequent: {
      cfg.heap_capacity = (budget_bytes / 2) / HeapBytes(1);
      cfg.depth = 2;
      cfg.width = WidthFittingBytes((budget_bytes - HeapBytes(cfg.heap_capacity)) / cfg.depth);
      break;
    }
    case Method::kWmSketch: {
      // Fig. 6: width 2^7 (2^8 at large budgets), depth scaling with budget,
      // a 1 KB top-K heap (half the budget below 2 KB). Matches the Table 2
      // optima at 2/8/16/32 KB.
      cfg.heap_capacity = std::min<size_t>(128, (budget_bytes / 2) / HeapBytes(1));
      const size_t sketch_bytes = budget_bytes - HeapBytes(cfg.heap_capacity);
      cfg.width = 128;
      if (TableBytes(cfg.width) > sketch_bytes) cfg.width = 64;
      cfg.depth = static_cast<uint32_t>(sketch_bytes / TableBytes(cfg.width));
      if (cfg.depth > 32) {
        cfg.width = 256;
        cfg.depth = static_cast<uint32_t>(sketch_bytes / TableBytes(cfg.width));
      }
      if (cfg.depth < 1) cfg.depth = 1;
      break;
    }
    case Method::kAwmSketch: {
      // Half to the active set, half to a depth-1 sketch (Sec. 7.3).
      cfg.heap_capacity = (budget_bytes / 2) / HeapBytes(1);
      cfg.depth = 1;
      cfg.width = WidthFittingBytes(budget_bytes - HeapBytes(cfg.heap_capacity));
      break;
    }
  }
  assert(cfg.MemoryCostBytes() <= budget_bytes);
  assert(cfg.Validate().ok());
  return cfg;
}

std::vector<BudgetConfig> EnumerateConfigs(Method method, size_t budget_bytes) {
  std::vector<BudgetConfig> out;
  if (budget_bytes < kMinBudgetBytes) return out;
  switch (method) {
    case Method::kSimpleTruncation:
    case Method::kProbabilisticTruncation:
    case Method::kSpaceSavingFrequent:
    case Method::kFeatureHashing:
      out.push_back(DefaultConfig(method, budget_bytes).value());
      return out;
    case Method::kCountMinFrequent: {
      for (const double heap_fraction : {0.25, 0.5, 0.75}) {
        BudgetConfig cfg;
        cfg.method = method;
        cfg.heap_capacity =
            static_cast<size_t>(static_cast<double>(budget_bytes) * heap_fraction) /
            HeapBytes(1);
        if (cfg.heap_capacity < 16) continue;
        const size_t table_bytes = budget_bytes - HeapBytes(cfg.heap_capacity);
        for (const uint32_t depth : {1u, 2u, 4u}) {
          if (table_bytes / depth < TableBytes(16)) continue;
          cfg.depth = depth;
          cfg.width = WidthFittingBytes(table_bytes / depth);
          out.push_back(cfg);
        }
      }
      return out;
    }
    case Method::kWmSketch:
    case Method::kAwmSketch: {
      for (const double heap_fraction : {0.25, 0.5, 0.75}) {
        BudgetConfig base;
        base.method = method;
        base.heap_capacity =
            static_cast<size_t>(static_cast<double>(budget_bytes) * heap_fraction) /
            HeapBytes(1);
        if (base.heap_capacity < 16) continue;
        const size_t sketch_bytes = budget_bytes - HeapBytes(base.heap_capacity);
        // Depth-major view: for each power-of-two width, the largest depth
        // that fits; skip degenerate widths.
        for (uint32_t width = 64; TableBytes(width) <= sketch_bytes; width *= 2) {
          BudgetConfig cfg = base;
          cfg.width = width;
          cfg.depth = static_cast<uint32_t>(sketch_bytes / TableBytes(width));
          if (cfg.depth < 1) continue;
          cfg.depth = std::min(cfg.depth, kMaxSketchDepth);
          out.push_back(cfg);
          // Also the depth-1 variant at this width (the AWM sweet spot).
          if (cfg.depth > 1) {
            BudgetConfig d1 = cfg;
            d1.depth = 1;
            out.push_back(d1);
          }
        }
      }
      return out;
    }
  }
  return out;
}

std::unique_ptr<BudgetedClassifier> MakeClassifier(const BudgetConfig& config,
                                                   const LearnerOptions& opts) {
  switch (config.method) {
    case Method::kSimpleTruncation:
      return std::make_unique<SimpleTruncation>(config.heap_capacity, opts);
    case Method::kProbabilisticTruncation:
      return std::make_unique<ProbabilisticTruncation>(config.heap_capacity, opts);
    case Method::kSpaceSavingFrequent:
      return std::make_unique<SpaceSavingFrequent>(config.heap_capacity, opts);
    case Method::kCountMinFrequent:
      return std::make_unique<CountMinFrequent>(config.width, config.depth,
                                                config.heap_capacity, opts);
    case Method::kFeatureHashing:
      return std::make_unique<FeatureHashingClassifier>(config.width, opts);
    case Method::kWmSketch:
    case Method::kAwmSketch: {
      const LinearSketchConfig shape{config.width, config.depth, config.heap_capacity};
      if (config.method == Method::kAwmSketch) return std::make_unique<AwmSketch>(shape, opts);
      return std::make_unique<WmSketch>(shape, opts);
    }
  }
  return nullptr;
}

}  // namespace wmsketch
