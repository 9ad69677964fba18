#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hash/tabulation.h"
#include "linear/classifier.h"
#include "util/memory_cost.h"
#include "util/status.h"

namespace wmsketch {

/// Smallest budget the planner accepts (the paper's evaluation starts at
/// 2 KB; below 1 KiB every method degenerates).
inline constexpr size_t kMinBudgetBytes = KiB(1);

/// Why a configuration or budget was rejected. Carried as the `detail()`
/// subcode of the InvalidArgument/OutOfRange Status returned by
/// BudgetConfig::Validate, DefaultConfig, and LearnerBuilder::Build, so
/// callers can react to the *specific* violation without string matching.
enum class ConfigError : uint16_t {
  kNone = 0,
  kBudgetTooSmall = 1,       ///< budget below kMinBudgetBytes
  kWidthNotPowerOfTwo = 2,   ///< sketch/table width zero or not a power of two
  kDepthZero = 3,            ///< sketch depth 0 where a table is required
  kDepthTooLarge = 4,        ///< sketch depth above kMaxSketchDepth
  kActiveSetEmpty = 5,       ///< heap/active-set capacity 0 where >= 1 required
  kShapeUnderspecified = 6,  ///< builder given neither a budget nor a shape
  kShapeConflict = 7,        ///< builder given contradictory shape inputs
};

/// The numeric subcode for a ConfigError (what Status::detail() returns).
constexpr uint16_t ToDetail(ConfigError e) { return static_cast<uint16_t>(e); }

/// The memory-budgeted methods compared throughout the paper's evaluation.
enum class Method {
  kSimpleTruncation,         ///< "Trun" — Algorithm 3
  kProbabilisticTruncation,  ///< "PTrun" — Algorithm 4
  kSpaceSavingFrequent,      ///< "SS" — Space-Saving frequent features
  kCountMinFrequent,         ///< "CM-FF" — Count-Min frequent features
  kFeatureHashing,           ///< "Hash" — hashing trick
  kWmSketch,                 ///< "WM" — Algorithm 1
  kAwmSketch,                ///< "AWM" — Algorithm 2
};

/// Short stable name ("trun", "awm", ...) used in bench output.
std::string MethodName(Method method);
/// All methods, in the paper's plotting order.
const std::vector<Method>& AllMethods();

/// A concrete sizing of one method. Interpretation by method:
///  * truncation/SS: `heap_capacity` tracked entries; width/depth unused.
///  * hashing:       `width` buckets; heap/depth unused.
///  * WM/AWM:        sketch `width` x `depth` plus `heap_capacity` slots.
///  * CM-FF:         CM table `width` x `depth` plus `heap_capacity` slots.
struct BudgetConfig {
  Method method = Method::kAwmSketch;
  size_t heap_capacity = 0;
  uint32_t width = 0;
  uint32_t depth = 0;

  /// Footprint under the Sec. 7.1 cost model (must be <= the budget it was
  /// planned for; tests assert this for every planner output). Pure
  /// arithmetic — meaningful only for configurations that pass Validate().
  size_t MemoryCostBytes() const;

  /// Checks the shape invariants the classifier constructors require
  /// (power-of-two widths, 1 <= depth <= kMaxSketchDepth, non-empty
  /// heaps/active sets — per method). Returns InvalidArgument with a
  /// \ref ConfigError detail() identifying the violated invariant; this is
  /// the single validation point behind LearnerBuilder::Build, replacing
  /// the constructors' assert-and-abort behavior for untrusted shapes.
  Status Validate() const;

  /// Human-readable summary, e.g. "awm(|S|=512, w=1024, d=1)".
  std::string ToString() const;
};

/// The per-budget configuration the paper found best for each method
/// (Table 2 for WM/AWM; Sec. 7.3 for the rest):
///  * AWM: half the budget to the active set, half to a depth-1 sketch.
///  * WM: 1 KB heap, width 128 (256 at >=32 KB), depth filling the rest.
///  * Trun: budget/8 entries; PTrun & SS: budget/12 entries (3 fields).
///  * Hash: budget/4 buckets. CM-FF: half table (depth 2), half entries.
/// Budgets below kMinBudgetBytes yield OutOfRange with detail
/// ConfigError::kBudgetTooSmall (they used to be undefined behavior); every
/// returned config satisfies Validate() and fits the budget.
Result<BudgetConfig> DefaultConfig(Method method, size_t budget_bytes);

/// Enumerates the configuration grid the Table 2 search sweeps: heap/sketch
/// splits in {1/4, 1/2, 3/4} and feasible power-of-two widths with the depth
/// filling the remainder. Single-shape methods return just their default.
/// Budgets below kMinBudgetBytes yield an empty grid.
std::vector<BudgetConfig> EnumerateConfigs(Method method, size_t budget_bytes);

/// Instantiates a classifier from a configuration. The returned object is
/// freshly initialized (step count zero). This is the *internal* factory
/// behind LearnerBuilder::Build: it requires config.Validate().ok() and
/// asserts shape invariants rather than reporting them — build untrusted
/// configurations through the builder (src/api/learner.h) instead.
std::unique_ptr<BudgetedClassifier> MakeClassifier(const BudgetConfig& config,
                                                   const LearnerOptions& opts);

}  // namespace wmsketch
