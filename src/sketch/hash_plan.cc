#include "sketch/hash_plan.h"

namespace wmsketch {

HashPlan& TlsPlan() {
  static thread_local HashPlan plan;
  return plan;
}

HashPlanArena& TlsArena() {
  static thread_local HashPlanArena arena;
  return arena;
}

}  // namespace wmsketch
