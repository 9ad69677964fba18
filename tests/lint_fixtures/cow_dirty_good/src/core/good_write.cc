#include <cstddef>
namespace simd {
void PlanScatter(float*, const void*, const float*, double);
void ScaleTable(float*, std::size_t, float);
}  // namespace simd
struct Table {
  float* data();
  std::size_t size() const;
  void MarkPlanDirty(const unsigned*, std::size_t);
  void MarkDirtyOffset(std::size_t);
  void MarkAllDirty();
  void Fill(float);
};
struct Model {
  Table table_;
  float* Row(unsigned j);
  void ScatterWithMark(const void* plan, const float* values) {
    table_.MarkPlanDirty(nullptr, 0);
    simd::PlanScatter(table_.data(), plan, values, 0.5);
  }
  void PointWriteWithMark(unsigned j, unsigned bucket, float delta) {
    table_.MarkDirtyOffset(bucket);
    Row(j)[bucket] += delta;
  }
  void SweepWithMark(float factor) {
    table_.MarkAllDirty();
    simd::ScaleTable(table_.data(), table_.size(), factor);
  }
  void Clear() { table_.Fill(0.0f); }  // Fill marks internally
};
