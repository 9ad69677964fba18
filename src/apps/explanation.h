#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "api/learner.h"
#include "sketch/space_saving.h"
#include "util/top_k_heap.h"

namespace wmsketch {

/// Streaming data explanation (Sec. 8.1): find the attribute values most
/// indicative of a row being an outlier by training a budgeted classifier to
/// discriminate outliers from inliers, then reading off its heaviest
/// weights. Logistic weights approximate log-odds ratios, which track the
/// relative risk MacroBase-style systems rank by.
///
/// Following the paper's setup, each row is fed as a *sequence of 1-sparse
/// examples* — one per attribute — rather than a single multi-hot vector, so
/// that learned weights correlate cleanly with per-attribute relative risk
/// (footnote 4 of the paper). The per-row example burst is ingested through
/// Learner::UpdateBatch, and retrieval returns detached, materialized lists
/// (take a LearnerSnapshot for frozen per-feature estimates).
class StreamingExplainer {
 public:
  /// Wraps a learner built through LearnerBuilder; the explainer does not
  /// own it. `outlier_repeats` upweights the (rarer) positive class by
  /// feeding each outlier row that many times: with outliers at fraction π,
  /// repeats ≈ (1−π)/π balances the classes so attribute weights become
  /// symmetric log-risk estimates (neutral ≈ 0) instead of being offset by
  /// the class prior — which is what makes magnitude-ranked retrieval
  /// surface *both* extremes of the risk scale (Fig. 8) and weights track
  /// relative risk linearly (Fig. 9).
  explicit StreamingExplainer(Learner* learner, uint32_t outlier_repeats = 1)
      : learner_(learner), outlier_repeats_(outlier_repeats) {}

  /// Observes one row: its attribute feature ids and outlier label. The
  /// row's 1-sparse examples (times the repeat factor) go in as one batch.
  void Observe(const std::vector<uint32_t>& attributes, bool outlier) {
    const int8_t y = outlier ? 1 : -1;
    const uint32_t repeats = outlier ? outlier_repeats_ : 1;
    batch_.clear();
    batch_.reserve(static_cast<size_t>(repeats) * attributes.size());
    for (uint32_t r = 0; r < repeats; ++r) {
      for (const uint32_t feature : attributes) {
        batch_.push_back(Example{SparseVector::OneHot(feature), y});
      }
    }
    learner_->UpdateBatch(batch_);
  }

  /// The k attributes with the largest |weight| — the extremes of the risk
  /// scale in both directions (Fig. 8's retrieval set), materialized into a
  /// detached list.
  std::vector<FeatureWeight> TopAttributes(size_t k) const { return learner_->TopK(k); }

  /// The k most outlier-indicative attributes: largest *signed* weights
  /// first. With imbalanced classes every weight may be negative (weights
  /// are conditional log-odds), so ranking by sign-descending weight — not
  /// by magnitude — identifies the risk-increasing side.
  std::vector<FeatureWeight> TopIndicative(size_t k) const {
    // Materialize everything the learner tracks, then re-rank by signed
    // weight.
    std::vector<FeatureWeight> all = learner_->TopK(std::numeric_limits<size_t>::max());
    std::sort(all.begin(), all.end(),
              [](const FeatureWeight& a, const FeatureWeight& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                return a.feature < b.feature;
              });
    if (all.size() > k) all.resize(k);
    return all;
  }

  const Learner& learner() const { return *learner_; }

 private:
  Learner* learner_;
  uint32_t outlier_repeats_;
  std::vector<Example> batch_;  // reused per row to avoid reallocation
};

/// The MacroBase-style heavy-hitter explainer the paper compares against
/// (Fig. 8 top row): Space-Saving summaries of the attribute stream, either
/// over the positive (outlier) rows only or over both classes. Features it
/// surfaces are merely *frequent* — the experiment shows their relative risk
/// clusters near 1, wasting the budget.
class HeavyHitterExplainer {
 public:
  enum class Mode {
    kPositiveOnly,  ///< count attributes of outlier rows only
    kBoth,          ///< count attributes of all rows
  };

  HeavyHitterExplainer(size_t capacity, Mode mode) : ss_(capacity), mode_(mode) {}

  /// Observes one row.
  void Observe(const std::vector<uint32_t>& attributes, bool outlier) {
    if (mode_ == Mode::kPositiveOnly && !outlier) return;
    for (const uint32_t feature : attributes) ss_.Update(feature);
  }

  /// The k most frequent attributes under the mode's counting rule.
  std::vector<uint32_t> TopAttributes(size_t k) const {
    std::vector<uint32_t> out;
    for (const SpaceSavingEntry& e : ss_.Entries()) {
      if (out.size() >= k) break;
      out.push_back(e.item);
    }
    return out;
  }

  Mode mode() const { return mode_; }

 private:
  SpaceSaving ss_;
  Mode mode_;
};

}  // namespace wmsketch
