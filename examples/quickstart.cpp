// Quickstart: train an Active-Set Weight-Median Sketch on a synthetic
// high-dimensional stream under an 8 KB memory budget, classify online, and
// recover the most heavily-weighted features — the Fig. 1 workflow of the
// paper end to end, through the public Learner facade.
//
//   $ ./quickstart
//
// This file is the README's quickstart, verbatim. What to look for in the
// output: the sketch's online error rate tracks the memory-unconstrained
// model's while using ~3 orders of magnitude less memory, and the recovered
// top-10 features match the reference model's.

#include <cstdio>

#include "api/learner.h"
#include "datagen/classification_gen.h"
#include "linear/dense_linear_model.h"
#include "metrics/online_error.h"
#include "metrics/recovery.h"
#include "util/memory_cost.h"

using namespace wmsketch;

int main() {
  // A stream with RCV1-like statistics: 47,236 features, ~75 nonzeros per
  // example, Zipfian feature frequencies, noisy labels from a sparse
  // ground-truth model.
  const ClassificationProfile profile = ClassificationProfile::Rcv1Like();
  SyntheticClassificationGen stream(profile, /*seed=*/7);

  // An AWM-Sketch sized for an 8 KB budget (the planner picks 512 exact
  // active-set slots plus a depth-1 sketch of 1024 buckets — the paper's
  // best 8 KB configuration), with the paper's learner settings. Invalid
  // shapes come back as typed errors, not aborts.
  Result<Learner> built = LearnerBuilder()
                              .SetMethod(Method::kAwmSketch)
                              .SetBudgetBytes(KiB(8))
                              .SetLambda(1e-6)                               // l2 regularization
                              .SetLearningRate(LearningRate::InverseSqrt(0.1))  // 0.1/sqrt(t)
                              .SetSeed(42)
                              .Build();
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  Learner sketch = std::move(built).value();

  // The memory-unconstrained reference: a dense weight per feature (~190 KB).
  LearnerOptions reference_opts;
  reference_opts.lambda = 1e-6;
  reference_opts.seed = 42;
  DenseLinearModel reference(profile.dimension, reference_opts);

  // Stream in batches: UpdateBatch amortizes dispatch across the batch and
  // reports the pre-update margins, so progressive validation is free.
  OnlineErrorRate sketch_err, reference_err;
  const int kExamples = 100000, kBatch = 1000;
  std::vector<Example> batch(kBatch);
  std::vector<double> margins;
  for (int done = 0; done < kExamples; done += kBatch) {
    for (Example& ex : batch) ex = stream.Next();
    margins.clear();
    sketch.UpdateBatch(batch, &margins);
    for (int i = 0; i < kBatch; ++i) {
      sketch_err.Record(margins[i], batch[i].y);
      reference_err.Record(reference.Update(batch[i].x, batch[i].y), batch[i].y);
    }
  }

  std::printf("examples            : %d\n", kExamples);
  std::printf("sketch memory       : %zu bytes\n", sketch.MemoryCostBytes());
  std::printf("reference memory    : %zu bytes\n", reference.MemoryCostBytes());
  std::printf("sketch error rate   : %.4f\n", sketch_err.Rate());
  std::printf("reference error rate: %.4f\n", reference_err.Rate());

  // Query through an immutable snapshot: the top-10 materialized at capture
  // time plus the frozen read model, detached from the live model.
  const LearnerSnapshot snapshot = sketch.Snapshot(/*top_k=*/10);
  const std::vector<float> w_star = reference.Weights();
  std::printf("\n%-10s %12s %12s\n", "feature", "sketch-w", "reference-w");
  for (const FeatureWeight& fw : snapshot.top_k()) {
    std::printf("%-10u %12.4f %12.4f\n", fw.feature, fw.weight, w_star[fw.feature]);
  }
  std::printf("\nRelErr of top-10 vs uncompressed model: %.4f (1.0 = perfect)\n",
              RelErrTopK(snapshot.top_k(), w_star, 10));
  return 0;
}
