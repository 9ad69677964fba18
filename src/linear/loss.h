#pragma once

#include <string>

namespace wmsketch {

/// A margin-based classification loss ℓ(m), where m = y·(wᵀx).
///
/// The online update for every classifier in this library is
///   w ← (1−ηλ)·w − η·y·ℓ'(m)·x,
/// so the interface exposes the scalar derivative ℓ'(m). The theory
/// (Theorems 1–2) requires β-strong smoothness; the logistic loss is
/// 1/4-smooth (paper Sec. 6.1 uses the loose bound β = 1).
class LossFunction {
 public:
  virtual ~LossFunction() = default;

  /// Loss value at margin m.
  virtual double Value(double margin) const = 0;

  /// Derivative dℓ/dm at margin m (non-positive for monotone losses).
  virtual double Derivative(double margin) const = 0;

  /// Stable identifier for logs and bench output.
  virtual std::string Name() const = 0;
};

/// Logistic loss ℓ(m) = log(1 + e^{−m}); defines logistic regression.
class LogisticLoss final : public LossFunction {
 public:
  double Value(double margin) const override;
  double Derivative(double margin) const override;
  std::string Name() const override { return "logistic"; }
};

/// Process-lifetime singleton logistic loss (the default everywhere, as in
/// the paper's experiments).
const LossFunction& DefaultLogisticLoss();

}  // namespace wmsketch
