#include "linear/loss.h"

#include "util/math.h"

namespace wmsketch {

double LogisticLoss::Derivative(double margin) const {
  // d/dm log(1+e^{-m}) = -sigmoid(-m).
  return -Sigmoid(-margin);
}

const LossFunction& DefaultLogisticLoss() {
  static const LogisticLoss kLoss;
  return kLoss;
}

}  // namespace wmsketch
