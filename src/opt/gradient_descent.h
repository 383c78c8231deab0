#ifndef SLIMFAST_OPT_GRADIENT_DESCENT_H_
#define SLIMFAST_OPT_GRADIENT_DESCENT_H_

#include <functional>
#include <vector>

#include "opt/schedule.h"
#include "util/result.h"

namespace slimfast {

/// A differentiable objective f: R^d -> R evaluated with its dense gradient.
/// The callback writes the gradient into `grad` (pre-sized to d) and
/// returns the objective value.
using ValueAndGradientFn = std::function<double(
    const std::vector<double>& w, std::vector<double>* grad)>;

/// Options for the batch (full-gradient) descent driver.
struct GradientDescentOptions {
  double learning_rate = 0.1;
  LrDecay decay = LrDecay::kConstant;
  int32_t max_iterations = 500;
  /// L2 penalty coefficient (added as lambda * ||w||^2 / 2).
  double l2 = 0.0;
  /// L1 penalty applied via proximal soft-thresholding after each step.
  double l1 = 0.0;
  /// Convergence: relative loss change below tol for `patience` iters.
  double tolerance = 1e-8;
  int32_t patience = 3;
};

/// Result of a descent run.
struct GradientDescentResult {
  std::vector<double> weights;
  double final_loss = 0.0;
  int32_t iterations = 0;
  bool converged = false;
};

/// Minimizes `objective` (plus the configured penalties) from `init` with
/// proximal batch gradient descent.
///
/// This driver backs the small dense problems in the library — the rank-1
/// matrix-completion refinement and unit-test objectives. The fusion
/// learners use their own sparse SGD loops (see core/erm.h, core/em.h).
Result<GradientDescentResult> MinimizeBatch(
    const ValueAndGradientFn& objective, std::vector<double> init,
    const GradientDescentOptions& options);

}  // namespace slimfast

#endif  // SLIMFAST_OPT_GRADIENT_DESCENT_H_
