#ifndef SLIMFAST_CORE_EM_H_
#define SLIMFAST_CORE_EM_H_

#include <vector>

#include "core/erm.h"
#include "core/model.h"
#include "core/options.h"
#include "data/dataset.h"
#include "util/random.h"
#include "util/result.h"

namespace slimfast {

struct CompiledInstance;

/// Statistics of an EM run.
struct EmStats {
  /// E-steps run (the last one of a converged hard-EM run has no M-step).
  int32_t iterations = 0;
  /// Hard EM: stopped at its fixed point. Soft EM: the expected NLL met
  /// `EmOptions::tolerance` for `patience` rounds.
  bool converged = false;
  /// Expected negative log-likelihood at the last E-step (soft EM's
  /// convergence objective).
  double final_expected_nll = 0.0;
  /// Epochs run by all M-steps together: at most `m_step.epochs` times
  /// the round cap.
  int32_t mstep_epochs = 0;
};

/// Semi-supervised expectation maximization (Sec. 3.2).
///
/// E-step: compute the posterior of every unlabeled object under the
/// current weights; labeled (ground-truth) objects stay clamped as
/// evidence. The paper's E-step assigns MAP values (hard EM, the
/// default); soft EM keeps the full posterior as example weights.
///
/// M-step: given the (hard or soft) assignments, the likelihood of the
/// observations factors per claim as Bernoulli(A_s); the M-step therefore
/// fits the accuracy log-loss (Definition 7) over all claims, warm-started
/// from the previous weights. This matches the paper's "parameters are
/// estimated via their maximum likelihood values given v_o" and, unlike
/// re-fitting the object posterior on its own MAP labels, makes real
/// progress each round (the per-claim loss is not saturated by the model's
/// own predictions). The loss depends on a claim only through its source
/// and target, so the E-step hands the M-step per-source sums (SourceStats)
/// instead of one example per claim, and the M-step is the full-batch
/// ErmLearner::FitSourceStats: O(sources + sigma terms) per epoch for hard
/// and soft EM alike (`EmOptions::m_step.batch` is not consulted).
///
/// Stopping: `EmOptions::max_iterations` is a cap. Hard EM stops at its
/// fixed point: once the MAP assignment stops changing, an E-step repeats
/// the previous E-step's per-source sums exactly, and the M-step would
/// see the same problem again. That M-step is run to its own tolerance
/// (`ErmOptions::tolerance`, capped at the epochs the remaining rounds
/// would have spent); if the next E-step repeats the sums once more, EM
/// stops with `EmStats::converged`. All M-steps of a run share one
/// budget, `m_step.epochs` times the round cap; a run that spends it
/// stops unconverged. Soft EM stops when the expected NLL changes by less
/// than `EmOptions::tolerance` for `patience` rounds.
///
/// Initialization: with no usable ground truth, source weights start at
/// logit(init_accuracy) so the first E-step reduces to (weighted) majority
/// vote; with ground truth, an initial ERM fit on the labels seeds the
/// weights.
class EmLearner {
 public:
  explicit EmLearner(EmOptions options) : options_(options) {}

  const EmOptions& options() const { return options_; }

  /// Runs EM on `model` in place. `train_objects` may be empty
  /// (fully unsupervised). The E-step's per-object posterior imputation is
  /// sharded across `exec` (null = serial) with a deterministic reduce, so
  /// thread count never changes the fit; an instance whose σ terms,
  /// claims and candidates fall below kMinParallelWork runs its shards
  /// inline (see exec/parallel.h). Each E-step computes σ once and scores
  /// every object of `instance`, the compilation `model` was built on,
  /// from its claims; a null `instance` is InvalidArgument.
  ///
  /// With `warm_start` set, the model's current weights are taken as the
  /// starting point — initialization (the logit-prior source weights and
  /// the label-seeded fit) is skipped for the first run, so a
  /// warm-started relearn refines the previous fit instead of restarting.
  /// The warm run honors `EmOptions::warm_max_iterations`; the
  /// inversion-guard retry, if triggered, still initializes cold and
  /// keeps the full cold iteration budget.
  Result<EmStats> Fit(const Dataset& dataset,
                      const std::vector<ObjectId>& train_objects,
                      SlimFastModel* model, Rng* rng, Executor* exec,
                      const CompiledInstance* instance,
                      bool warm_start = false) const;

 private:
  /// One complete EM run (Fit adds the inversion-guard restart on top).
  Result<EmStats> FitOnce(const Dataset& dataset,
                          const std::vector<ObjectId>& train_objects,
                          SlimFastModel* model, Rng* rng,
                          bool seed_from_labels, bool warm_start,
                          Executor* exec,
                          const CompiledInstance& instance) const;

  /// MAP accuracy of `model` on the training objects whose truth is one
  /// of their candidates.
  static double TrainAccuracy(const Dataset& dataset,
                              const std::vector<ObjectId>& train_objects,
                              const SlimFastModel& model);

  /// Seeds weights before the first E-step.
  void Initialize(const Dataset& dataset,
                  const std::vector<LabeledExample>& labeled,
                  const std::vector<ObjectId>& train_objects,
                  SlimFastModel* model, Rng* rng) const;

  EmOptions options_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_EM_H_
