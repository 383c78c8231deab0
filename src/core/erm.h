#ifndef SLIMFAST_CORE_ERM_H_
#define SLIMFAST_CORE_ERM_H_

#include <vector>

#include "core/model.h"
#include "core/options.h"
#include "data/dataset.h"
#include "exec/parallel.h"
#include "util/random.h"
#include "util/result.h"

namespace slimfast {

struct CompiledInstance;

/// One (possibly weighted) labeled object: the object and the index of
/// the target value within its candidate domain. ERM consumes true labels
/// (weight 1); soft EM's M-step consumes posterior-weighted pseudo-labels.
struct LabeledExample {
  ObjectId object;
  int32_t target_index;
  double weight = 1.0;
};

/// One labeled observation for the accuracy log-loss of Definition 7:
/// source `source` made a claim that is correct (label 1) or not (label 0).
struct ObservationExample {
  SourceId source;
  double label;
  double weight = 1.0;
};

/// Sufficient statistics of the accuracy log-loss (Definition 7), which
/// depends on an example only through its source, label and weight:
/// weight[s] = W_s = Σ weight and label[s] = Y_s = Σ weight·label.
struct SourceStats {
  SourceStats() = default;
  explicit SourceStats(int64_t num_sources)
      : weight(static_cast<size_t>(num_sources)),
        label(static_cast<size_t>(num_sources)) {}
  void Add(SourceId source, double y, double w) {
    weight[static_cast<size_t>(source)] += w;
    label[static_cast<size_t>(source)] += w * y;
  }
  void Add(const SourceStats& other) {  // same number of sources
    for (size_t s = 0; s < weight.size(); ++s) {
      weight[s] += other.weight[s];
      label[s] += other.label[s];
    }
  }
  std::vector<double> weight;
  std::vector<double> label;
};

/// Statistics of a learner run.
struct FitStats {
  double final_loss = 0.0;  ///< mean weighted loss of the last epoch
  int32_t epochs = 0;
  bool converged = false;
};

/// Empirical risk minimization (Sec. 3.2): fits the model weights to
/// labeled data by minimizing a convex loss with SGD (optionally AdaGrad)
/// or full-batch proximal gradient descent.
///
/// L2 regularization applies to every parameter; L1 applies only to the
/// feature and copying parameters (SLiMFast's Lasso analysis operates on
/// domain features, Sec. 5.3.1).
class ErmLearner {
 public:
  explicit ErmLearner(ErmOptions options) : options_(options) {}

  const ErmOptions& options() const { return options_; }

  /// Builds object-posterior examples from the training objects of a split:
  /// one example per train object whose true value (from the instance's
  /// store) is one of its candidates.
  static std::vector<LabeledExample> ObjectExamples(
      const CompiledInstance& instance,
      const std::vector<ObjectId>& train_objects);

  /// Builds accuracy-loss examples: one per claim made on a train object.
  static std::vector<ObservationExample> ObservationExamples(
      const Dataset& dataset, const std::vector<ObjectId>& train_objects);

  /// Fits `model` in place on object-posterior examples (Eq. 4 likelihood)
  /// over `instance` — the compilation `model` was built on. A null
  /// `instance` is InvalidArgument. Through σ the gradient factors as
  /// g_w = Σ_s g_σs · ∂σ_s/∂w, with g_σs accumulated per claim. Batch mode
  /// shards that accumulation across `exec` (null = serial; results are
  /// identical either way); SGD mode is inherently sequential — each step
  /// reads the previous step's weights — and always runs serially.
  Result<FitStats> FitObjectLoss(const std::vector<LabeledExample>& examples,
                                 SlimFastModel* model, Rng* rng,
                                 Executor* exec,
                                 const CompiledInstance* instance) const;

  /// Fits `model` in place on accuracy log-loss examples (Definition 7).
  /// Trust scores read the compiled model's σ CSR, so `instance` is
  /// not read and may be null. With options().batch set, collapses the
  /// examples into SourceStats and runs FitSourceStats instead of SGD
  /// (`rng` is unused — no shuffling).
  /// Batch and SGD optimize the same objective but take different paths
  /// to it; each is bit-deterministic on its own.
  Result<FitStats> FitAccuracyLoss(
      const std::vector<ObservationExample>& examples, SlimFastModel* model,
      Rng* rng, const CompiledInstance* instance = nullptr) const;

  /// Full-batch proximal fit of the accuracy log-loss on per-source
  /// statistics, whatever options().batch says:
  ///   loss = Σ_s W_s·softplus(−σ_s) + (W_s − Y_s)·σ_s
  ///   dL/dσ_s = W_s·sigmoid(σ_s) − Y_s
  /// normalized to the mean over Σ_s W_s. An epoch costs O(sources +
  /// sigma terms), independent of the number of claims behind the stats.
  Result<FitStats> FitSourceStats(const SourceStats& stats,
                                  SlimFastModel* model) const;

  /// Convenience dispatch on options().loss building examples internally.
  /// A null `instance` is InvalidArgument, whichever loss is selected.
  Result<FitStats> Fit(const Dataset& dataset,
                       const std::vector<ObjectId>& train_objects,
                       SlimFastModel* model, Rng* rng, Executor* exec,
                       const CompiledInstance* instance) const;

 private:
  ErmOptions options_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_ERM_H_
