#ifndef SLIMFAST_CORE_SLIMFAST_H_
#define SLIMFAST_CORE_SLIMFAST_H_

#include <memory>
#include <string>

#include "core/compiled_instance.h"
#include "core/model.h"
#include "core/optimizer.h"
#include "core/options.h"
#include "data/fusion.h"
#include "exec/parallel.h"

namespace slimfast {

/// Result of SlimFast::Fit — the trained model plus run metadata, for
/// callers that need more than the FusionOutput (Lasso analysis, source
/// quality prediction, copying inspection).
struct SlimFastFit {
  SlimFastModel model;
  OptimizerDecision decision;
  Algorithm algorithm_used = Algorithm::kErm;
  double compile_seconds = 0.0;
  double learn_seconds = 0.0;
  /// The compiled instance the fit ran over, shared with the model.
  std::shared_ptr<const CompiledInstance> instance;
  /// True when the fit seeded from a previous weight vector and ran the
  /// warm refinement schedule instead of the cold-start budget.
  bool warm_started = false;
  /// Learner convergence, from whichever learner ran: ERM epochs or EM
  /// iterations actually executed.
  int32_t learn_iterations = 0;
  /// Whether the learner met its tolerance before exhausting its budget.
  bool learn_converged = false;
  /// The learner's final objective (ERM: regularized loss; EM: expected
  /// negative log-likelihood). Comparable across relearns of the same
  /// shard, which is what the flight recorder samples it for.
  double learn_objective = 0.0;
};

/// The SLiMFast framework facade (Figure 3): compilation → optimizer →
/// learning (ERM or EM) → inference.
///
/// Different option presets recover the paper's method variants:
///   MakeSlimFast()      features + optimizer        ("SLiMFast")
///   MakeSlimFastErm()   features, forced ERM        ("SLiMFast-ERM")
///   MakeSlimFastEm()    features, forced EM         ("SLiMFast-EM")
///   MakeSourcesErm()    no features, forced ERM     ("Sources-ERM")
///   MakeSourcesEm()     no features, forced EM      ("Sources-EM")
class SlimFast : public FusionMethod {
 public:
  explicit SlimFast(SlimFastOptions options, std::string name = "SLiMFast")
      : options_(options), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  const SlimFastOptions& options() const { return options_; }

  /// Compiles, decides the algorithm, and learns; returns the trained
  /// model with metadata. `exec` shards the parallelizable learning stages
  /// (null = serial; pass one to share a thread pool across calls — Run
  /// builds its own from options().exec). Thread count never changes the
  /// fit (see exec/parallel.h).
  Result<SlimFastFit> Fit(const Dataset& dataset, const TrainTestSplit& split,
                          uint64_t seed, Executor* exec = nullptr) const;

  /// Learns against an already-compiled instance — the incremental
  /// relearning entry point used by `FusionSession`. Compilation is
  /// skipped entirely (`instance` typically comes from `DeltaCompile`).
  /// The instance is the only input: the optimizer, the learners and the
  /// labels of `split.train_objects` all read its store.
  ///
  /// When `warm_weights` is non-null, its size matches the instance's
  /// parameter layout, and `options().warm_start.enabled` is set, the fit
  /// seeds from those weights and runs the warm refinement schedule
  /// (`WarmStartOptions::budget_scale` of the cold epoch/iteration
  /// budget) instead of the full cold start; otherwise it learns cold.
  Result<SlimFastFit> FitCompiled(
      const TrainTestSplit& split, uint64_t seed,
      std::shared_ptr<const CompiledInstance> instance,
      const std::vector<double>* warm_weights = nullptr,
      Executor* exec = nullptr) const;

  /// FitCompiled with an unread `Dataset`. Kept only for
  /// perfbench/driver.cc; delete it in the next benchmark-scoped change.
  Result<SlimFastFit> FitCompiled(
      const Dataset& dataset, const TrainTestSplit& split, uint64_t seed,
      std::shared_ptr<const CompiledInstance> instance,
      const std::vector<double>* warm_weights = nullptr,
      Executor* exec = nullptr) const;

  /// Full fusion run: Fit + inference, packaged as FusionOutput.
  Result<FusionOutput> Run(const Dataset& dataset,
                           const TrainTestSplit& split,
                           uint64_t seed) override;

 private:
  SlimFastOptions options_;
  std::string name_;
};

/// Preset factories for the method variants evaluated in the paper.
std::unique_ptr<SlimFast> MakeSlimFast(SlimFastOptions options = {});
std::unique_ptr<SlimFast> MakeSlimFastErm(SlimFastOptions options = {});
std::unique_ptr<SlimFast> MakeSlimFastEm(SlimFastOptions options = {});
std::unique_ptr<SlimFast> MakeSourcesErm(SlimFastOptions options = {});
std::unique_ptr<SlimFast> MakeSourcesEm(SlimFastOptions options = {});

}  // namespace slimfast

#endif  // SLIMFAST_CORE_SLIMFAST_H_
