#include "core/slimfast.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/em.h"
#include "core/erm.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace slimfast {

namespace {

/// Warm refinement budget: `budget_scale` of the cold budget, floored at
/// `floor` but never above the cold budget itself.
int32_t WarmBudget(int32_t cold, double scale, int32_t floor) {
  int32_t scaled = static_cast<int32_t>(
      std::lround(static_cast<double>(cold) * scale));
  return std::min(cold, std::max(floor, scaled));
}

}  // namespace

Result<SlimFastFit> SlimFast::Fit(const Dataset& dataset,
                                  const TrainTestSplit& split,
                                  uint64_t seed, Executor* exec) const {
  // Compilation: the CompiledInstance whose flat index ranges all
  // learning stages walk. The structure is immutable and shared with the
  // model via shared_ptr.
  Stopwatch compile_watch;
  SLIMFAST_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledInstance> instance,
                            CompileInstance(dataset, options_.model));
  double compile_seconds = compile_watch.ElapsedSeconds();
  if (obs::Enabled()) {
    static obs::LatencyHistogram* compile_hist =
        obs::GetHistogram("slimfast_core_compile_seconds");
    compile_hist->RecordSeconds(compile_seconds);
  }
  if (obs::TraceRecorder::Global().enabled()) {
    // Reconstruct the span from the stopwatch reading: a scoped
    // TraceSpan here would also cover the learning stages below.
    const auto end = std::chrono::steady_clock::now();
    obs::TraceRecorder::Global().RecordComplete(
        "core.compile",
        end - std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(compile_seconds)),
        end);
  }
  SLIMFAST_ASSIGN_OR_RETURN(
      SlimFastFit fit, FitCompiled(split, seed, std::move(instance),
                                   /*warm_weights=*/nullptr, exec));
  fit.compile_seconds = compile_seconds;
  return fit;
}

Result<SlimFastFit> SlimFast::FitCompiled(
    const TrainTestSplit& split, uint64_t seed,
    std::shared_ptr<const CompiledInstance> instance,
    const std::vector<double>* warm_weights, Executor* exec) const {
  if (instance == nullptr) {
    return Status::InvalidArgument("FitCompiled requires an instance");
  }
  const CompiledModel& compiled = *instance->model;
  obs::TraceSpan learn_span("core.learn");
  OptimizerDecision decision;
  Algorithm algorithm = options_.algorithm;
  if (algorithm == Algorithm::kAuto) {
    decision = DecideAlgorithm(instance->store, split,
                               compiled.layout.num_params, options_.optimizer);
    algorithm = decision.algorithm;
  } else {
    decision.algorithm = algorithm;
  }

  // Warm start: seed from the previous fit's weights and shrink the
  // learning budget. A layout mismatch (the parameter universe changed)
  // silently falls back to a cold fit — correctness first.
  const bool warm =
      options_.warm_start.enabled && warm_weights != nullptr &&
      warm_weights->size() ==
          static_cast<size_t>(compiled.layout.num_params);
  ErmOptions erm_options = options_.erm;
  EmOptions em_options = options_.em;
  if (warm) {
    erm_options.epochs =
        WarmBudget(erm_options.epochs, options_.warm_start.budget_scale,
                   options_.warm_start.min_erm_epochs);
    // The warm cap lives in its own field: EM's inversion-guard retry is
    // a cold restart and must keep the full max_iterations budget.
    em_options.warm_max_iterations =
        WarmBudget(em_options.max_iterations,
                   options_.warm_start.budget_scale,
                   options_.warm_start.min_em_iterations);
  }

  Stopwatch learn_watch;
  SlimFastModel model(instance);
  if (warm) model.SetWeights(*warm_weights);
  Rng rng(seed);
  int32_t learn_iterations = 0;
  bool learn_converged = false;
  double learn_objective = 0.0;
  if (algorithm == Algorithm::kErm) {
    ErmLearner learner(erm_options);
    auto stats = learner.Fit(split.train_objects, &model, &rng, exec);
    if (!stats.ok()) {
      // No usable ground truth for ERM (e.g. 0% training data with a
      // forced-ERM preset): fall back to EM rather than failing the run.
      EmLearner em(em_options);
      SLIMFAST_ASSIGN_OR_RETURN(EmStats em_stats,
                                em.Fit(split.train_objects, &model, &rng,
                                       exec, warm));
      learn_iterations = em_stats.iterations;
      learn_converged = em_stats.converged;
      learn_objective = em_stats.final_expected_nll;
      algorithm = Algorithm::kEm;
    } else {
      const FitStats& erm_stats = stats.ValueOrDie();
      learn_iterations = erm_stats.epochs;
      learn_converged = erm_stats.converged;
      learn_objective = erm_stats.final_loss;
    }
  } else {
    EmLearner learner(em_options);
    SLIMFAST_ASSIGN_OR_RETURN(
        EmStats em_stats,
        learner.Fit(split.train_objects, &model, &rng, exec, warm));
    learn_iterations = em_stats.iterations;
    learn_converged = em_stats.converged;
    learn_objective = em_stats.final_expected_nll;
  }

  const double learn_seconds = learn_watch.ElapsedSeconds();
  if (obs::Enabled()) {
    // Per-algorithm learn timings: EM runs ~200x longer than a warm ERM
    // relearn, so folding them into one histogram would bury the signal
    // the relearn scheduler needs.
    static obs::LatencyHistogram* erm_hist = obs::GetHistogram(
        "slimfast_core_learn_seconds{algorithm=\"erm\"}");
    static obs::LatencyHistogram* em_hist = obs::GetHistogram(
        "slimfast_core_learn_seconds{algorithm=\"em\"}");
    (algorithm == Algorithm::kErm ? erm_hist : em_hist)
        ->RecordSeconds(learn_seconds);
  }
  SlimFastFit fit{std::move(model), decision, algorithm,
                  /*compile_seconds=*/0.0, learn_seconds, std::move(instance),
                  warm};
  fit.learn_iterations = learn_iterations;
  fit.learn_converged = learn_converged;
  fit.learn_objective = learn_objective;
  return fit;
}

Result<SlimFastFit> SlimFast::FitCompiled(
    const Dataset& /*dataset*/, const TrainTestSplit& split, uint64_t seed,
    std::shared_ptr<const CompiledInstance> instance,
    const std::vector<double>* warm_weights, Executor* exec) const {
  return FitCompiled(split, seed, std::move(instance), warm_weights, exec);
}

Result<FusionOutput> SlimFast::Run(const Dataset& dataset,
                                   const TrainTestSplit& split,
                                   uint64_t seed) {
  Executor exec(options_.exec);
  SLIMFAST_ASSIGN_OR_RETURN(SlimFastFit fit,
                            Fit(dataset, split, seed, &exec));

  Stopwatch infer_watch;
  FusionOutput output;
  output.method_name = name_;
  output.detail = fit.decision.ToString();

  output.predicted_values = fit.model.PredictAll();
  output.source_accuracies = fit.model.AllSourceAccuracies();
  if (options_.calibrate_accuracies &&
      fit.algorithm_used == Algorithm::kErm &&
      !split.train_objects.empty()) {
    // Definition 7 calibration pass: warm-start a copy of the model and
    // fit the accuracy log-loss on the labeled claims. Only the reported
    // accuracies change; predictions keep the discriminative optimum.
    SlimFastModel calibrated(fit.model.shared_compiled());
    calibrated.SetWeights(fit.model.weights());
    ErmOptions calibration = options_.erm;
    calibration.loss = ErmLoss::kAccuracyLogLoss;
    calibration.batch = false;
    calibration.epochs = std::max<int32_t>(30, calibration.epochs / 2);
    ErmLearner learner(calibration);
    auto examples = ErmLearner::ObservationExamples(fit.instance->store,
                                                    split.train_objects);
    Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
    auto stats = learner.FitAccuracyLoss(examples, &calibrated, &rng,
                                         fit.instance.get());
    if (stats.ok()) {
      output.source_accuracies = calibrated.AllSourceAccuracies();
    }
  }
  output.compile_seconds = fit.compile_seconds;
  output.learn_seconds = fit.learn_seconds;
  output.infer_seconds = infer_watch.ElapsedSeconds();
  return output;
}

namespace {
std::unique_ptr<SlimFast> MakeVariant(SlimFastOptions options,
                                      bool features, Algorithm algorithm,
                                      const char* name) {
  options.model.use_feature_weights = features;
  options.algorithm = algorithm;
  return std::make_unique<SlimFast>(options, name);
}
}  // namespace

std::unique_ptr<SlimFast> MakeSlimFast(SlimFastOptions options) {
  return MakeVariant(options, true, Algorithm::kAuto, "SLiMFast");
}
std::unique_ptr<SlimFast> MakeSlimFastErm(SlimFastOptions options) {
  return MakeVariant(options, true, Algorithm::kErm, "SLiMFast-ERM");
}
std::unique_ptr<SlimFast> MakeSlimFastEm(SlimFastOptions options) {
  return MakeVariant(options, true, Algorithm::kEm, "SLiMFast-EM");
}
std::unique_ptr<SlimFast> MakeSourcesErm(SlimFastOptions options) {
  return MakeVariant(options, false, Algorithm::kErm, "Sources-ERM");
}
std::unique_ptr<SlimFast> MakeSourcesEm(SlimFastOptions options) {
  return MakeVariant(options, false, Algorithm::kEm, "Sources-EM");
}

}  // namespace slimfast
