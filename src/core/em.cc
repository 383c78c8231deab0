#include "core/em.h"

#include <algorithm>
#include <cmath>

#include "core/compiled_instance.h"
#include "exec/parallel.h"
#include "obs/trace.h"
#include "opt/convergence.h"
#include "simd/simd.h"
#include "util/math.h"

namespace slimfast {

namespace {

/// Per-shard accumulator of the E-step: per-source statistics of the
/// imputed claim targets plus the shard's expected NLL contribution.
struct EStepAcc {
  SourceStats stats;
  double nll = 0.0;
};

/// Adds one unclamped row's imputed claim targets and NLL contribution.
/// `probs` is the row's posterior; `soft_entropy` is its precomputed
/// entropy (ignored on the hard path); claims arrive as parallel arrays of
/// source and within-row candidate index.
inline void EmitRow(const double* probs, int64_t domain_size, bool soft,
                    double soft_entropy, const SourceId* claim_src,
                    const int32_t* claim_di, int64_t num_claims,
                    EStepAcc* acc) {
  if (domain_size == 0) return;  // unobserved object: nothing to impute
  if (soft) {
    // Soft target per claim: q = P(To = claimed value).
    simd::AccumulateWeightedCounts(claim_src, claim_di, num_claims, probs,
                                   1.0, acc->stats.weight.data(),
                                   acc->stats.label.data());
    acc->nll += soft_entropy;
  } else {
    int32_t map_index = 0;
    for (int64_t di = 1; di < domain_size; ++di) {
      if (probs[di] > probs[map_index]) map_index = static_cast<int32_t>(di);
    }
    for (int64_t i = 0; i < num_claims; ++i) {
      acc->stats.Add(claim_src[i], claim_di[i] == map_index ? 1.0 : 0.0,
                     1.0);
    }
    acc->nll += -std::log(std::max(probs[map_index], 1e-300));
  }
}

/// The E-step over the objects of shard `range`, given the pass's trust
/// scores `sigma`: CandidateScores for every object into one packed
/// buffer, SoftmaxRows over all of them at once, and (soft mode)
/// BatchEntropyTerms + FoldRanges for the per-row entropies, before a
/// scalar emission walk over the claims. Clamped rows' posteriors are
/// computed and discarded: keeping the spans contiguous beats compacting
/// them (clamped rows are a small training fraction), and emission skips
/// them. By the lane-stable kernel contract (see src/simd/simd.h) each
/// row's posterior is bit-identical to SlimFastModel::Posterior.
void EStepShard(const CompiledInstance& inst, const std::vector<double>& sigma,
                const std::vector<double>& w, const EmOptions& options,
                const std::vector<uint8_t>& clamped, const ShardRange& range,
                EStepAcc* acc) {
  const ObservationStore& store = inst.store;
  const int64_t* cand_begin = store.domain_offsets().data();
  const int64_t* claim_begin = store.object_offsets().data();
  const int64_t num_rows = range.end - range.begin;
  if (num_rows <= 0) return;
  const int64_t cand_b = cand_begin[range.begin];
  const int64_t ncand = cand_begin[range.end] - cand_b;
  if (ncand == 0) return;

  std::vector<double> scores(static_cast<size_t>(ncand));
  for (int64_t o = range.begin; o < range.end; ++o) {
    CandidateScores(inst, static_cast<ObjectId>(o), sigma.data(), w.data(),
                    scores.data() + (cand_begin[o] - cand_b));
  }
  simd::SoftmaxRows(cand_begin + range.begin, num_rows, cand_b,
                    scores.data());

  std::vector<double> row_ent;
  if (options.soft) {
    std::vector<double> ent_terms(static_cast<size_t>(ncand));
    simd::BatchEntropyTerms(scores.data(), ent_terms.data(), ncand);
    row_ent.resize(static_cast<size_t>(num_rows));
    simd::FoldRanges(cand_begin + range.begin, num_rows, cand_b,
                     ent_terms.data(), nullptr, row_ent.data());
  }

  for (int64_t o = range.begin; o < range.end; ++o) {
    if (clamped[static_cast<size_t>(o)]) continue;
    const int64_t cb = claim_begin[o];
    EmitRow(scores.data() + (cand_begin[o] - cand_b),
            cand_begin[o + 1] - cand_begin[o], options.soft,
            options.soft ? row_ent[static_cast<size_t>(o - range.begin)]
                         : 0.0,
            store.sources().data() + cb, inst.claim_cand.data() + cb,
            claim_begin[o + 1] - cb, acc);
  }
}

}  // namespace

void EmLearner::Initialize(const Dataset& dataset,
                           const std::vector<LabeledExample>& labeled,
                           const std::vector<ObjectId>& train_objects,
                           SlimFastModel* model, Rng* rng) const {
  const ParamLayout& layout = model->layout();
  if (layout.num_source_params > 0) {
    double w0 = Logit(options_.init_accuracy);
    std::vector<double>& w = *model->mutable_weights();
    for (int32_t i = 0; i < layout.num_source_params; ++i) {
      w[static_cast<size_t>(layout.source_offset + i)] = w0;
    }
  }
  if (!labeled.empty()) {
    // Seed from the available ground truth (accuracy log-loss, matching
    // the M-step); errors here are non-fatal — EM proceeds from the prior.
    ErmOptions seed_fit = options_.m_step;
    seed_fit.batch = false;  // the SGD fit, whatever m_step.batch says
    ErmLearner erm(seed_fit);
    auto examples = ErmLearner::ObservationExamples(dataset, train_objects);
    auto st = erm.FitAccuracyLoss(examples, model, rng);
    (void)st;
  }
}

Result<EmStats> EmLearner::Fit(const Dataset& dataset,
                               const std::vector<ObjectId>& train_objects,
                               SlimFastModel* model, Rng* rng,
                               Executor* exec,
                               const CompiledInstance* instance,
                               bool warm_start) const {
  if (instance == nullptr) {
    return Status::InvalidArgument("EM requires a compiled instance");
  }
  SLIMFAST_ASSIGN_OR_RETURN(
      EmStats stats, FitOnce(dataset, train_objects, model, rng,
                             /*seed_from_labels=*/true, warm_start, exec,
                             *instance));
  // Inversion guard: EM has a symmetric fixed point where most trust
  // scores flip sign (every label is anti-predicted). The ground-truth
  // objects are clamped during the E-step, so a healthy run predicts them
  // correctly; if the converged model gets fewer than half of its own
  // training labels right, restart from the prior initialization without
  // the label-seeded fit and keep the better of the two runs.
  if (!train_objects.empty()) {
    double accuracy = TrainAccuracy(dataset, train_objects, *model);
    if (accuracy < 0.5) {
      SlimFastModel retry(model->shared_compiled());
      SLIMFAST_ASSIGN_OR_RETURN(
          EmStats retry_stats,
          FitOnce(dataset, train_objects, &retry, rng,
                  /*seed_from_labels=*/false, /*warm_start=*/false, exec,
                  *instance));
      if (TrainAccuracy(dataset, train_objects, retry) > accuracy) {
        model->SetWeights(retry.weights());
        return retry_stats;
      }
    }
  }
  return stats;
}

double EmLearner::TrainAccuracy(const Dataset& dataset,
                                const std::vector<ObjectId>& train_objects,
                                const SlimFastModel& model) {
  const std::vector<double> sigma = model.TrustScores();
  const ObservationStore& store = model.instance().store;
  int64_t evaluated = 0;
  int64_t correct = 0;
  for (ObjectId o : train_objects) {
    if (!dataset.HasTruth(o)) continue;
    // Only rows whose truth is a candidate can be predicted correctly.
    const int32_t target = store.DomainIndexOf(o, dataset.Truth(o));
    if (target < 0) continue;
    ++evaluated;
    if (model.MapIndex(o, sigma) == target) ++correct;
  }
  if (evaluated == 0) return 1.0;
  return static_cast<double>(correct) / static_cast<double>(evaluated);
}

Result<EmStats> EmLearner::FitOnce(const Dataset& dataset,
                                   const std::vector<ObjectId>& train_objects,
                                   SlimFastModel* model, Rng* rng,
                                   bool seed_from_labels, bool warm_start,
                                   Executor* exec,
                                   const CompiledInstance& instance) const {
  const ObservationStore& store = instance.store;
  if (store.num_observations() == 0) {
    return Status::FailedPrecondition("EM requires at least one observation");
  }

  std::vector<LabeledExample> labeled =
      ErmLearner::ObjectExamples(instance, train_objects);
  // Rows clamped to ground truth (never re-imputed by the E-step): every
  // train object whose truth is known, including one whose truth no
  // source claims. clamped_stats below holds all of their claims, so an
  // unclamped labeled row would count its claims twice.
  std::vector<uint8_t> clamped(static_cast<size_t>(store.num_objects()), 0);
  for (ObjectId o : train_objects) {
    if (dataset.HasTruth(o)) clamped[static_cast<size_t>(o)] = 1;
  }

  // A warm-started relearn refines the model's current weights (the
  // previous fit); clobbering them with the prior would throw away the
  // state the short refinement schedule depends on.
  if (!warm_start) {
    Initialize(dataset,
               seed_from_labels ? labeled : std::vector<LabeledExample>{},
               train_objects, model, rng);
  }

  // Claims on clamped objects keep their targets across iterations, so
  // their statistics are collected once per fit.
  const int64_t num_sources = model->compiled().num_sources;
  SourceStats clamped_stats(num_sources);
  for (const ObservationExample& ex :
       ErmLearner::ObservationExamples(dataset, train_objects)) {
    clamped_stats.Add(ex.source, ex.label, ex.weight);
  }

  ConvergenceTracker tracker(options_.tolerance, options_.patience);

  // A warm-started run refines on its own (shorter) budget; cold runs —
  // including the inversion-guard retry inside a warm relearn — get the
  // full cold cap.
  const int32_t max_iterations =
      (warm_start && options_.warm_max_iterations > 0)
          ? options_.warm_max_iterations
          : options_.max_iterations;
  // The E-step's work for the exec minimum-work rule: per pass every σ
  // term is folded, every claim gathers one σ and is emitted, and every
  // candidate is scored and normalized.
  const int64_t estep_work =
      static_cast<int64_t>(model->compiled().sigma_param.size()) +
      store.num_observations() +
      static_cast<int64_t>(store.domain_values().size());

  // Hard EM's fixed point. The M-step sees the E-step only through the
  // per-source sums, so an E-step whose sums equal the previous one's
  // hands it the same convex problem again. That M-step is run to its own
  // tolerance (capped at the epochs the remaining rounds would have
  // spent); if the next E-step repeats the sums once more, its weights
  // are the fixed point and EM stops.
  SourceStats previous;  // the last E-step's sums (hard EM)
  bool settled = false;  // the last M-step was run to its tolerance
  // Every M-step of the run draws on one budget, the epochs of
  // max_iterations ordinary M-steps, so sums that keep repeating and
  // changing cannot grant long M-steps past it. A run that spends it
  // stops unconverged.
  int64_t epochs_left = int64_t{options_.m_step.epochs} * max_iterations;

  EmStats stats;
  for (int32_t iter = 0; iter < max_iterations; ++iter) {
    // ---- E-step: impute value posteriors for unclamped rows and turn
    // them into per-claim correctness targets. Given an assignment (or
    // posterior) for To, the likelihood of the observations factors per
    // claim as Bernoulli(A_s), so the M-step below is exactly the
    // "maximum likelihood values given v_o" of Sec. 3.2 — and, unlike
    // refitting the object posterior on its own MAP labels, it cannot
    // merely re-confirm the current predictions. The targets enter the
    // M-step only through per-source sums, which each shard accumulates
    // and which fold in shard order: the statistics are identical for
    // every thread count.
    EStepAcc estep;
    {
      obs::TraceSpan span("core.em.estep");
      const std::vector<double> sigma = model->TrustScores();
      estep = DeterministicReduce(
          exec, static_cast<int64_t>(store.num_objects()),
          EStepAcc{SourceStats(num_sources), 0.0},
          [&](const ShardRange& range, EStepAcc* acc) {
            EStepShard(instance, sigma, model->weights(), options_, clamped,
                       range, acc);
          },
          [](EStepAcc* total, const EStepAcc& shard) {
            total->stats.Add(shard.stats);
            total->nll += shard.nll;
          },
          estep_work);
      estep.stats.Add(clamped_stats);
      for (const LabeledExample& ex : labeled) {
        estep.nll += model->ObjectNll(ex.object, sigma, ex.target_index);
      }
    }

    stats.iterations = iter + 1;
    stats.final_expected_nll = estep.nll;

    ErmOptions m_step = options_.m_step;
    if (!options_.soft) {
      const bool repeated = estep.stats.weight == previous.weight &&
                            estep.stats.label == previous.label;
      if (repeated && settled) {
        stats.converged = true;
        break;
      }
      settled = repeated;
      if (repeated) m_step.epochs *= max_iterations - iter;
    }
    m_step.epochs = static_cast<int32_t>(
        std::min<int64_t>(m_step.epochs, epochs_left));
    if (m_step.epochs <= 0) break;

    // ---- M-step: warm-started full-batch accuracy-loss fit on the
    // per-source statistics of all claim targets. ----
    {
      obs::TraceSpan span("core.em.mstep");
      SLIMFAST_ASSIGN_OR_RETURN(
          FitStats fit, ErmLearner(m_step).FitSourceStats(estep.stats, model));
      epochs_left -= fit.epochs;
      stats.mstep_epochs += fit.epochs;
    }

    if (options_.soft) {
      if (tracker.Update(estep.nll)) {
        stats.converged = true;
        break;
      }
    } else {
      previous = std::move(estep.stats);
    }
  }
  return stats;
}

}  // namespace slimfast
