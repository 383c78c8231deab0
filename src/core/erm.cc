#include "core/erm.h"

#include <algorithm>
#include <cmath>

#include "core/compiled_instance.h"
#include "opt/adagrad.h"
#include "opt/convergence.h"
#include "opt/proximal.h"
#include "opt/schedule.h"
#include "opt/sparse_grad.h"
#include "simd/simd.h"
#include "util/math.h"

namespace slimfast {

std::vector<LabeledExample> ErmLearner::ObjectExamples(
    const CompiledInstance& instance,
    const std::vector<ObjectId>& train_objects) {
  const ObservationStore& store = instance.store;
  std::vector<LabeledExample> examples;
  examples.reserve(train_objects.size());
  for (ObjectId o : train_objects) {
    if (!store.HasTruth(o)) continue;
    int32_t target =
        store.DomainIndexOf(o, store.truth()[static_cast<size_t>(o)]);
    if (target < 0) continue;  // truth never claimed; unusable for ERM
    examples.push_back(LabeledExample{o, target, 1.0});
  }
  return examples;
}

std::vector<ObservationExample> ErmLearner::ObservationExamples(
    const ObservationStore& store,
    const std::vector<ObjectId>& train_objects) {
  std::vector<ObservationExample> examples;
  for (ObjectId o : train_objects) {
    if (!store.HasTruth(o)) continue;
    const ValueId truth = store.truth()[static_cast<size_t>(o)];
    const IndexRange claims = store.ObjectRange(o);
    for (int64_t i = claims.begin; i < claims.end; ++i) {
      const size_t k = static_cast<size_t>(i);
      examples.push_back(ObservationExample{
          store.sources()[k], store.values()[k] == truth ? 1.0 : 0.0, 1.0});
    }
  }
  return examples;
}

std::vector<ObservationExample> ErmLearner::ObservationExamples(
    const Dataset& dataset, const std::vector<ObjectId>& train_objects) {
  return ObservationExamples(ObservationStore::FromDataset(dataset),
                             train_objects);
}

namespace {

/// Adds g · ∂σ_s/∂w for source `s` to `grad`.
inline void AddSigmaGrad(const CompiledModel& model, SourceId s, double g,
                         SparseGradAccumulator<ParamId>* grad) {
  const int64_t end = model.sigma_begin[static_cast<size_t>(s) + 1];
  for (int64_t t = model.sigma_begin[static_cast<size_t>(s)]; t < end; ++t) {
    grad->Add(model.sigma_param[static_cast<size_t>(t)],
              model.sigma_coeff[static_cast<size_t>(t)], g);
  }
}

/// The SGD loop of FitObjectLoss. Each step scores its example's object
/// from the σ of the object's claiming sources under the current weights.
Result<FitStats> FitObjectLossSgd(const ErmOptions& options,
                                  const std::vector<LabeledExample>& examples,
                                  SlimFastModel* model, Rng* rng) {
  const CompiledInstance& inst = model->instance();
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();
  const CompiledModel& compiled = *inst.model;
  const ObservationStore& store = inst.store;
  const SourceId* src = store.sources().data();
  const int32_t* claim_cand = inst.claim_cand.data();

  LearningRateSchedule schedule(options.learning_rate, options.decay);
  ConvergenceTracker tracker(options.tolerance, options.patience);
  AdaGrad adagrad(layout.num_params);

  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  SparseGradAccumulator<ParamId> grad(layout.num_params);
  std::vector<double> sigma(static_cast<size_t>(compiled.num_sources));
  std::vector<double> probs;

  double total_weight = 0.0;
  for (const LabeledExample& ex : examples) total_weight += ex.weight;

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng->Shuffle(&order);
    double eta = schedule.At(epoch);
    double loss_sum = 0.0;
    for (size_t idx : order) {
      const LabeledExample& ex = examples[static_cast<size_t>(idx)];
      const IndexRange claims = store.ObjectRange(ex.object);
      for (int64_t i = claims.begin; i < claims.end; ++i) {
        sigma[static_cast<size_t>(src[i])] =
            TrustScore(compiled, w.data(), src[i]);
      }
      probs.resize(static_cast<size_t>(inst.DomainSize(ex.object)));
      CandidateScores(inst, ex.object, sigma.data(), w.data(), probs.data());
      SoftmaxInPlace(&probs);
      double p_target =
          std::max(probs[static_cast<size_t>(ex.target_index)], 1e-300);
      loss_sum += -ex.weight * std::log(p_target);

      // d(-log p_target)/dσ_s = p_d - [d == target] for the candidate d
      // that source s claims; a copy weight's gradient sums that bracket
      // over every candidate but the agreed one.
      grad.Clear();
      for (int64_t i = claims.begin; i < claims.end; ++i) {
        const int32_t d = claim_cand[i];
        const double g =
            ex.weight * (probs[static_cast<size_t>(d)] -
                         (d == ex.target_index ? 1.0 : 0.0));
        AddSigmaGrad(compiled, src[i], g, &grad);
      }
      if (!inst.copy_begin.empty()) {
        const size_t o = static_cast<size_t>(ex.object);
        for (int64_t t = inst.copy_begin[o]; t < inst.copy_begin[o + 1];
             ++t) {
          const int32_t agreed = inst.copy_cand[static_cast<size_t>(t)];
          double g = 0.0;
          for (size_t d = 0; d < probs.size(); ++d) {
            if (static_cast<int32_t>(d) == agreed) continue;
            g += probs[d] -
                 (static_cast<int32_t>(d) == ex.target_index ? 1.0 : 0.0);
          }
          grad.Add(inst.copy_param[static_cast<size_t>(t)], 1.0,
                   ex.weight * g);
        }
      }
      for (ParamId p : grad.touched()) {
        size_t pi = static_cast<size_t>(p);
        double g = grad.Slot(p) + options.l2 * w[pi];
        double step = eta;
        if (options.use_adagrad) step *= adagrad.Step(p, g);
        w[pi] -= step * g;
        if (options.l1 > 0.0 &&
            (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
          w[pi] = SoftThreshold(w[pi], step * options.l1);
        }
        grad.ZeroSlot(p);
      }
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum / total_weight;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

/// Per-shard accumulator of the batch gradient pass: the gradient with
/// respect to every trust score σ_s and every copy weight, plus the
/// shard's weighted loss. Folded in fixed shard order, so the epoch
/// gradient is bit-identical for any thread count.
struct BatchGradAcc {
  BatchGradAcc(int32_t num_sources, int32_t num_copy)
      : g_sigma(static_cast<size_t>(num_sources)),
        g_copy(static_cast<size_t>(num_copy)) {}
  std::vector<double> g_sigma;
  std::vector<double> g_copy;
  double loss = 0.0;
};

/// The full-batch proximal-descent loop.
///
/// The epoch is organized around the objects the examples touch, not the
/// examples themselves: every example on object o reads the same
/// posterior, and its gradient with respect to candidate di's score is
/// weight·(p_di − [di == target]). Summing the bracketed terms over an
/// object's examples once, up front, turns the epoch into
///
///   once:            σ = TrustScores(w)
///   per used object: CandidateScores → softmax → for each claim on
///                    candidate di by source s:
///                    g_σs += row_weight·p_di − target_mass_di
///   once:            g_w = Σ_s g_σs · ∂σ_s/∂w through the σ CSR
///
/// with every softmax/log batched through the SIMD kernels over a packed
/// candidate buffer. Sharding is over used objects; the shard-order fold
/// keeps the epoch gradient bit-identical for any thread count.
Result<FitStats> FitObjectLossBatch(
    const ErmOptions& options, const std::vector<LabeledExample>& examples,
    SlimFastModel* model, Executor* exec) {
  const CompiledInstance& inst = model->instance();
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();
  const CompiledModel& compiled = *inst.model;
  const ObservationStore& store = inst.store;
  const SourceId* src = store.sources().data();
  const int32_t* claim_cand = inst.claim_cand.data();

  LearningRateSchedule schedule(options.learning_rate, options.decay);
  ConvergenceTracker tracker(options.tolerance, options.patience);

  double total_weight = 0.0;
  for (const LabeledExample& ex : examples) total_weight += ex.weight;

  // ---- Fixed per-fit structure (the example set never changes). ----
  // Used objects in first-appearance order; their candidate domains are
  // packed back to back, so a shard of used objects owns one contiguous
  // slice of the packed buffers.
  std::vector<int32_t> slice_of(static_cast<size_t>(inst.num_objects()), -1);
  std::vector<ObjectId> used;
  for (const LabeledExample& ex : examples) {
    if (slice_of[static_cast<size_t>(ex.object)] < 0) {
      slice_of[static_cast<size_t>(ex.object)] =
          static_cast<int32_t>(used.size());
      used.push_back(ex.object);
    }
  }
  const int32_t num_used = static_cast<int32_t>(used.size());
  std::vector<int64_t> packed_begin(static_cast<size_t>(num_used) + 1, 0);
  for (int32_t s = 0; s < num_used; ++s) {
    packed_begin[static_cast<size_t>(s) + 1] =
        packed_begin[static_cast<size_t>(s)] +
        inst.DomainSize(used[static_cast<size_t>(s)]);
  }
  const int64_t num_packed = packed_begin[static_cast<size_t>(num_used)];
  // Grouped example constants: total example weight per used object, and
  // summed target weight per packed candidate.
  std::vector<double> row_weight(static_cast<size_t>(num_used), 0.0);
  std::vector<double> target_mass(static_cast<size_t>(num_packed), 0.0);
  for (const LabeledExample& ex : examples) {
    const int32_t s = slice_of[static_cast<size_t>(ex.object)];
    row_weight[static_cast<size_t>(s)] += ex.weight;
    target_mass[static_cast<size_t>(
        packed_begin[static_cast<size_t>(s)] + ex.target_index)] +=
        ex.weight;
  }

  // Per-shard accumulators persist across epochs (cleared in place by each
  // shard body) so the epoch loop allocates nothing. The shard structure
  // and the shard-order fold below are exactly DeterministicReduce's
  // contract: bit-identical for any thread count.
  const std::vector<ShardRange> shards =
      StaticShards(num_used, FixedShardCount(num_used));
  std::vector<BatchGradAcc> partial(
      shards.size(),
      BatchGradAcc(compiled.num_sources, layout.num_copy_params));
  BatchGradAcc total(compiled.num_sources, layout.num_copy_params);
  std::vector<double> sigma;
  std::vector<double> probs(static_cast<size_t>(num_packed));
  std::vector<double> logp(static_cast<size_t>(num_packed));
  std::vector<double> grad(static_cast<size_t>(layout.num_params), 0.0);

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    TrustScores(compiled, w, &sigma);
    RunSharded(
        exec, static_cast<int32_t>(shards.size()), [&](int32_t s) {
          const ShardRange& range = shards[static_cast<size_t>(s)];
          BatchGradAcc& acc = partial[static_cast<size_t>(s)];
          std::fill(acc.g_sigma.begin(), acc.g_sigma.end(), 0.0);
          std::fill(acc.g_copy.begin(), acc.g_copy.end(), 0.0);
          acc.loss = 0.0;
          const int64_t pb = packed_begin[static_cast<size_t>(range.begin)];
          const int64_t pe = packed_begin[static_cast<size_t>(range.end)];
          // 1. Scores for every used object of the shard, packed.
          for (int64_t i = range.begin; i < range.end; ++i) {
            CandidateScores(
                inst, used[static_cast<size_t>(i)], sigma.data(), w.data(),
                probs.data() + packed_begin[static_cast<size_t>(i)]);
          }
          // 2. One softmax pass over the shard's packed rows.
          simd::SoftmaxRows(packed_begin.data() + range.begin,
                            range.end - range.begin, pb, probs.data() + pb);
          // 3. Loss: -Σ target_mass·log(max(p, 1e-300)), with the log
          // batched. Candidates that are never a target carry mass 0 and
          // contribute nothing (the clamp keeps every log finite).
          for (int64_t c = pb; c < pe; ++c) {
            const double p = probs[static_cast<size_t>(c)];
            logp[static_cast<size_t>(c)] = p > 1e-300 ? p : 1e-300;
          }
          simd::BatchLog(logp.data() + pb, logp.data() + pb, pe - pb);
          for (int64_t c = pb; c < pe; ++c) {
            acc.loss += -target_mass[static_cast<size_t>(c)] *
                        logp[static_cast<size_t>(c)];
          }
          // 4. The score gradient, coeff_di = row_weight·p_di −
          // target_mass_di, gathered onto the claiming sources' σ and
          // onto the copy weights firing on di.
          for (int64_t i = range.begin; i < range.end; ++i) {
            const ObjectId o = used[static_cast<size_t>(i)];
            const double* p =
                probs.data() + packed_begin[static_cast<size_t>(i)];
            const double* tm =
                target_mass.data() + packed_begin[static_cast<size_t>(i)];
            const double rw = row_weight[static_cast<size_t>(i)];
            const IndexRange claims = store.ObjectRange(o);
            for (int64_t c = claims.begin; c < claims.end; ++c) {
              const int32_t d = claim_cand[c];
              acc.g_sigma[static_cast<size_t>(src[c])] += rw * p[d] - tm[d];
            }
            if (inst.copy_begin.empty()) continue;
            const int32_t n = inst.DomainSize(o);
            const size_t oi = static_cast<size_t>(o);
            for (int64_t t = inst.copy_begin[oi]; t < inst.copy_begin[oi + 1];
                 ++t) {
              const int32_t agreed = inst.copy_cand[static_cast<size_t>(t)];
              double g = 0.0;
              for (int32_t d = 0; d < n; ++d) {
                if (d != agreed) g += rw * p[d] - tm[d];
              }
              acc.g_copy[static_cast<size_t>(
                  inst.copy_param[static_cast<size_t>(t)] -
                  layout.copy_offset)] += g;
            }
          }
        });
    // Shard-order fold, then one scatter through the σ CSR.
    std::fill(total.g_sigma.begin(), total.g_sigma.end(), 0.0);
    std::fill(total.g_copy.begin(), total.g_copy.end(), 0.0);
    double loss_sum = 0.0;
    for (const BatchGradAcc& acc : partial) {
      loss_sum += acc.loss;
      for (size_t k = 0; k < acc.g_sigma.size(); ++k) {
        total.g_sigma[k] += acc.g_sigma[k];
      }
      for (size_t k = 0; k < acc.g_copy.size(); ++k) {
        total.g_copy[k] += acc.g_copy[k];
      }
    }
    std::fill(grad.begin(), grad.end(), 0.0);
    for (size_t sidx = 0; sidx < total.g_sigma.size(); ++sidx) {
      const double gs = total.g_sigma[sidx];
      for (int64_t t = compiled.sigma_begin[sidx];
           t < compiled.sigma_begin[sidx + 1]; ++t) {
        grad[static_cast<size_t>(
            compiled.sigma_param[static_cast<size_t>(t)])] +=
            gs * compiled.sigma_coeff[static_cast<size_t>(t)];
      }
    }
    for (size_t k = 0; k < total.g_copy.size(); ++k) {
      grad[static_cast<size_t>(layout.copy_offset) + k] += total.g_copy[k];
    }
    // Normalize to mean loss so step sizes are dataset-size independent.
    double inv = 1.0 / total_weight;
    double eta = schedule.At(epoch);
    for (size_t pi = 0; pi < w.size(); ++pi) {
      double g = grad[pi] * inv + options.l2 * w[pi];
      w[pi] -= eta * g;
      ParamId p = static_cast<ParamId>(pi);
      if (options.l1 > 0.0 &&
          (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
        w[pi] = SoftThreshold(w[pi], eta * options.l1);
      }
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum * inv;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

/// The accuracy log-loss SGD loop (Definition 7). Trust scores read the
/// compiled model's σ CSR.
Result<FitStats> FitAccuracyLossSgd(
    const ErmOptions& options,
    const std::vector<ObservationExample>& examples, SlimFastModel* model,
    Rng* rng) {
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();
  const CompiledModel& compiled = model->compiled();

  LearningRateSchedule schedule(options.learning_rate, options.decay);
  ConvergenceTracker tracker(options.tolerance, options.patience);
  AdaGrad adagrad(layout.num_params);

  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double total_weight = 0.0;
  for (const ObservationExample& ex : examples) total_weight += ex.weight;

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng->Shuffle(&order);
    double eta = schedule.At(epoch);
    double loss_sum = 0.0;
    for (size_t idx : order) {
      const ObservationExample& ex = examples[static_cast<size_t>(idx)];
      const int64_t begin =
          compiled.sigma_begin[static_cast<size_t>(ex.source)];
      const int64_t end =
          compiled.sigma_begin[static_cast<size_t>(ex.source) + 1];
      double sigma = 0.0;
      for (int64_t t = begin; t < end; ++t) {
        sigma += compiled.sigma_coeff[static_cast<size_t>(t)] *
                 w[static_cast<size_t>(
                     compiled.sigma_param[static_cast<size_t>(t)])];
      }
      double a = Sigmoid(sigma);
      // Binary cross-entropy with (possibly fractional) label; d/dσ = a - y.
      loss_sum += -ex.weight *
                  (ex.label * std::log(std::max(a, 1e-300)) +
                   (1.0 - ex.label) * std::log(std::max(1.0 - a, 1e-300)));
      double g_sigma = ex.weight * (a - ex.label);
      for (int64_t t = begin; t < end; ++t) {
        const ParamId p = compiled.sigma_param[static_cast<size_t>(t)];
        size_t pi = static_cast<size_t>(p);
        double g = g_sigma * compiled.sigma_coeff[static_cast<size_t>(t)] +
                   options.l2 * w[pi];
        double step = eta;
        if (options.use_adagrad) step *= adagrad.Step(p, g);
        w[pi] -= step * g;
        if (options.l1 > 0.0 &&
            (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
          w[pi] = SoftThreshold(w[pi], step * options.l1);
        }
      }
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum / total_weight;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

}  // namespace

Result<FitStats> ErmLearner::FitObjectLoss(
    const std::vector<LabeledExample>& examples, SlimFastModel* model,
    Rng* rng, Executor* exec) const {
  if (examples.empty()) {
    return Status::FailedPrecondition(
        "ERM requires at least one labeled example");
  }
  if (options_.batch) {
    return FitObjectLossBatch(options_, examples, model, exec);
  }
  return FitObjectLossSgd(options_, examples, model, rng);
}

Result<FitStats> ErmLearner::FitAccuracyLoss(
    const std::vector<ObservationExample>& examples, SlimFastModel* model,
    Rng* rng, const CompiledInstance* /*instance*/) const {
  if (examples.empty()) {
    return Status::FailedPrecondition(
        "accuracy-loss ERM requires at least one labeled observation");
  }
  if (options_.batch) {
    SourceStats stats(model->compiled().num_sources);
    for (const ObservationExample& ex : examples) {
      stats.Add(ex.source, ex.label, ex.weight);
    }
    return FitSourceStats(stats, model);
  }
  return FitAccuracyLossSgd(options_, examples, model, rng);
}

/// The one full-batch accuracy log-loss loop: per epoch, trust scores via
/// TermProducts + FoldRanges over the compiled model's σ CSR, sigmoid and
/// softplus per source, a gradient scatter onto the compact set of
/// touched parameters, and a fused AdaGradProx update. The per-source
/// loss uses the clamp-free algebraic form of binary cross-entropy,
/// -y·log a - (1-y)·log(1-a) = log(1+exp(-σ)) + (1-y)·σ. Serial by
/// design: each epoch reads the previous epoch's weights.
Result<FitStats> ErmLearner::FitSourceStats(const SourceStats& source_stats,
                                            SlimFastModel* model) const {
  const ErmOptions& options = options_;
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();
  const CompiledModel& compiled = model->compiled();
  const int64_t num_sources = compiled.num_sources;
  if (static_cast<int64_t>(source_stats.weight.size()) != num_sources ||
      source_stats.label.size() != source_stats.weight.size()) {
    return Status::InvalidArgument(
        "source statistics do not match the model's source count");
  }
  const double* src_w = source_stats.weight.data();
  const double* src_y = source_stats.label.data();
  const double total_weight = simd::Sum(src_w, num_sources);
  if (!(total_weight > 0.0)) {
    return Status::FailedPrecondition(
        "accuracy-loss ERM requires at least one labeled observation");
  }

  const std::vector<int64_t>& sg_begin = compiled.sigma_begin;
  const std::vector<double>& sg_coeff = compiled.sigma_coeff;
  const std::vector<ParamId>& sg_param = compiled.sigma_param;
  const int64_t num_sg = static_cast<int64_t>(sg_coeff.size());

  // Compact parameter set touched by sigma terms, in first-touch order,
  // plus each term's index into it.
  std::vector<ParamId> params;
  std::vector<int32_t> pidx(static_cast<size_t>(layout.num_params), -1);
  std::vector<int32_t> term_cidx(static_cast<size_t>(num_sg));
  for (int64_t t = 0; t < num_sg; ++t) {
    const ParamId p = sg_param[static_cast<size_t>(t)];
    if (pidx[static_cast<size_t>(p)] < 0) {
      pidx[static_cast<size_t>(p)] = static_cast<int32_t>(params.size());
      params.push_back(p);
    }
    term_cidx[static_cast<size_t>(t)] = pidx[static_cast<size_t>(p)];
  }
  const int64_t num_cparams = static_cast<int64_t>(params.size());

  // Compact optimizer state (synced back to w after every epoch).
  std::vector<double> w_c(static_cast<size_t>(num_cparams));
  std::vector<double> accum_c(static_cast<size_t>(num_cparams), 0.0);
  std::vector<double> g_c(static_cast<size_t>(num_cparams));
  std::vector<double> l1_c(static_cast<size_t>(num_cparams), 0.0);
  for (int64_t j = 0; j < num_cparams; ++j) {
    const ParamId p = params[static_cast<size_t>(j)];
    w_c[static_cast<size_t>(j)] = w[static_cast<size_t>(p)];
    if (options.l1 > 0.0 &&
        (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
      l1_c[static_cast<size_t>(j)] = options.l1;
    }
  }

  std::vector<double> sg_prod(static_cast<size_t>(num_sg));
  std::vector<double> sigma(static_cast<size_t>(num_sources));
  std::vector<double> a_src(static_cast<size_t>(num_sources));
  std::vector<double> sp_src(static_cast<size_t>(num_sources));
  std::vector<double> loss_src(static_cast<size_t>(num_sources));
  std::vector<double> gsrc(static_cast<size_t>(num_sources));

  LearningRateSchedule schedule(options.learning_rate, options.decay);
  ConvergenceTracker tracker(options.tolerance, options.patience);
  const double inv = 1.0 / total_weight;

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    // Trust score per source, then the transcendentals per source.
    simd::TermProducts(sg_coeff.data(), sg_param.data(), w.data(),
                       sg_prod.data(), num_sg);
    simd::FoldRanges(sg_begin.data(), num_sources, 0, sg_prod.data(),
                     nullptr, sigma.data());
    simd::BatchSigmoid(sigma.data(), a_src.data(), num_sources);
    simd::BatchSoftplusNeg(sigma.data(), sp_src.data(), num_sources);
    // loss_s = W_s·softplus(−σ_s) + (W_s − Y_s)·σ_s and
    // dL/dσ_s = W_s·a_s − Y_s.
    for (int64_t s = 0; s < num_sources; ++s) {
      const size_t ss = static_cast<size_t>(s);
      loss_src[ss] =
          src_w[ss] * sp_src[ss] + (src_w[ss] - src_y[ss]) * sigma[ss];
      gsrc[ss] = src_w[ss] * a_src[ss] - src_y[ss];
    }
    const double loss_sum = simd::Sum(loss_src.data(), num_sources);
    std::fill(g_c.begin(), g_c.end(), 0.0);
    for (int64_t s = 0; s < num_sources; ++s) {
      const double gs = gsrc[static_cast<size_t>(s)];
      const int64_t end = sg_begin[static_cast<size_t>(s) + 1];
      for (int64_t t = sg_begin[static_cast<size_t>(s)]; t < end; ++t) {
        g_c[static_cast<size_t>(term_cidx[static_cast<size_t>(t)])] +=
            gs * sg_coeff[static_cast<size_t>(t)];
      }
    }
    for (int64_t j = 0; j < num_cparams; ++j) {
      const size_t sj = static_cast<size_t>(j);
      g_c[sj] = g_c[sj] * inv + options.l2 * w_c[sj];
    }
    const double eta = schedule.At(epoch);
    if (options.use_adagrad) {
      simd::AdaGradProx(w_c.data(), accum_c.data(), g_c.data(), l1_c.data(),
                        num_cparams, eta, 1e-8);
    } else {
      for (int64_t j = 0; j < num_cparams; ++j) {
        const size_t sj = static_cast<size_t>(j);
        w_c[sj] -= eta * g_c[sj];
        if (l1_c[sj] > 0.0) w_c[sj] = SoftThreshold(w_c[sj], eta * l1_c[sj]);
      }
    }
    for (int64_t j = 0; j < num_cparams; ++j) {
      w[static_cast<size_t>(params[static_cast<size_t>(j)])] =
          w_c[static_cast<size_t>(j)];
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum * inv;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

Result<FitStats> ErmLearner::Fit(const std::vector<ObjectId>& train_objects,
                                 SlimFastModel* model, Rng* rng,
                                 Executor* exec) const {
  switch (options_.loss) {
    case ErmLoss::kObjectPosterior: {
      auto examples = ObjectExamples(model->instance(), train_objects);
      return FitObjectLoss(examples, model, rng, exec);
    }
    case ErmLoss::kAccuracyLogLoss: {
      auto examples = ObservationExamples(model->instance().store,
                                          train_objects);
      return FitAccuracyLoss(examples, model, rng);
    }
  }
  return Status::Internal("unknown ERM loss");
}

}  // namespace slimfast
