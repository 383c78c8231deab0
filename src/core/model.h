#ifndef SLIMFAST_CORE_MODEL_H_
#define SLIMFAST_CORE_MODEL_H_

#include <memory>
#include <vector>

#include "core/compiled_instance.h"
#include "data/types.h"

namespace slimfast {

/// SLiMFast's parameterized model: a compiled instance plus the flat
/// weight vector w = (⟨w_s⟩, ⟨w_k⟩, ⟨w_copy⟩).
///
/// The model answers the two questions of Sec. 3.2: the posterior
/// P(To = d | Ω; w) per object (Eq. 4) and the estimated source accuracy
/// A_s = sigmoid(σ_s) (Eq. 3). Every candidate score goes through
/// CandidateScores over the trust scores σ. It is cheap to copy the
/// weights in and out, which the learners use for warm starts.
class SlimFastModel {
 public:
  /// Shares an already-compiled instance (CompileInstance or
  /// DeltaCompile); only the weight vector is per-model state, so any
  /// number of models can fit against one compilation. Weights start
  /// at zero (A_s = 0.5 for featureless sources).
  explicit SlimFastModel(std::shared_ptr<const CompiledInstance> instance);

  const CompiledModel& compiled() const { return *instance_->model; }
  const CompiledInstance& instance() const { return *instance_; }
  /// The shared instance, for constructing sibling models (EM restarts,
  /// calibration copies) without copying the structure.
  const std::shared_ptr<const CompiledInstance>& shared_compiled() const {
    return instance_;
  }
  const ParamLayout& layout() const { return compiled().layout; }

  const std::vector<double>& weights() const { return weights_; }
  std::vector<double>* mutable_weights() { return &weights_; }
  void SetWeights(std::vector<double> weights);

  /// Trust score σ_s = w_s + Σ_k w_k f_{s,k} of a source.
  double SourceScore(SourceId source) const;

  /// Estimated accuracy A_s = sigmoid(σ_s) (Eq. 3).
  double SourceAccuracy(SourceId source) const;

  /// All per-source accuracy estimates.
  std::vector<double> AllSourceAccuracies() const;

  /// Trust scores of every source, bit-identical to SourceScore; pass them
  /// to the calls below when scoring many objects under one weight vector.
  std::vector<double> TrustScores() const;

  /// Posterior over `object`'s candidates (softmax of CandidateScores)
  /// under trust scores `sigma`; returns false if it has no observations.
  bool Posterior(ObjectId object, const std::vector<double>& sigma,
                 std::vector<double>* probs) const;

  /// Posterior of `object` under the current weights.
  bool PosteriorOf(ObjectId object, std::vector<double>* probs) const {
    return Posterior(object, TrustScores(), probs);
  }

  /// MAP candidate index of `object` (first maximal score), or -1 if it
  /// has no observations.
  int32_t MapIndex(ObjectId object, const std::vector<double>& sigma) const;

  /// MAP value per object for the whole dataset shape the model was
  /// compiled from; unobserved objects get kNoValue.
  std::vector<ValueId> PredictAll() const;

  /// Negative log-likelihood −log P(To = candidate `target_index`) of an
  /// observed `object`.
  double ObjectNll(ObjectId object, const std::vector<double>& sigma,
                   int32_t target_index) const;

 private:
  /// CandidateScores of `object` into `scores` (resized).
  void Scores(ObjectId object, const std::vector<double>& sigma,
              std::vector<double>* scores) const;

  std::shared_ptr<const CompiledInstance> instance_;
  std::vector<double> weights_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_MODEL_H_
