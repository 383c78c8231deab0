#include "core/model.h"

#include <utility>

#include "util/logging.h"
#include "util/math.h"

namespace slimfast {

SlimFastModel::SlimFastModel(std::shared_ptr<const CompiledInstance> instance)
    : instance_(std::move(instance)),
      weights_(static_cast<size_t>(compiled().layout.num_params), 0.0) {}

void SlimFastModel::SetWeights(std::vector<double> weights) {
  SLIMFAST_DCHECK(
      weights.size() == static_cast<size_t>(compiled().layout.num_params),
      "weight vector size mismatch");
  weights_ = std::move(weights);
}

double SlimFastModel::SourceScore(SourceId source) const {
  SLIMFAST_DCHECK(source >= 0 && source < compiled().num_sources,
                  "source id out of range");
  return TrustScore(compiled(), weights_.data(), source);
}

double SlimFastModel::SourceAccuracy(SourceId source) const {
  return Sigmoid(SourceScore(source));
}

std::vector<double> SlimFastModel::AllSourceAccuracies() const {
  std::vector<double> accuracies = TrustScores();
  for (double& a : accuracies) a = Sigmoid(a);
  return accuracies;
}

std::vector<double> SlimFastModel::TrustScores() const {
  std::vector<double> sigma;
  slimfast::TrustScores(compiled(), weights_, &sigma);
  return sigma;
}

void SlimFastModel::Scores(ObjectId object, const std::vector<double>& sigma,
                           std::vector<double>* scores) const {
  scores->resize(static_cast<size_t>(instance_->DomainSize(object)));
  CandidateScores(*instance_, object, sigma.data(), weights_.data(),
                  scores->data());
}

bool SlimFastModel::Posterior(ObjectId object,
                              const std::vector<double>& sigma,
                              std::vector<double>* probs) const {
  if (object < 0 || object >= instance_->num_objects() ||
      instance_->DomainSize(object) == 0) {
    return false;
  }
  Scores(object, sigma, probs);
  SoftmaxInPlace(probs);
  return true;
}

namespace {

int32_t ArgMax(const std::vector<double>& scores) {
  int32_t best = 0;
  for (size_t di = 1; di < scores.size(); ++di) {
    if (scores[di] > scores[static_cast<size_t>(best)]) {
      best = static_cast<int32_t>(di);
    }
  }
  return best;
}

}  // namespace

int32_t SlimFastModel::MapIndex(ObjectId object,
                                const std::vector<double>& sigma) const {
  if (instance_->DomainSize(object) == 0) return -1;
  std::vector<double> scores;
  Scores(object, sigma, &scores);
  return ArgMax(scores);
}

std::vector<ValueId> SlimFastModel::PredictAll() const {
  const ObservationStore& store = instance_->store;
  std::vector<ValueId> predictions(static_cast<size_t>(store.num_objects()),
                                   kNoValue);
  const std::vector<double> sigma = TrustScores();
  std::vector<double> scores;
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    const IndexRange cands = store.DomainRange(o);
    if (cands.empty()) continue;
    Scores(o, sigma, &scores);
    predictions[static_cast<size_t>(o)] = store.domain_values()[
        static_cast<size_t>(cands.begin + ArgMax(scores))];
  }
  return predictions;
}

double SlimFastModel::ObjectNll(ObjectId object,
                                const std::vector<double>& sigma,
                                int32_t target_index) const {
  SLIMFAST_DCHECK(target_index >= 0 &&
                      target_index < instance_->DomainSize(object),
                  "target index out of range");
  std::vector<double> scores;
  Scores(object, sigma, &scores);
  return LogSumExp(scores) - scores[static_cast<size_t>(target_index)];
}

}  // namespace slimfast
