// Figure 7: source-quality initialization — predicting the accuracy of
// unseen sources from domain features alone.
//
// For Stocks, Demos, and Crowd: restrict SLiMFast's input to a percentage
// of the sources (25/40/50/75%), train, then predict the accuracy of the
// held-out sources using only their features and report the mean absolute
// error against their empirical accuracies.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/slimfast.h"
#include "core/source_init.h"
#include "synth/simulators.h"
#include "util/math.h"
#include "util/random.h"

using namespace slimfast;

namespace {

/// Restricts observations to sources [0, keep); ids preserved so feature
/// rows remain addressable for the held-out sources.
Dataset RestrictSources(const Dataset& dataset, int32_t keep) {
  DatasetBuilder builder(dataset.name() + "-restricted",
                         dataset.num_sources(), dataset.num_objects(),
                         dataset.num_values());
  for (const Observation& obs : dataset.observations()) {
    if (obs.source >= keep) continue;
    SLIMFAST_CHECK_OK(
        builder.AddObservation(obs.object, obs.source, obs.value));
  }
  for (ObjectId o : dataset.ObjectsWithTruth()) {
    SLIMFAST_CHECK_OK(builder.SetTruth(o, dataset.Truth(o)));
  }
  // Copy the full feature space (including held-out sources' rows).
  FeatureSpace* fs = builder.mutable_features();
  for (FeatureId k = 0; k < dataset.features().num_features(); ++k) {
    fs->RegisterFeature(dataset.features().FeatureName(k));
  }
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    for (FeatureId k : dataset.features().FeaturesOf(s)) {
      SLIMFAST_CHECK_OK(fs->SetFeature(s, k));
    }
  }
  return std::move(builder).Build().ValueOrDie();
}

double UnseenSourceError(const Dataset& full, int32_t keep, uint64_t seed) {
  Dataset restricted = RestrictSources(full, keep);
  Rng rng(seed);
  auto split = MakeSplit(restricted, 0.2, &rng).ValueOrDie();
  // Fit the feature -> accuracy mapping on the Definition 7 loss: the
  // object-posterior loss optimizes prediction, not calibration, and the
  // cold-start predictor needs calibrated feature weights.
  SlimFastOptions options;
  options.erm.loss = ErmLoss::kAccuracyLogLoss;
  auto fit =
      MakeSlimFastErm(options)->Fit(restricted, split, seed).ValueOrDie();
  auto predictor =
      SourceQualityPredictor::FromModel(fit.model).ValueOrDie();

  double error_sum = 0.0;
  int64_t count = 0;
  for (SourceId s = keep; s < full.num_sources(); ++s) {
    auto empirical = full.EmpiricalSourceAccuracy(s);
    if (!empirical.ok()) continue;
    error_sum += std::fabs(predictor.PredictAccuracyOf(full, s) -
                           empirical.ValueOrDie());
    ++count;
  }
  return count > 0 ? error_sum / static_cast<double>(count) : 0.0;
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 7: accuracy prediction for unseen sources",
                     "Figure 7 (Sec. 5.3.2)");
  std::printf("%-10s %-10s %-10s %-10s %s\n", "dataset", "25%", "40%",
              "50%", "75%");
  for (const std::string name : {"stocks", "demos", "crowd"}) {
    auto synth = MakeSimulatorByName(name, /*seed=*/42).ValueOrDie();
    const Dataset& dataset = synth.dataset;
    std::printf("%-10s", name.c_str());
    for (double used : {0.25, 0.40, 0.50, 0.75}) {
      std::vector<double> errors;
      for (int32_t rep = 0; rep < bench::NumSeeds(); ++rep) {
        int32_t keep = static_cast<int32_t>(used * dataset.num_sources());
        errors.push_back(
            UnseenSourceError(dataset, keep,
                              42 + 7919ULL * static_cast<uint64_t>(rep)));
      }
      std::printf(" %-9.3f", Mean(errors));
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape check: the estimation error for unseen sources "
      "decreases as more\nsources are revealed during training "
      "(Figure 7).\n");
  return 0;
}
