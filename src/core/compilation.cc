#include "core/compilation.h"

#include <algorithm>
#include <unordered_map>

namespace slimfast {

namespace {

/// Selects the copying source pairs: pairs whose agreeing co-observations
/// reach config.copying_min_agreements, capped at copying_max_pairs by
/// descending agreement count.
std::vector<std::pair<SourceId, SourceId>> SelectCopyPairs(
    const Dataset& dataset, const ModelConfig& config) {
  std::unordered_map<int64_t, int64_t> agree_counts;
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    const auto& claims = dataset.ClaimsOnObject(o);
    for (size_t a = 0; a < claims.size(); ++a) {
      for (size_t b = a + 1; b < claims.size(); ++b) {
        if (claims[a].value != claims[b].value) continue;
        SourceId i = std::min(claims[a].source, claims[b].source);
        SourceId j = std::max(claims[a].source, claims[b].source);
        if (i == j) continue;
        int64_t key =
            static_cast<int64_t>(i) * dataset.num_sources() + j;
        ++agree_counts[key];
      }
    }
  }
  std::vector<std::pair<int64_t, int64_t>> ranked;  // (count, key)
  for (const auto& [key, count] : agree_counts) {
    if (count >= config.copying_min_agreements) {
      ranked.emplace_back(count, key);
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  if (config.copying_max_pairs > 0 &&
      static_cast<int64_t>(ranked.size()) > config.copying_max_pairs) {
    ranked.resize(static_cast<size_t>(config.copying_max_pairs));
  }
  std::vector<std::pair<SourceId, SourceId>> pairs;
  pairs.reserve(ranked.size());
  for (const auto& [count, key] : ranked) {
    pairs.emplace_back(static_cast<SourceId>(key / dataset.num_sources()),
                       static_cast<SourceId>(key % dataset.num_sources()));
  }
  // Deterministic order for stable parameter ids.
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace

Result<CompiledModel> Compile(const Dataset& dataset,
                              const ModelConfig& config) {
  if (!config.use_source_weights && !config.use_feature_weights) {
    return Status::InvalidArgument(
        "model must use source weights, feature weights, or both");
  }
  if (config.use_feature_weights && !config.use_source_weights &&
      dataset.features().num_features() == 0) {
    return Status::FailedPrecondition(
        "feature-only model requires a dataset with features");
  }
  if (config.use_copying_features && dataset.num_sources() < 2) {
    return Status::FailedPrecondition(
        "copying extension requires at least two sources");
  }

  CompiledModel model;
  model.config = config;
  model.num_sources = dataset.num_sources();
  model.num_features = dataset.features().num_features();

  ParamLayout& layout = model.layout;
  int32_t next = 0;
  layout.source_offset = next;
  layout.num_source_params =
      config.use_source_weights ? dataset.num_sources() : 0;
  next += layout.num_source_params;
  layout.feature_offset = next;
  layout.num_feature_params =
      config.use_feature_weights ? dataset.features().num_features() : 0;
  next += layout.num_feature_params;
  layout.copy_offset = next;
  if (config.use_copying_features) {
    model.copy_pairs = SelectCopyPairs(dataset, config);
    layout.num_copy_params = static_cast<int32_t>(model.copy_pairs.size());
  }
  next += layout.num_copy_params;
  layout.num_params = next;

  // Trust-score expressions σ_s.
  model.sigma_begin.reserve(static_cast<size_t>(dataset.num_sources()) + 1);
  model.sigma_begin.push_back(0);
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    if (config.use_source_weights) {
      model.sigma_param.push_back(layout.source_offset + s);
    }
    if (config.use_feature_weights) {
      for (FeatureId k : dataset.features().FeaturesOf(s)) {
        model.sigma_param.push_back(layout.feature_offset + k);
      }
    }
    model.sigma_begin.push_back(
        static_cast<int64_t>(model.sigma_param.size()));
  }
  model.sigma_coeff.assign(model.sigma_param.size(), 1.0);
  return model;
}

}  // namespace slimfast
