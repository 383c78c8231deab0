#include "core/compilation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "util/logging.h"

namespace slimfast {

int32_t CompiledObject::DomainIndex(ValueId value) const {
  auto it = std::lower_bound(domain.begin(), domain.end(), value);
  if (it == domain.end() || *it != value) return -1;
  return static_cast<int32_t>(it - domain.begin());
}

const CompiledObject* CompiledModel::RowOf(ObjectId object) const {
  if (object < 0 || object >= static_cast<ObjectId>(object_row.size())) {
    return nullptr;
  }
  int32_t row = object_row[static_cast<size_t>(object)];
  if (row < 0) return nullptr;
  return &objects[static_cast<size_t>(row)];
}

std::vector<ParamTerm> TermAccumulator::Finish() {
  size_t count = 0;
  for (size_t block = first_block_; block < end_block_; ++block) {
    for (uint64_t live = summary_[block]; live != 0; live &= live - 1) {
      const size_t word =
          block * 64 + static_cast<size_t>(std::countr_zero(live));
      count += static_cast<size_t>(std::popcount(words_[word]));
    }
  }
  std::vector<ParamTerm> out;
  out.reserve(count);
  for (size_t block = first_block_; block < end_block_; ++block) {
    for (uint64_t live = summary_[block]; live != 0; live &= live - 1) {
      const size_t word =
          block * 64 + static_cast<size_t>(std::countr_zero(live));
      for (uint64_t bits = words_[word]; bits != 0; bits &= bits - 1) {
        const size_t p =
            word * 64 + static_cast<size_t>(std::countr_zero(bits));
        if (sums_[p] != 0.0) {
          out.push_back(ParamTerm{static_cast<ParamId>(p), sums_[p]});
        }
        sums_[p] = 0.0;
      }
      words_[word] = 0;
    }
    summary_[block] = 0;
  }
  first_block_ = SIZE_MAX;
  end_block_ = 0;
  return out;
}

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

CompiledObject CompileObjectRow(
    ObjectId object, const std::vector<SourceClaim>& claims,
    const std::vector<ValueId>& domain, const CompiledModel& model,
    const std::unordered_map<int64_t, int32_t>& copy_pair_index,
    TermAccumulator* acc) {
  const ModelConfig& config = model.config;
  CompiledObject obj;
  obj.object = object;
  obj.domain = domain;
  obj.terms.resize(obj.domain.size());
  obj.offsets.assign(obj.domain.size(), 0.0);
  double claim_offset =
      (config.multiclass_offset && obj.domain.size() > 2)
          ? std::log(static_cast<double>(obj.domain.size()) - 1.0)
          : 0.0;
  for (size_t di = 0; di < obj.domain.size(); ++di) {
    ValueId d = obj.domain[di];
    for (const SourceClaim& claim : claims) {
      if (claim.value == d) {
        acc->AddAll(model.sigma_terms[static_cast<size_t>(claim.source)]);
        obj.offsets[di] += claim_offset;
      }
    }
    // Copying factors (Appendix D): when registered pair (i, j) agrees on
    // value v for this object, a weight fires on every candidate d != v —
    // a positive weight pushes the posterior *away* from the pair's value,
    // modeling that joint mistakes are evidence of copying rather than
    // independent corroboration.
    if (config.use_copying_features) {
      for (size_t a = 0; a < claims.size(); ++a) {
        for (size_t b = a + 1; b < claims.size(); ++b) {
          if (claims[a].value != claims[b].value) continue;
          SourceId i = std::min(claims[a].source, claims[b].source);
          SourceId j = std::max(claims[a].source, claims[b].source);
          auto it = copy_pair_index.find(
              static_cast<int64_t>(i) * model.num_sources + j);
          if (it == copy_pair_index.end()) continue;
          if (d != claims[a].value) {
            acc->Add(model.layout.copy_offset + it->second, 1.0);
          }
        }
      }
    }
    obj.terms[di] = acc->Finish();
  }
  return obj;
}

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
  model.sigma_terms.resize(static_cast<size_t>(dataset.num_sources()));
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    auto& terms = model.sigma_terms[static_cast<size_t>(s)];
    if (config.use_source_weights) {
      terms.push_back(ParamTerm{layout.source_offset + s, 1.0});
    }
    if (config.use_feature_weights) {
      for (FeatureId k : dataset.features().FeaturesOf(s)) {
        terms.push_back(ParamTerm{layout.feature_offset + k, 1.0});
      }
    }
  }

  // Fast lookup of registered copying pairs.
  std::unordered_map<int64_t, int32_t> pair_index;
  for (size_t c = 0; c < model.copy_pairs.size(); ++c) {
    const auto& [i, j] = model.copy_pairs[c];
    pair_index.emplace(static_cast<int64_t>(i) * dataset.num_sources() + j,
                       static_cast<int32_t>(c));
  }

  // Per-object posterior expressions, one shared CompileObjectRow call per
  // observed object (the same call DeltaCompile makes for touched rows).
  model.object_row.assign(static_cast<size_t>(dataset.num_objects()), -1);
  size_t num_rows = 0;
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    if (!dataset.ClaimsOnObject(o).empty()) ++num_rows;
  }
  model.objects.reserve(num_rows);
  TermAccumulator acc(layout.num_params);
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    const auto& claims = dataset.ClaimsOnObject(o);
    if (claims.empty()) continue;
    model.object_row[static_cast<size_t>(o)] =
        static_cast<int32_t>(model.objects.size());
    model.objects.push_back(CompileObjectRow(
        o, claims, dataset.DomainOf(o), model, pair_index, &acc));
  }
  return model;
}

}  // namespace slimfast
