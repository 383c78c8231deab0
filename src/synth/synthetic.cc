#include "synth/synthetic.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "exec/sharded_rng.h"
#include "util/math.h"
#include "util/random.h"

namespace slimfast {

namespace {

/// Per-source private opinion about one object: the value the source would
/// claim based on its own accuracy (before any copying).
ValueId PrivateOpinion(const SyntheticConfig& config, ValueId truth,
                       ValueId stale, double accuracy, Rng* rng) {
  if (config.num_values == 1) return truth;
  if (rng->Bernoulli(accuracy)) return truth;
  if (config.stale_value_prob > 0.0 &&
      rng->Bernoulli(config.stale_value_prob)) {
    return stale;
  }
  // Uniform over the wrong values.
  ValueId v = static_cast<ValueId>(rng->UniformInt(config.num_values - 1));
  if (v >= truth) ++v;
  return v;
}

}  // namespace

Result<SyntheticDataset> GenerateSynthetic(const SyntheticConfig& config,
                                           uint64_t seed) {
  if (config.num_sources < 1 || config.num_objects < 1) {
    return Status::InvalidArgument("need at least one source and object");
  }
  if (config.num_values < 1) {
    return Status::InvalidArgument("num_values must be >= 1");
  }
  if (config.density < 0.0 || config.density > 1.0) {
    return Status::InvalidArgument("density must be in [0, 1]");
  }
  if (config.min_accuracy > config.max_accuracy) {
    return Status::InvalidArgument("min_accuracy > max_accuracy");
  }
  if (config.num_copy_clusters > 0 && config.copy_cluster_size < 2) {
    return Status::InvalidArgument("copy clusters need size >= 2");
  }
  if (config.copy_coobserve < 0.0 || config.copy_coobserve > 1.0) {
    return Status::InvalidArgument("copy_coobserve must be in [0, 1]");
  }
  if (config.object_difficulty < 0.0) {
    return Status::InvalidArgument("object_difficulty must be >= 0");
  }
  if (static_cast<int64_t>(config.num_copy_clusters) *
          config.copy_cluster_size >
      config.num_sources) {
    return Status::InvalidArgument("copy clusters exceed source count");
  }

  Rng rng(seed);
  DatasetBuilder builder(config.name, config.num_sources, config.num_objects,
                         config.num_values);

  // --- Features and their accuracy effects. ---
  std::vector<int32_t> group_sizes = config.group_sizes;
  std::vector<double> group_effects = config.group_effects;
  if (group_sizes.empty() && config.num_feature_groups > 0) {
    group_sizes.assign(static_cast<size_t>(config.num_feature_groups),
                       config.values_per_group);
  }
  if (group_effects.empty()) {
    group_effects.assign(group_sizes.size(), config.feature_effect);
  }
  if (group_effects.size() != group_sizes.size()) {
    return Status::InvalidArgument(
        "group_effects must match group_sizes in length");
  }
  std::vector<double> feature_effect;
  std::vector<int32_t> group_offset;  // first FeatureId of each group
  std::vector<std::vector<FeatureId>> source_features(
      static_cast<size_t>(config.num_sources));
  if (!group_sizes.empty()) {
    FeatureSpace* features = builder.mutable_features();
    for (size_t g = 0; g < group_sizes.size(); ++g) {
      group_offset.push_back(static_cast<int32_t>(feature_effect.size()));
      for (int32_t v = 0; v < group_sizes[g]; ++v) {
        std::string name = "g";
        name += std::to_string(g);
        name += "=v";
        name += std::to_string(v);
        features->RegisterFeature(name);
        feature_effect.push_back(
            rng.Uniform(-group_effects[g], group_effects[g]));
      }
    }
    for (SourceId s = 0; s < config.num_sources; ++s) {
      for (size_t g = 0; g < group_sizes.size(); ++g) {
        FeatureId k = static_cast<FeatureId>(
            group_offset[g] + rng.UniformInt(group_sizes[g]));
        SLIMFAST_RETURN_NOT_OK(features->SetFeature(s, k));
        source_features[static_cast<size_t>(s)].push_back(k);
      }
    }
  }

  // --- Source accuracies. ---
  // (Cluster membership is decided below, but ids are deterministic: the
  // first num_copy_clusters * copy_cluster_size sources form the clusters.)
  int64_t clustered_sources = static_cast<int64_t>(config.num_copy_clusters) *
                              config.copy_cluster_size;
  SyntheticDataset out_meta;
  out_meta.true_accuracies.resize(static_cast<size_t>(config.num_sources));
  for (SourceId s = 0; s < config.num_sources; ++s) {
    double base = (config.copy_cluster_accuracy >= 0.0 &&
                   s < clustered_sources)
                      ? config.copy_cluster_accuracy
                      : config.mean_accuracy;
    double a = base +
               rng.Uniform(-config.accuracy_spread, config.accuracy_spread);
    for (FeatureId k : source_features[static_cast<size_t>(s)]) {
      a += feature_effect[static_cast<size_t>(k)];
    }
    if (config.accuracy_noise > 0.0) {
      a += rng.Normal(0.0, config.accuracy_noise);
    }
    out_meta.true_accuracies[static_cast<size_t>(s)] =
        Clamp(a, config.min_accuracy, config.max_accuracy);
  }

  // --- Copy clusters. ---
  out_meta.copy_cluster_of.assign(static_cast<size_t>(config.num_sources),
                                  -1);
  std::vector<SourceId> leader_of(static_cast<size_t>(config.num_sources),
                                  -1);
  for (int32_t c = 0; c < config.num_copy_clusters; ++c) {
    SourceId leader =
        static_cast<SourceId>(c * config.copy_cluster_size);
    for (int32_t m = 0; m < config.copy_cluster_size; ++m) {
      SourceId s = leader + m;
      out_meta.copy_cluster_of[static_cast<size_t>(s)] = c;
      if (m > 0) leader_of[static_cast<size_t>(s)] = leader;
    }
  }

  // --- Truths and stale values. ---
  std::vector<ValueId> truth(static_cast<size_t>(config.num_objects));
  std::vector<ValueId> stale(static_cast<size_t>(config.num_objects), 0);
  for (ObjectId o = 0; o < config.num_objects; ++o) {
    truth[static_cast<size_t>(o)] =
        static_cast<ValueId>(rng.UniformInt(config.num_values));
    if (config.num_values > 1) {
      ValueId sv = static_cast<ValueId>(rng.UniformInt(config.num_values - 1));
      if (sv >= truth[static_cast<size_t>(o)]) ++sv;
      stale[static_cast<size_t>(o)] = sv;
    }
    SLIMFAST_RETURN_NOT_OK(builder.SetTruth(o, truth[static_cast<size_t>(o)]));
  }

  // --- Observations, object by object. ---
  std::vector<SourceId> observers;
  std::vector<ValueId> opinion(static_cast<size_t>(config.num_sources));
  std::vector<uint8_t> has_opinion(static_cast<size_t>(config.num_sources));
  int32_t per_object = std::max(
      1, static_cast<int32_t>(std::llround(config.density *
                                           config.num_sources)));
  std::vector<uint8_t> observes(static_cast<size_t>(config.num_sources));
  for (ObjectId o = 0; o < config.num_objects; ++o) {
    observers.clear();
    if (config.sampling == SyntheticConfig::Sampling::kFixedPerObject) {
      int32_t k = std::min(per_object, config.num_sources);
      for (int64_t idx : rng.SampleWithoutReplacement(config.num_sources, k)) {
        observers.push_back(static_cast<SourceId>(idx));
      }
      std::sort(observers.begin(), observers.end());
    } else {
      // Two passes so copiers can piggyback on their leader's selection
      // (syndication): leaders/independents first, then copiers.
      std::fill(observes.begin(), observes.end(), 0);
      for (SourceId s = 0; s < config.num_sources; ++s) {
        if (leader_of[static_cast<size_t>(s)] >= 0) continue;
        observes[static_cast<size_t>(s)] = rng.Bernoulli(config.density);
      }
      for (SourceId s = 0; s < config.num_sources; ++s) {
        SourceId leader = leader_of[static_cast<size_t>(s)];
        if (leader < 0) continue;
        bool piggyback = config.copy_coobserve > 0.0 &&
                         observes[static_cast<size_t>(leader)] &&
                         rng.Bernoulli(config.copy_coobserve);
        observes[static_cast<size_t>(s)] =
            piggyback || rng.Bernoulli(config.density);
      }
      for (SourceId s = 0; s < config.num_sources; ++s) {
        if (observes[static_cast<size_t>(s)]) observers.push_back(s);
      }
    }
    if (observers.empty()) continue;

    // Private opinions first (leaders' opinions exist even when the leader
    // does not observe the object, so copiers can echo them).
    double difficulty_shift =
        config.object_difficulty > 0.0
            ? rng.Uniform(-config.object_difficulty,
                          config.object_difficulty)
            : 0.0;
    std::fill(has_opinion.begin(), has_opinion.end(), 0);
    auto opinion_of = [&](SourceId s) -> ValueId {
      size_t si = static_cast<size_t>(s);
      if (!has_opinion[si]) {
        double accuracy = Clamp(
            out_meta.true_accuracies[si] + difficulty_shift,
            config.min_accuracy, config.max_accuracy);
        opinion[si] = PrivateOpinion(config, truth[static_cast<size_t>(o)],
                                     stale[static_cast<size_t>(o)],
                                     accuracy, &rng);
        has_opinion[si] = 1;
      }
      return opinion[si];
    };

    std::vector<ValueId> claims(observers.size());
    for (size_t i = 0; i < observers.size(); ++i) {
      SourceId s = observers[i];
      SourceId leader = leader_of[static_cast<size_t>(s)];
      if (leader >= 0 && rng.Bernoulli(config.copy_fidelity)) {
        claims[i] = opinion_of(leader);
      } else {
        claims[i] = opinion_of(s);
      }
    }

    if (config.ensure_truth_claimed) {
      bool truth_claimed = false;
      for (ValueId v : claims) {
        if (v == truth[static_cast<size_t>(o)]) {
          truth_claimed = true;
          break;
        }
      }
      if (!truth_claimed) {
        claims[static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(claims.size())))] =
            truth[static_cast<size_t>(o)];
      }
    }

    for (size_t i = 0; i < observers.size(); ++i) {
      SLIMFAST_RETURN_NOT_OK(builder.AddObservation(o, observers[i],
                                                    claims[i]));
    }
  }

  SLIMFAST_ASSIGN_OR_RETURN(out_meta.dataset, std::move(builder).Build());
  return out_meta;
}

Result<std::vector<SyntheticDataset>> GenerateSyntheticReplicas(
    const SyntheticConfig& config, uint64_t base_seed, int32_t num_replicas,
    Executor* exec) {
  if (num_replicas < 0) {
    return Status::InvalidArgument("num_replicas must be >= 0");
  }
  std::vector<SyntheticDataset> replicas(static_cast<size_t>(num_replicas));
  std::vector<Status> statuses(static_cast<size_t>(num_replicas),
                               Status::OK());
  ParallelFor(exec, num_replicas, [&](int64_t i) {
    auto replica =
        GenerateSynthetic(config, ShardedRng::StreamSeed(
                                      base_seed, static_cast<int32_t>(i)));
    if (replica.ok()) {
      replicas[static_cast<size_t>(i)] = std::move(replica).ValueOrDie();
    } else {
      statuses[static_cast<size_t>(i)] = replica.status();
    }
  });
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return replicas;
}

}  // namespace slimfast
