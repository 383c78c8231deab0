#include <cmath>

#include <gtest/gtest.h>

#include "core/compiled_instance.h"
#include "core/model.h"
#include "test_util.h"

namespace slimfast {
namespace {

Dataset MakeFeatureDataset() {
  DatasetBuilder builder("feat", 3, 2, 2);
  FeatureSpace* fs = builder.mutable_features();
  FeatureId k0 = fs->RegisterFeature("k0");
  FeatureId k1 = fs->RegisterFeature("k1");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k0));
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k1));
  SLIMFAST_CHECK_OK(fs->SetFeature(1, k1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 1));
  return std::move(builder).Build().ValueOrDie();
}

TEST(CompilationTest, LayoutDefaultConfig) {
  Dataset d = MakeFeatureDataset();
  auto model = Compile(d, ModelConfig{}).ValueOrDie();
  EXPECT_EQ(model.layout.num_source_params, 3);
  EXPECT_EQ(model.layout.num_feature_params, 2);
  EXPECT_EQ(model.layout.num_copy_params, 0);
  EXPECT_EQ(model.layout.num_params, 5);
  EXPECT_EQ(model.layout.source_offset, 0);
  EXPECT_EQ(model.layout.feature_offset, 3);
}

TEST(CompilationTest, LayoutPredicates) {
  Dataset d = MakeFeatureDataset();
  auto model = Compile(d, ModelConfig{}).ValueOrDie();
  EXPECT_TRUE(model.layout.IsSourceParam(0));
  EXPECT_TRUE(model.layout.IsSourceParam(2));
  EXPECT_FALSE(model.layout.IsSourceParam(3));
  EXPECT_TRUE(model.layout.IsFeatureParam(3));
  EXPECT_TRUE(model.layout.IsFeatureParam(4));
  EXPECT_FALSE(model.layout.IsFeatureParam(2));
  EXPECT_FALSE(model.layout.IsCopyParam(4));
}

/// Parameters of σ_s's terms, in CSR order.
std::vector<ParamId> SigmaParams(const CompiledModel& model, SourceId s) {
  return std::vector<ParamId>(
      model.sigma_param.begin() + model.sigma_begin[static_cast<size_t>(s)],
      model.sigma_param.begin() +
          model.sigma_begin[static_cast<size_t>(s) + 1]);
}

TEST(CompilationTest, SigmaTermsContainSourceAndFeatures) {
  Dataset d = MakeFeatureDataset();
  auto model = Compile(d, ModelConfig{}).ValueOrDie();
  ASSERT_EQ(model.sigma_begin.size(), 4u);
  // Source 0: own weight + features k0, k1.
  EXPECT_EQ(SigmaParams(model, 0), (std::vector<ParamId>{0, 3, 4}));
  for (double coeff : model.sigma_coeff) EXPECT_EQ(coeff, 1.0);
  // Source 2: no features.
  EXPECT_EQ(SigmaParams(model, 2), (std::vector<ParamId>{2}));
}

TEST(CompilationTest, SourcesOnlyConfig) {
  Dataset d = MakeFeatureDataset();
  ModelConfig config;
  config.use_feature_weights = false;
  auto model = Compile(d, config).ValueOrDie();
  EXPECT_EQ(model.layout.num_params, 3);
  EXPECT_EQ(model.layout.num_feature_params, 0);
  for (SourceId s = 0; s < 3; ++s) {
    EXPECT_EQ(SigmaParams(model, s), (std::vector<ParamId>{s}));
  }
}

TEST(CompilationTest, FeatureOnlyConfig) {
  Dataset d = MakeFeatureDataset();
  ModelConfig config;
  config.use_source_weights = false;
  auto model = Compile(d, config).ValueOrDie();
  EXPECT_EQ(model.layout.num_params, 2);
  // Source 2 has no features, so its sigma expression is empty (score 0).
  EXPECT_TRUE(SigmaParams(model, 2).empty());
}

TEST(CompilationTest, RejectsNoParameterGroups) {
  Dataset d = MakeFeatureDataset();
  ModelConfig config;
  config.use_source_weights = false;
  config.use_feature_weights = false;
  EXPECT_TRUE(Compile(d, config).status().IsInvalidArgument());
}

TEST(CompilationTest, RejectsFeatureOnlyWithoutFeatures) {
  Dataset d = testutil::MakeFigure1Dataset();  // no features
  ModelConfig config;
  config.use_source_weights = false;
  EXPECT_TRUE(Compile(d, config).status().IsFailedPrecondition());
}

/// Raw candidate scores of `object` under `model`'s weights.
std::vector<double> ScoresOf(const SlimFastModel& model, ObjectId object) {
  const std::vector<double> sigma = model.TrustScores();
  std::vector<double> scores(
      static_cast<size_t>(model.instance().DomainSize(object)));
  CandidateScores(model.instance(), object, sigma.data(),
                  model.weights().data(), scores.data());
  return scores;
}

TEST(CompilationTest, ObjectTermsAggregateClaimingSigmas) {
  Dataset d = MakeFeatureDataset();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  // Object 0: value 0 claimed by source 2; value 1 by sources 0 and 1.
  EXPECT_EQ(model.instance().claim_cand, (std::vector<int32_t>{1, 1, 0, 0}));
  // Weights are powers of two, so every sum below is exact.
  model.SetWeights({1.0, 2.0, 4.0, 8.0, 16.0});  // w_s0..w_s2, k0, k1
  // Value 0: σ_2 = w_s2. Value 1: σ_0 + σ_1 = w_s0 + k0 + k1 + w_s1 + k1.
  EXPECT_EQ(ScoresOf(model, 0), (std::vector<double>{4.0, 43.0}));
  // Object 1: value 0 claimed by source 1 alone.
  EXPECT_EQ(ScoresOf(model, 1), (std::vector<double>{18.0}));
}

TEST(CompilationTest, UnobservedObjectsHaveNoRow) {
  DatasetBuilder builder("gap", 2, 3, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(2, 1, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  EXPECT_EQ(instance->DomainSize(0), 1);
  EXPECT_EQ(instance->DomainSize(1), 0);
  EXPECT_EQ(instance->DomainSize(2), 1);
  EXPECT_EQ(instance->cand_offsets.size(), 2u);
  std::vector<double> probs;
  EXPECT_FALSE(SlimFastModel(instance).PosteriorOf(1, &probs));
}

TEST(CompilationTest, DomainIndexLookup) {
  Dataset d = MakeFeatureDataset();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  EXPECT_EQ(instance->store.DomainIndexOf(0, 0), 0);
  EXPECT_EQ(instance->store.DomainIndexOf(0, 1), 1);
  EXPECT_EQ(instance->store.DomainIndexOf(0, 7), -1);
  // Each claim's candidate index is the store's domain index of its value.
  const ObservationStore& store = instance->store;
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    const IndexRange claims = store.ObjectRange(o);
    for (int64_t i = claims.begin; i < claims.end; ++i) {
      const size_t k = static_cast<size_t>(i);
      EXPECT_EQ(instance->claim_cand[k],
                store.DomainIndexOf(o, store.values()[k]));
    }
  }
}

Dataset MakeCopyingDataset() {
  // Sources 0 and 1 agree on the wrong value for three objects; source 2
  // is independent.
  DatasetBuilder builder("copy", 3, 4, 2);
  for (ObjectId o = 0; o < 3; ++o) {
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 0, 1));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 1, 1));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 2, 0));
    SLIMFAST_CHECK_OK(builder.SetTruth(o, 0));
  }
  SLIMFAST_CHECK_OK(builder.AddObservation(3, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(3, 2, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(3, 0));
  return std::move(builder).Build().ValueOrDie();
}

TEST(CompilationTest, CopyingPairsRegisteredByAgreementCount) {
  Dataset d = MakeCopyingDataset();
  ModelConfig config;
  config.use_copying_features = true;
  config.copying_min_agreements = 2;
  auto model = Compile(d, config).ValueOrDie();
  // Agreements: (0,1) on objects 0-2 = 3 times; (0,2) only on object 3 =
  // once; (1,2) never. With min_agreements = 2 only (0,1) qualifies.
  ASSERT_EQ(model.copy_pairs.size(), 1u);
  EXPECT_EQ(model.copy_pairs[0], (std::pair<SourceId, SourceId>(0, 1)));
}

TEST(CompilationTest, CopyingMaxPairsCap) {
  Dataset d = MakeCopyingDataset();
  ModelConfig config;
  config.use_copying_features = true;
  config.copying_min_agreements = 1;
  config.copying_max_pairs = 1;
  auto model = Compile(d, config).ValueOrDie();
  ASSERT_EQ(model.copy_pairs.size(), 1u);
  // Highest-agreement pair wins the cap.
  EXPECT_EQ(model.copy_pairs[0], (std::pair<SourceId, SourceId>(0, 1)));
}

TEST(CompilationTest, CopyingTermsPenalizeAgreedValue) {
  Dataset d = MakeCopyingDataset();
  ModelConfig config;
  config.use_copying_features = true;
  config.copying_min_agreements = 2;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  const ParamLayout& layout = model.layout();
  ASSERT_EQ(layout.num_copy_params, 1);
  // On object 0 the pair (0,1) agreed on value 1, so the copy parameter
  // fires on candidate 0 (the value they did NOT claim) and only there.
  const CompiledInstance& inst = model.instance();
  ASSERT_EQ(inst.copy_begin[1] - inst.copy_begin[0], 1);
  EXPECT_EQ(inst.copy_param[0], layout.copy_offset);
  EXPECT_EQ(inst.copy_cand[0], 1);
  // Object 3 has no agreeing registered pair.
  EXPECT_EQ(inst.copy_begin[4] - inst.copy_begin[3], 0);
  std::vector<double> w(static_cast<size_t>(layout.num_params), 0.0);
  w[static_cast<size_t>(layout.copy_offset)] = 1.5;
  model.SetWeights(w);
  EXPECT_EQ(ScoresOf(model, 0), (std::vector<double>{1.5, 0.0}));
}

TEST(CompilationTest, SharedFeatureSourcesScoreAsOffsetPlusSigmaSums) {
  // Sources 0 and 1 share feature k and both claim value 2 of object 0;
  // source 2 claims value 0 and source 3 value 1, so |D_0| = 3 and each
  // claim carries the multiclass offset log 2. The pair (0, 1) agrees on
  // objects 0 and 1 and becomes the one copy pair.
  DatasetBuilder builder("shared", 4, 2, 3);
  FeatureSpace* fs = builder.mutable_features();
  FeatureId k = fs->RegisterFeature("k");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k));
  SLIMFAST_CHECK_OK(fs->SetFeature(1, k));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 2));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 2));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 3, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 1));
  Dataset d = std::move(builder).Build().ValueOrDie();
  ModelConfig config;
  config.use_copying_features = true;
  config.copying_min_agreements = 2;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  const ParamLayout& layout = model.layout();
  ASSERT_EQ(layout.num_params, 6);  // 4 sources, feature k, one pair
  const double w_s[4] = {0.25, -0.5, 0.75, 1.25};
  const double w_k = 0.375;
  const double w_copy = 0.625;
  model.SetWeights({w_s[0], w_s[1], w_s[2], w_s[3], w_k, w_copy});

  const double sigma0 = w_s[0] + w_k;
  const double sigma1 = w_s[1] + w_k;
  const double offset = std::log(2.0);
  // Candidates 0, 1, 2 = values 0, 1, 2. The copy weight fires on every
  // candidate but the agreed value 2.
  const std::vector<double> expected = {
      offset + w_s[2] + w_copy,
      offset + w_s[3] + w_copy,
      (offset + offset) + sigma0 + sigma1,
  };
  EXPECT_EQ(ScoresOf(model, 0), expected);
  // Object 1: binary domain {1}, no offset; the only candidate is the
  // agreed one, so the copy weight fires nowhere.
  EXPECT_EQ(ScoresOf(model, 1), (std::vector<double>{sigma0 + sigma1}));
}

TEST(CompilationTest, CopyingRequiresTwoSources) {
  DatasetBuilder builder("solo", 1, 1, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  ModelConfig config;
  config.use_copying_features = true;
  EXPECT_TRUE(Compile(d, config).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace slimfast
