// CompiledInstance and its cache: compilation is pinned to the last bit,
// and the cache must key on dataset content + ModelConfig.

#include "core/compiled_instance.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/model.h"
#include "synth/synthetic.h"
#include "test_util.h"
#include "util/hash.h"

namespace slimfast {
namespace {

using testutil::MakeFigure1Dataset;
using testutil::MakePlantedDataset;

/// Order-sensitive hash of everything CompileInstance produces except the
/// store (whose own fingerprint covers it): the parameter layout, the
/// trust-score CSR, the copy pairs and every derived scoring array.
/// Doubles are hashed by their bits, so the golden values below pin
/// compilation to the last bit.
class CompileDigest {
 public:
  void Add(uint64_t v) { h_ = HashCombine(h_, v); }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int32_t v) { Add(static_cast<uint64_t>(static_cast<uint32_t>(v))); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (const T& v : values) Add(v);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0;
};

uint64_t DigestOf(const CompiledInstance& inst) {
  const CompiledModel& model = *inst.model;
  CompileDigest d;
  const ParamLayout& l = model.layout;
  for (int32_t v : {l.num_params, l.source_offset, l.num_source_params,
                    l.feature_offset, l.num_feature_params, l.copy_offset,
                    l.num_copy_params, model.num_sources,
                    model.num_features}) {
    d.Add(v);
  }
  d.Add(model.sigma_begin);
  d.Add(model.sigma_param);
  d.Add(model.sigma_coeff);
  for (const auto& [i, j] : model.copy_pairs) {
    d.Add(i);
    d.Add(j);
  }
  d.Add(inst.claim_cand);
  d.Add(inst.cand_offsets);
  d.Add(inst.copy_begin);
  d.Add(inst.copy_param);
  d.Add(inst.copy_cand);
  return d.value();
}

// Golden digests of CompileInstance output, captured when scoring moved
// to trust-score sums over the claims. A compilation change that keeps
// every bit keeps these values; a deliberate numeric change re-pins them.
TEST(CompiledInstanceTest, GoldenCompileDigest) {
  const std::vector<double> planted = {0.9, 0.75, 0.6, 0.8, 0.55, 0.7};
  Dataset multiclass = MakePlantedDataset(planted, 300, 0.6, 29, 5);
  ModelConfig defaults;
  ModelConfig copying;
  copying.use_copying_features = true;
  EXPECT_EQ(DigestOf(*CompileInstance(multiclass, defaults).ValueOrDie()),
            0xfdf05b044202a81aULL);
  EXPECT_EQ(DigestOf(*CompileInstance(multiclass, copying).ValueOrDie()),
            0x01e2edf2dab0cf65ULL);

  // Shared feature weights and copy clusters, so sigma expressions share
  // feature parameters across sources and copy terms fire alongside them.
  SyntheticConfig config;
  config.num_sources = 40;
  config.num_objects = 400;
  config.num_values = 4;
  config.density = 0.2;
  config.num_feature_groups = 3;
  config.values_per_group = 4;
  config.feature_effect = 0.5;
  config.num_copy_clusters = 3;
  config.copy_coobserve = 0.5;
  Dataset synthetic = GenerateSynthetic(config, 5).ValueOrDie().dataset;
  ASSERT_GT(synthetic.features().num_features(), 0);
  auto with_copying = CompileInstance(synthetic, copying).ValueOrDie();
  ASSERT_GT(with_copying->model->layout.num_copy_params, 0);
  EXPECT_EQ(DigestOf(*CompileInstance(synthetic, defaults).ValueOrDie()),
            0x7f0cf4c46403e094ULL);
  EXPECT_EQ(DigestOf(*with_copying), 0x8249df36a0b0b2baULL);
}

TEST(CompiledInstanceTest, FingerprintTracksDatasetContent) {
  Dataset a = MakeFigure1Dataset();
  Dataset b = MakeFigure1Dataset();
  EXPECT_EQ(DatasetCompilationFingerprint(a),
            DatasetCompilationFingerprint(b));

  // One extra observation changes the fingerprint.
  DatasetBuilder builder("figure1", 3, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(1, 1));
  Dataset c = std::move(builder).Build().ValueOrDie();
  EXPECT_NE(DatasetCompilationFingerprint(a),
            DatasetCompilationFingerprint(c));

  // Same observations, different truth: different fingerprint.
  DatasetBuilder builder2("figure1", 3, 2, 2);
  SLIMFAST_CHECK_OK(builder2.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder2.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder2.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder2.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder2.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(builder2.SetTruth(0, 1));
  SLIMFAST_CHECK_OK(builder2.SetTruth(1, 1));
  Dataset d = std::move(builder2).Build().ValueOrDie();
  EXPECT_NE(DatasetCompilationFingerprint(a),
            DatasetCompilationFingerprint(d));

  // A feature-set change (sigma sparsity) changes the fingerprint too.
  DatasetBuilder builder3("figure1", 3, 2, 2);
  SLIMFAST_CHECK_OK(builder3.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder3.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder3.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder3.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder3.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(builder3.SetTruth(0, 0));
  SLIMFAST_CHECK_OK(builder3.SetTruth(1, 1));
  FeatureId k = builder3.mutable_features()->RegisterFeature("venue=journal");
  SLIMFAST_CHECK_OK(builder3.mutable_features()->SetFeature(0, k));
  Dataset e = std::move(builder3).Build().ValueOrDie();
  EXPECT_NE(DatasetCompilationFingerprint(a),
            DatasetCompilationFingerprint(e));
}

TEST(CompiledInstanceCacheTest, HitsOnSameContentMissesOnDifferent) {
  CompiledInstanceCache cache;
  Dataset a = MakeFigure1Dataset();
  ModelConfig config;

  auto first = cache.GetOrCompile(a, config).ValueOrDie();
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  // Same content (even a distinct Dataset object) hits.
  Dataset b = MakeFigure1Dataset();
  auto second = cache.GetOrCompile(b, config).ValueOrDie();
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(first.get(), second.get());

  // A different config misses.
  ModelConfig sources_only;
  sources_only.use_feature_weights = false;
  auto third = cache.GetOrCompile(a, sources_only).ValueOrDie();
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_NE(first.get(), third.get());

  // Different dataset content misses.
  const std::vector<double> planted = {0.9, 0.8};
  Dataset c = MakePlantedDataset(planted, 20, 0.5, 3);
  auto fourth = cache.GetOrCompile(c, config).ValueOrDie();
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.size(), 3u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CompiledInstanceCacheTest, EvictsLeastRecentlyUsed) {
  CompiledInstanceCache cache(/*capacity=*/2);
  ModelConfig config;
  const std::vector<double> planted = {0.9, 0.8};
  Dataset a = MakePlantedDataset(planted, 10, 0.9, 1);
  Dataset b = MakePlantedDataset(planted, 11, 0.9, 2);
  Dataset c = MakePlantedDataset(planted, 12, 0.9, 3);

  (void)cache.GetOrCompile(a, config).ValueOrDie();
  (void)cache.GetOrCompile(b, config).ValueOrDie();
  (void)cache.GetOrCompile(a, config).ValueOrDie();  // refresh a
  (void)cache.GetOrCompile(c, config).ValueOrDie();  // evicts b
  EXPECT_EQ(cache.size(), 2u);

  int64_t misses_before = cache.misses();
  (void)cache.GetOrCompile(a, config).ValueOrDie();  // still cached
  EXPECT_EQ(cache.misses(), misses_before);
  (void)cache.GetOrCompile(b, config).ValueOrDie();  // recompiles
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(CompiledInstanceCacheTest, GlobalCacheIsSharedAcrossFits) {
  CompiledInstanceCache& global = CompiledInstanceCache::Global();
  global.Clear();
  int64_t misses_before = global.misses();

  const std::vector<double> planted = {0.9, 0.8, 0.7};
  Dataset dataset = MakePlantedDataset(planted, 40, 0.5, 9);
  Rng rng(2);
  TrainTestSplit split = MakeSplit(dataset, 0.2, &rng).ValueOrDie();
  auto method = MakeSlimFast();
  (void)method->Run(dataset, split, 1).ValueOrDie();
  (void)method->Run(dataset, split, 2).ValueOrDie();
  // Two runs on the same dataset + config compile once.
  EXPECT_EQ(global.misses(), misses_before + 1);
  global.Clear();
}

}  // namespace
}  // namespace slimfast
