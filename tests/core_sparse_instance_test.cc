// CompiledInstance: compilation is pinned to the last bit.

#include "core/compiled_instance.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "synth/synthetic.h"
#include "test_util.h"
#include "util/hash.h"

namespace slimfast {
namespace {

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

}  // namespace
}  // namespace slimfast
