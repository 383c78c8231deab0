// DeltaCompile: incremental compilation must be indistinguishable from
// full recompilation. The oracle is BitwiseEqual — the parameter
// structure, every derived scoring array, and the store fingerprint
// compared exactly — checked for every method preset's model config and
// several chunkings.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_instance.h"
#include "data/observation_store.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::AllSlimFastPresets;
using testutil::MakeFigure1Dataset;
using testutil::MakePlantedDataset;

Dataset EmptyTwin(const Dataset& dataset) {
  DatasetBuilder builder("empty-twin", dataset.num_sources(),
                         dataset.num_objects(), dataset.num_values());
  *builder.mutable_features() = dataset.features();
  return std::move(builder).Build().ValueOrDie();
}

/// Replays `dataset` into an instance in `num_chunks` delta steps.
std::shared_ptr<const CompiledInstance> DeltaChain(const Dataset& dataset,
                                                   const ModelConfig& config,
                                                   int32_t num_chunks) {
  Dataset empty = EmptyTwin(dataset);
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(empty, config).ValueOrDie();
  for (const ObservationBatch& chunk :
       ChunkDatasetForReplay(dataset, num_chunks)) {
    instance = DeltaCompile(*instance, chunk).ValueOrDie();
  }
  return instance;
}

TEST(DeltaCompileTest, MatchesFullRecompileForAllPresets) {
  const std::vector<double> planted = {0.92, 0.85, 0.7, 0.6, 0.55};
  const std::vector<Dataset> datasets = {
      MakeFigure1Dataset(),
      MakePlantedDataset(planted, 60, 0.5, 17),
      MakePlantedDataset(planted, 50, 0.4, 29, /*num_values=*/4),
  };
  for (const auto& preset : AllSlimFastPresets()) {
    ModelConfig config = preset.make()->options().model;
    for (const Dataset& dataset : datasets) {
      std::shared_ptr<const CompiledInstance> full =
          CompileInstance(dataset, config).ValueOrDie();
      for (int32_t num_chunks : {1, 4}) {
        auto delta = DeltaChain(dataset, config, num_chunks);
        EXPECT_TRUE(BitwiseEqual(*delta, *full))
            << preset.name << " dataset=" << dataset.name()
            << " chunks=" << num_chunks;
      }
    }
  }
}

// Batches of thousands of claims, spread over thousands of objects.
TEST(DeltaCompileTest, LargeBatchesMatchFullRecompile) {
  const std::vector<double> planted = {0.92, 0.85, 0.7,  0.6,
                                       0.55, 0.8,  0.75, 0.65};
  Dataset dataset = MakePlantedDataset(planted, 4000, 0.5, 23, 3);
  ModelConfig config;
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(dataset, config).ValueOrDie();
  EXPECT_TRUE(BitwiseEqual(*DeltaChain(dataset, config, 2), *full));
}

TEST(DeltaCompileTest, AnyChunkingYieldsTheSameInstance) {
  const std::vector<double> planted = {0.9, 0.8, 0.65, 0.6};
  Dataset dataset = MakePlantedDataset(planted, 70, 0.45, 41, 3);
  ModelConfig config;
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(dataset, config).ValueOrDie();
  for (int32_t num_chunks : {2, 3, 9}) {
    auto delta = DeltaChain(dataset, config, num_chunks);
    EXPECT_TRUE(BitwiseEqual(*delta, *full)) << "chunks=" << num_chunks;
  }
}

// A batch that first observes a low-id object splices its claims into the
// middle of the store (claims are in ObjectId order), shifting every
// later claim and candidate index. This is the structurally hardest
// delta.
TEST(DeltaCompileTest, SplicesNewRowsBetweenExistingOnes) {
  DatasetBuilder builder("splice", 3, 5, 2);
  // Objects 1 and 3 observed initially; 0, 2, 4 appear later.
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(3, 1, 0));
  Dataset initial = std::move(builder).Build().ValueOrDie();

  ModelConfig config;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(initial, config).ValueOrDie();

  ObservationBatch batch;
  batch.observations = {Observation{0, 2, 1}, Observation{4, 0, 0},
                        Observation{2, 1, 1}, Observation{3, 2, 1}};
  batch.truths = {TruthLabel{0, 1}, TruthLabel{3, 0}};
  instance = DeltaCompile(*instance, batch).ValueOrDie();

  // The oracle: rebuild the concatenated dataset from scratch.
  DatasetBuilder oracle("splice", 3, 5, 2);
  SLIMFAST_CHECK_OK(oracle.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(3, 1, 0));
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 2, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(4, 0, 0));
  SLIMFAST_CHECK_OK(oracle.AddObservation(2, 1, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(3, 2, 1));
  SLIMFAST_CHECK_OK(oracle.SetTruth(0, 1));
  SLIMFAST_CHECK_OK(oracle.SetTruth(3, 0));
  Dataset full_dataset = std::move(oracle).Build().ValueOrDie();
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(full_dataset, config).ValueOrDie();

  EXPECT_TRUE(BitwiseEqual(*instance, *full));
  for (ObjectId o = 0; o < 5; ++o) EXPECT_GT(instance->DomainSize(o), 0);
}

// Growing a binary domain past 2 candidates flips the multiclass offset
// for *every* claim on the object, so the object's offsets must be
// re-derived — the regression this test pins.
TEST(DeltaCompileTest, DomainGrowthRecomputesMulticlassOffsets) {
  DatasetBuilder builder("grow", 4, 1, 3);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  Dataset initial = std::move(builder).Build().ValueOrDie();

  ModelConfig config;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(initial, config).ValueOrDie();
  // Binary domain: no offsets.
  for (double offset : instance->cand_offsets) {
    EXPECT_EQ(offset, 0.0);
  }

  ObservationBatch batch;
  batch.observations = {Observation{0, 2, 2}, Observation{0, 3, 0}};
  instance = DeltaCompile(*instance, batch).ValueOrDie();

  DatasetBuilder oracle("grow", 4, 1, 3);
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 2, 2));
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 3, 0));
  Dataset full_dataset = std::move(oracle).Build().ValueOrDie();
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(full_dataset, config).ValueOrDie();
  EXPECT_TRUE(BitwiseEqual(*instance, *full));

  // The 3-value domain now carries log(2) per matching claim.
  bool any_nonzero = false;
  for (double offset : instance->cand_offsets) {
    if (offset != 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

// Truth never enters a candidate's score, so a labels-only batch must
// leave every scoring array as it was while still matching a full
// recompile bitwise. The parameter structure is shared, not copied.
TEST(DeltaCompileTest, TruthOnlyBatchLeavesScoringUnchanged) {
  DatasetBuilder builder("labels", 3, 3, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 2, 1));
  Dataset initial = std::move(builder).Build().ValueOrDie();

  ModelConfig config;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(initial, config).ValueOrDie();

  ObservationBatch labels_only;
  labels_only.truths = {TruthLabel{0, 1}, TruthLabel{1, 0},
                        TruthLabel{2, 0}};  // object 2: never observed
  std::shared_ptr<const CompiledInstance> labeled =
      DeltaCompile(*instance, labels_only).ValueOrDie();
  EXPECT_EQ(labeled->model, instance->model);
  EXPECT_EQ(labeled->claim_cand, instance->claim_cand);
  EXPECT_EQ(labeled->cand_offsets, instance->cand_offsets);
  instance = labeled;

  DatasetBuilder oracle("labels", 3, 3, 2);
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(oracle.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(oracle.SetTruth(0, 1));
  SLIMFAST_CHECK_OK(oracle.SetTruth(1, 0));
  SLIMFAST_CHECK_OK(oracle.SetTruth(2, 0));
  Dataset full_dataset = std::move(oracle).Build().ValueOrDie();
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(full_dataset, config).ValueOrDie();
  EXPECT_TRUE(BitwiseEqual(*instance, *full));
}

TEST(DeltaCompileTest, RejectsCopyingConfiguration) {
  Dataset dataset = MakeFigure1Dataset();
  ModelConfig config;
  config.use_copying_features = true;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(dataset, config).ValueOrDie();
  ObservationBatch batch;
  batch.observations.push_back(Observation{1, 1, 1});
  EXPECT_TRUE(
      DeltaCompile(*instance, batch).status().IsNotImplemented());
}

TEST(DeltaCompileTest, InvalidBatchLeavesBaseUsable) {
  Dataset dataset = MakeFigure1Dataset();
  ModelConfig config;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(dataset, config).ValueOrDie();

  ObservationBatch duplicate;
  duplicate.observations.push_back(Observation{0, 0, 1});
  EXPECT_FALSE(DeltaCompile(*instance, duplicate).ok());

  // The base still extends cleanly afterwards.
  ObservationBatch good;
  good.observations.push_back(Observation{1, 1, 1});
  auto grown = DeltaCompile(*instance, good);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown.ValueOrDie()->store.num_observations(),
            dataset.num_observations() + 1);
}

}  // namespace
}  // namespace slimfast
