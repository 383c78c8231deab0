// ObservationStore: the columnar (structure-of-arrays) mirror of a
// Dataset. The invariants under test are exactly what the sparse learning
// paths rely on: canonical order matches Dataset::ClaimsOnObject, the
// per-object ranges partition the arrays, and the fingerprint tracks
// content.

#include "data/observation_store.h"

#include <utility>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "synth/synthetic.h"
#include "test_util.h"
#include "util/hash.h"

namespace slimfast {
namespace {

using testutil::MakeFigure1Dataset;
using testutil::MakePlantedDataset;

TEST(ObservationStoreTest, MirrorsFigure1Dataset) {
  Dataset dataset = MakeFigure1Dataset();
  ObservationStore store = ObservationStore::FromDataset(dataset);

  EXPECT_EQ(store.num_sources(), dataset.num_sources());
  EXPECT_EQ(store.num_objects(), dataset.num_objects());
  EXPECT_EQ(store.num_values(), dataset.num_values());
  EXPECT_EQ(store.num_observations(), dataset.num_observations());

  // Canonical order: object-major, insertion order within object — the
  // order ClaimsOnObject walks.
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    const auto& claims = dataset.ClaimsOnObject(o);
    IndexRange range = store.ObjectRange(o);
    ASSERT_EQ(range.size(), static_cast<int64_t>(claims.size()));
    for (int64_t i = range.begin; i < range.end; ++i) {
      size_t k = static_cast<size_t>(i - range.begin);
      EXPECT_EQ(store.sources()[static_cast<size_t>(i)], claims[k].source);
      EXPECT_EQ(store.values()[static_cast<size_t>(i)], claims[k].value);
    }
  }
}

TEST(ObservationStoreTest, DomainsAndTruthMatchDataset) {
  const std::vector<double> planted = {0.9, 0.7, 0.6};
  Dataset dataset = MakePlantedDataset(planted, 40, 0.6, 7, 4);
  ObservationStore store = ObservationStore::FromDataset(dataset);

  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    const auto& domain = dataset.DomainOf(o);
    IndexRange range = store.DomainRange(o);
    ASSERT_EQ(range.size(), static_cast<int64_t>(domain.size()));
    for (int64_t i = range.begin; i < range.end; ++i) {
      ValueId v = store.domain_values()[static_cast<size_t>(i)];
      size_t k = static_cast<size_t>(i - range.begin);
      EXPECT_EQ(v, domain[k]);
      EXPECT_EQ(store.DomainIndexOf(o, v), static_cast<int32_t>(k));
    }
    EXPECT_EQ(store.DomainIndexOf(o, 999), -1);
    EXPECT_EQ(store.HasTruth(o), dataset.HasTruth(o));
    if (dataset.HasTruth(o)) {
      EXPECT_EQ(store.truth()[static_cast<size_t>(o)], dataset.Truth(o));
    }
  }
}

TEST(ObservationStoreTest, EmptyDataset) {
  Dataset dataset =
      std::move(DatasetBuilder("empty", 2, 3, 2)).Build().ValueOrDie();
  ObservationStore store = ObservationStore::FromDataset(dataset);
  EXPECT_EQ(store.num_observations(), 0);
  for (ObjectId o = 0; o < 3; ++o) {
    EXPECT_TRUE(store.ObjectRange(o).empty());
    EXPECT_TRUE(store.DomainRange(o).empty());
  }
}

// ---- AppendBatch: the incremental-ingest path. ----

// The store-equality oracle: appending a dataset chunk by chunk must be
// indistinguishable — every array, every CSR index, the fingerprint —
// from building the store over the concatenated data in one shot.
TEST(ObservationStoreAppendTest, ChunkedAppendsEqualFromDataset) {
  const std::vector<double> planted = {0.9, 0.7, 0.6, 0.8, 0.55};
  Dataset dataset = MakePlantedDataset(planted, 80, 0.4, 23, 3);
  ObservationStore full = ObservationStore::FromDataset(dataset);

  for (int32_t num_chunks : {1, 2, 5, 13}) {
    Dataset empty = std::move(DatasetBuilder("inc", dataset.num_sources(),
                                             dataset.num_objects(),
                                             dataset.num_values()))
                        .Build()
                        .ValueOrDie();
    ObservationStore store = ObservationStore::FromDataset(empty);
    for (const ObservationBatch& chunk :
         ChunkDatasetForReplay(dataset, num_chunks)) {
      store = store.AppendBatch(chunk).ValueOrDie();
    }
    EXPECT_TRUE(store == full) << "chunks=" << num_chunks;
    EXPECT_EQ(store.content_fingerprint(), full.content_fingerprint());
  }
}

/// Order-sensitive hash of every array the store holds, its dimensions and
/// its content fingerprint.
uint64_t StoreDigest(const ObservationStore& store) {
  uint64_t h = 0;
  auto add = [&h](uint64_t v) { h = HashCombine(h, v); };
  auto add_array = [&add](const auto& values) {
    add(static_cast<uint64_t>(values.size()));
    for (auto v : values) add(static_cast<uint64_t>(v));
  };
  add(static_cast<uint64_t>(store.num_sources()));
  add(static_cast<uint64_t>(store.num_objects()));
  add(static_cast<uint64_t>(store.num_values()));
  add_array(store.sources());
  add_array(store.values());
  add_array(store.object_offsets());
  add_array(store.domain_offsets());
  add_array(store.domain_values());
  add_array(store.truth());
  add(store.content_fingerprint());
  return h;
}

// Golden digests of chunked AppendBatch replays: every array and the
// fingerprint after every step. A rewrite of the append that keeps every
// bit keeps these values.
TEST(ObservationStoreAppendTest, GoldenChunkedReplayDigest) {
  SyntheticConfig config;
  config.num_sources = 60;
  config.num_objects = 500;
  config.num_values = 4;
  config.density = 0.1;
  Dataset dataset = GenerateSynthetic(config, 17).ValueOrDie().dataset;
  const ObservationStore full = ObservationStore::FromDataset(dataset);

  std::vector<uint64_t> digests;
  for (int32_t num_chunks : {1, 4, 32}) {
    Dataset empty = std::move(DatasetBuilder("inc", dataset.num_sources(),
                                             dataset.num_objects(),
                                             dataset.num_values()))
                        .Build()
                        .ValueOrDie();
    ObservationStore store = ObservationStore::FromDataset(empty);
    uint64_t digest = StoreDigest(store);
    for (const ObservationBatch& chunk :
         ChunkDatasetForReplay(dataset, num_chunks)) {
      store = store.AppendBatch(chunk).ValueOrDie();
      digest = HashCombine(digest, StoreDigest(store));
    }
    EXPECT_TRUE(store == full) << "chunks=" << num_chunks;
    digests.push_back(digest);
  }
  EXPECT_EQ(StoreDigest(full), 0xf5000483f7d8215dULL);
  EXPECT_EQ(digests[0], 0xad73802eb2bf09b2ULL);
  EXPECT_EQ(digests[1], 0x8f479febba879e89ULL);
  EXPECT_EQ(digests[2], 0x90cac9757eabb406ULL);
}

TEST(ObservationStoreAppendTest, FingerprintTracksContent) {
  Dataset dataset = MakeFigure1Dataset();
  ObservationStore store = ObservationStore::FromDataset(dataset);

  // Appending changes the fingerprint; same content, same fingerprint.
  ObservationBatch batch;
  batch.observations.push_back(Observation{1, 1, 1});
  ObservationStore grown = store.AppendBatch(batch).ValueOrDie();
  EXPECT_NE(grown.content_fingerprint(), store.content_fingerprint());
  ObservationStore grown_again = store.AppendBatch(batch).ValueOrDie();
  EXPECT_EQ(grown.content_fingerprint(),
            grown_again.content_fingerprint());

  // A different claimed value gives a different fingerprint.
  ObservationBatch other;
  other.observations.push_back(Observation{1, 1, 0});
  ObservationStore grown_other = store.AppendBatch(other).ValueOrDie();
  EXPECT_NE(grown.content_fingerprint(), grown_other.content_fingerprint());
}

TEST(ObservationStoreAppendTest, GrowsTheClaimedObjectOnly) {
  Dataset dataset = MakeFigure1Dataset();
  ObservationStore store = ObservationStore::FromDataset(dataset);

  // Figure 1 has sources {0,1,2} on object 0 and {0,2} on object 1; a new
  // claim must come from a source that has not claimed the object yet.
  ObservationBatch batch;
  batch.observations.push_back(Observation{1, 1, 0});
  batch.truths.push_back(TruthLabel{0, 0});  // re-assert: no-op
  ObservationStore grown = store.AppendBatch(batch).ValueOrDie();
  // Object 1's domain grew from {1} to {0, 1}.
  EXPECT_EQ(grown.DomainRange(1).size(), 2);
  EXPECT_EQ(grown.ObjectRange(1).size(), 3);
  // Object 0 and the re-asserted truth are unchanged.
  EXPECT_EQ(grown.ObjectRange(0).size(), store.ObjectRange(0).size());
  EXPECT_EQ(grown.DomainRange(0).size(), store.DomainRange(0).size());
  EXPECT_EQ(grown.truth(), store.truth());
}

TEST(ObservationStoreAppendTest, ValidatesBatch) {
  Dataset dataset = MakeFigure1Dataset();
  ObservationStore store = ObservationStore::FromDataset(dataset);

  ObservationBatch bad_object;
  bad_object.observations.push_back(Observation{99, 0, 0});
  EXPECT_TRUE(store.AppendBatch(bad_object).status().IsOutOfRange());

  ObservationBatch bad_value;
  bad_value.observations.push_back(Observation{0, 0, 9});
  EXPECT_TRUE(store.AppendBatch(bad_value).status().IsOutOfRange());

  // Source 0 already claimed object 0 in the base data.
  ObservationBatch duplicate;
  duplicate.observations.push_back(Observation{0, 0, 1});
  EXPECT_TRUE(store.AppendBatch(duplicate).status().IsAlreadyExists());

  // Within-batch duplicate (source 1 claims object 1 twice).
  ObservationBatch batch_dup;
  batch_dup.observations.push_back(Observation{1, 1, 0});
  batch_dup.observations.push_back(Observation{1, 1, 1});
  EXPECT_TRUE(store.AppendBatch(batch_dup).status().IsAlreadyExists());

  // Object 0's truth is 0; contradicting it fails, re-asserting is fine.
  ObservationBatch contradiction;
  contradiction.truths.push_back(TruthLabel{0, 1});
  EXPECT_TRUE(
      store.AppendBatch(contradiction).status().IsFailedPrecondition());
  ObservationBatch reassert;
  reassert.truths.push_back(TruthLabel{0, 0});
  EXPECT_TRUE(store.AppendBatch(reassert).ok());

  // Source 1 claimed object 0 in history; claiming object 1 is new.
  ObservationBatch other_object;
  other_object.observations.push_back(Observation{1, 1, 1});
  EXPECT_TRUE(store.AppendBatch(other_object).ok());

  // One source claims two adjacent objects in one batch.
  DatasetBuilder wide("wide", 3, 3, 2);
  SLIMFAST_CHECK_OK(wide.AddObservation(0, 0, 0));
  ObservationStore three = ObservationStore::FromDataset(
      std::move(wide).Build().ValueOrDie());
  ObservationBatch adjacent;
  adjacent.observations.push_back(Observation{1, 2, 0});
  adjacent.observations.push_back(Observation{2, 2, 1});
  EXPECT_TRUE(three.AppendBatch(adjacent).ok());

  // Two different truths for one unlabeled object in one batch.
  ObservationBatch two_truths;
  two_truths.truths.push_back(TruthLabel{1, 0});
  two_truths.truths.push_back(TruthLabel{1, 0});
  two_truths.truths.push_back(TruthLabel{1, 1});
  Status two = three.AppendBatch(two_truths).status();
  EXPECT_TRUE(two.IsFailedPrecondition());
  EXPECT_NE(two.ToString().find("two truths"), std::string::npos);

  // A truth that contradicts history names the conflict.
  Status conflict = store.AppendBatch(contradiction).status();
  EXPECT_NE(conflict.ToString().find("conflicting"), std::string::npos);

  // A failed append leaves the base store untouched.
  ObservationStore same = ObservationStore::FromDataset(dataset);
  EXPECT_TRUE(store == same);
}

TEST(ObservationStoreAppendTest, EmptyBatchIsIdentity) {
  Dataset dataset = MakeFigure1Dataset();
  ObservationStore store = ObservationStore::FromDataset(dataset);
  ObservationStore same = store.AppendBatch(ObservationBatch{}).ValueOrDie();
  EXPECT_TRUE(store == same);
}

// Regression for the quadratic duplicate-source scan: a hot object with
// a long claim history must accept/reject appends exactly (the duplicate
// check's cost must stay linear, its behavior exact).
TEST(ObservationStoreAppendTest, HotObjectDuplicateChecksStayExact) {
  const int32_t num_sources = 300;
  DatasetBuilder builder("hot", num_sources, 2, 2);
  // Every even source already claims object 0.
  for (SourceId s = 0; s < num_sources; s += 2) {
    SLIMFAST_CHECK_OK(builder.AddObservation(0, s, s % 4 == 0 ? 0 : 1));
  }
  Dataset dataset = std::move(builder).Build().ValueOrDie();
  ObservationStore store = ObservationStore::FromDataset(dataset);

  // All remaining (odd) sources arrive in one batch on the same object.
  ObservationBatch fresh;
  for (SourceId s = 1; s < num_sources; s += 2) {
    fresh.observations.push_back(Observation{0, s, 1});
  }
  ObservationStore grown = store.AppendBatch(fresh).ValueOrDie();
  EXPECT_EQ(grown.ObjectRange(0).size(), num_sources);

  // Every single already-claiming source is still rejected, and a
  // history-duplicate is reported even when the batch also carries an
  // intra-batch duplicate later (precedence: scan order).
  for (SourceId s = 0; s < num_sources; s += 2) {
    ObservationBatch duplicate;
    duplicate.observations.push_back(Observation{0, s, 0});
    EXPECT_TRUE(store.AppendBatch(duplicate).status().IsAlreadyExists())
        << "source " << s;
  }
  ObservationBatch mixed;
  mixed.observations.push_back(Observation{0, 0, 0});  // vs history
  mixed.observations.push_back(Observation{0, 1, 0});
  mixed.observations.push_back(Observation{0, 1, 1});  // within batch
  Status status = store.AppendBatch(mixed).status();
  EXPECT_TRUE(status.IsAlreadyExists());

  // The grown store is still bit-identical to a from-scratch build over
  // the same claims.
  DatasetBuilder all("hot-all", num_sources, 2, 2);
  for (SourceId s = 0; s < num_sources; s += 2) {
    SLIMFAST_CHECK_OK(all.AddObservation(0, s, s % 4 == 0 ? 0 : 1));
  }
  for (SourceId s = 1; s < num_sources; s += 2) {
    SLIMFAST_CHECK_OK(all.AddObservation(0, s, 1));
  }
  ObservationStore rebuilt = ObservationStore::FromDataset(
      std::move(all).Build().ValueOrDie());
  EXPECT_TRUE(grown == rebuilt);
}

// Re-asserting a truth the store already has is a no-op all the way
// down to the fingerprint — so a replayed TRUTH command cannot make a
// recovered store diverge from the original.
TEST(ObservationStoreAppendTest, RepeatedIdenticalTruthIsFingerprintNoOp) {
  Dataset dataset = MakeFigure1Dataset();  // object 0's truth is 0
  ObservationStore store = ObservationStore::FromDataset(dataset);

  ObservationBatch reassert;
  reassert.truths.push_back(TruthLabel{0, 0});
  ObservationStore same = store.AppendBatch(reassert).ValueOrDie();
  EXPECT_TRUE(same == store);
  EXPECT_EQ(same.content_fingerprint(), store.content_fingerprint());

  // Asserting it twice within one batch is equally idempotent.
  reassert.truths.push_back(TruthLabel{0, 0});
  ObservationStore still_same = store.AppendBatch(reassert).ValueOrDie();
  EXPECT_TRUE(still_same == store);
}

// ---- ToColumns / FromColumns: the snapshot serialization surface. ----

TEST(ObservationStoreColumnsTest, RoundTripsBitwise) {
  const std::vector<double> planted = {0.9, 0.7, 0.6, 0.8};
  Dataset dataset = MakePlantedDataset(planted, 50, 0.5, 13, 3);
  ObservationStore store = ObservationStore::FromDataset(dataset);

  ObservationStore loaded =
      ObservationStore::FromColumns(store.ToColumns()).ValueOrDie();
  // Equality covers the rebuilt derived state too: by-source index,
  // domains, fingerprint.
  EXPECT_TRUE(loaded == store);

  // An empty store round-trips as well (the fresh-service checkpoint).
  Dataset empty = std::move(DatasetBuilder("empty", 4, 50, 3))
                      .Build()
                      .ValueOrDie();
  ObservationStore empty_store = ObservationStore::FromDataset(empty);
  EXPECT_TRUE(ObservationStore::FromColumns(empty_store.ToColumns())
                  .ValueOrDie() == empty_store);
}

TEST(ObservationStoreColumnsTest, RejectsTamperedContent) {
  Dataset dataset = MakeFigure1Dataset();
  ObservationStore store = ObservationStore::FromDataset(dataset);

  // Content changed but the serialized fingerprint kept: the recomputed
  // fingerprint catches it — a snapshot cannot smuggle altered claims.
  ObservationStore::Columns tampered = store.ToColumns();
  tampered.values[0] = 1 - tampered.values[0];
  auto result = ObservationStore::FromColumns(tampered);
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().ToString().find("fingerprint"),
            std::string::npos);

  ObservationStore::Columns bad_truth = store.ToColumns();
  bad_truth.truth[0] = 99;  // out of the value universe
  EXPECT_FALSE(ObservationStore::FromColumns(bad_truth).ok());
}

TEST(ObservationStoreColumnsTest, RejectsStructuralDamage) {
  Dataset dataset = MakeFigure1Dataset();
  ObservationStore store = ObservationStore::FromDataset(dataset);

  ObservationStore::Columns short_offsets = store.ToColumns();
  short_offsets.object_offsets.pop_back();
  EXPECT_TRUE(ObservationStore::FromColumns(short_offsets)
                  .status()
                  .IsInvalidArgument());

  ObservationStore::Columns bad_object = store.ToColumns();
  bad_object.objects[0] = 1;  // disagrees with the offsets
  EXPECT_FALSE(ObservationStore::FromColumns(bad_object).ok());

  ObservationStore::Columns bad_source = store.ToColumns();
  bad_source.sources[0] = 99;
  EXPECT_FALSE(ObservationStore::FromColumns(bad_source).ok());

  ObservationStore::Columns nonmonotone = store.ToColumns();
  std::swap(nonmonotone.object_offsets[1], nonmonotone.object_offsets[2]);
  EXPECT_FALSE(ObservationStore::FromColumns(nonmonotone).ok());
}

TEST(ChunkDatasetForReplayTest, ChunksPartitionTheDataset) {
  const std::vector<double> planted = {0.9, 0.7, 0.6};
  Dataset dataset = MakePlantedDataset(planted, 30, 0.5, 3);
  for (int32_t k : {1, 3, 7}) {
    auto chunks = ChunkDatasetForReplay(dataset, k);
    ASSERT_EQ(static_cast<int32_t>(chunks.size()), k);
    int64_t observations = 0;
    int64_t truths = 0;
    for (const auto& chunk : chunks) {
      observations += static_cast<int64_t>(chunk.observations.size());
      truths += static_cast<int64_t>(chunk.truths.size());
    }
    EXPECT_EQ(observations, dataset.num_observations());
    EXPECT_EQ(truths,
              static_cast<int64_t>(dataset.ObjectsWithTruth().size()));
  }
}

}  // namespace
}  // namespace slimfast
