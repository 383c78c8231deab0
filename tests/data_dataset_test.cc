#include <gtest/gtest.h>

#include "data/dataset.h"

namespace slimfast {
namespace {

// The running example of the paper (Figure 1): three articles making
// claims about two gene-disease objects.
Dataset MakeFigure1Dataset() {
  DatasetBuilder builder("figure1", /*num_sources=*/3, /*num_objects=*/2,
                         /*num_values=*/2);
  // Object 0 = (GIGYF2, Parkinson): truth false (0).
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));  // Article 1: false
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));  // Article 2: true
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 0));  // Article 3: false
  // Object 1 = (GBA, Parkinson): truth true (1).
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 0, 1));  // Article 1: true
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 2, 1));  // Article 3: true
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(1, 1));
  return std::move(builder).Build().ValueOrDie();
}

TEST(DatasetBuilderTest, BuildsCountsAndIndexes) {
  Dataset d = MakeFigure1Dataset();
  EXPECT_EQ(d.name(), "figure1");
  EXPECT_EQ(d.num_sources(), 3);
  EXPECT_EQ(d.num_objects(), 2);
  EXPECT_EQ(d.num_values(), 2);
  EXPECT_EQ(d.num_observations(), 5);

  EXPECT_EQ(d.ClaimsOnObject(0).size(), 3u);
  EXPECT_EQ(d.ClaimsOnObject(1).size(), 2u);
  EXPECT_EQ(d.ClaimsBySource(0).size(), 2u);
  EXPECT_EQ(d.ClaimsBySource(1).size(), 1u);
  EXPECT_EQ(d.ClaimsBySource(2).size(), 2u);
}

TEST(DatasetBuilderTest, ClaimContentsPreserved) {
  Dataset d = MakeFigure1Dataset();
  EXPECT_EQ(d.ClaimsOnObject(0)[0], (SourceClaim{0, 0}));
  EXPECT_EQ(d.ClaimsOnObject(0)[1], (SourceClaim{1, 1}));
  EXPECT_EQ(d.ClaimsBySource(2)[1], (ObjectClaim{1, 1}));
}

TEST(DatasetBuilderTest, DomainsAreSortedDistinct) {
  Dataset d = MakeFigure1Dataset();
  EXPECT_EQ(d.DomainOf(0), (std::vector<ValueId>{0, 1}));
  EXPECT_EQ(d.DomainOf(1), (std::vector<ValueId>{1}));
}

TEST(DatasetBuilderTest, TruthAccessors) {
  Dataset d = MakeFigure1Dataset();
  EXPECT_TRUE(d.HasTruth(0));
  EXPECT_EQ(d.Truth(0), 0);
  EXPECT_EQ(d.Truth(1), 1);
  EXPECT_EQ(d.ObjectsWithTruth(), (std::vector<ObjectId>{0, 1}));
}

TEST(DatasetBuilderTest, ObjectWithoutTruth) {
  DatasetBuilder builder("t", 2, 3, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 1));
  Dataset d = std::move(builder).Build().ValueOrDie();
  EXPECT_FALSE(d.HasTruth(1));
  EXPECT_EQ(d.Truth(1), kNoValue);
  EXPECT_EQ(d.ObjectsWithTruth(), (std::vector<ObjectId>{0}));
}

TEST(DatasetBuilderTest, RejectsOutOfRangeIds) {
  DatasetBuilder builder("t", 2, 2, 2);
  EXPECT_TRUE(builder.AddObservation(2, 0, 0).IsOutOfRange());   // object
  EXPECT_TRUE(builder.AddObservation(0, 2, 0).IsOutOfRange());   // source
  EXPECT_TRUE(builder.AddObservation(0, 0, 2).IsOutOfRange());   // value
  EXPECT_TRUE(builder.AddObservation(-1, 0, 0).IsOutOfRange());
  EXPECT_TRUE(builder.SetTruth(5, 0).IsOutOfRange());
  EXPECT_TRUE(builder.SetTruth(0, -1).IsOutOfRange());
}

TEST(DatasetBuilderTest, RejectsDuplicateObservation) {
  DatasetBuilder builder("t", 2, 2, 2);
  EXPECT_TRUE(builder.AddObservation(0, 0, 1).ok());
  EXPECT_TRUE(builder.AddObservation(0, 0, 0).IsAlreadyExists());
  // Same source, different object is fine.
  EXPECT_TRUE(builder.AddObservation(1, 0, 0).ok());
}

TEST(DatasetBuilderTest, DuplicatesAreFoundAfterTheSetGrows) {
  DatasetBuilder builder("t", /*num_sources=*/50, /*num_objects=*/200, 2);
  for (int32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(builder.AddObservation(i / 50, i % 50, i % 2).ok()) << i;
  }
  EXPECT_TRUE(builder.AddObservation(0, 0, 1).IsAlreadyExists());
  EXPECT_TRUE(builder.AddObservation(99, 49, 0).IsAlreadyExists());
  EXPECT_TRUE(builder.AddObservation(100, 0, 0).ok());
  EXPECT_EQ(builder.num_observations(), 5001);
  Dataset d = std::move(builder).Build().ValueOrDie();
  EXPECT_EQ(d.ClaimsOnObject(0).size(), 50u);
  EXPECT_EQ(d.ClaimsBySource(0).size(), 101u);
}

TEST(DatasetTest, EmpiricalSourceAccuracy) {
  Dataset d = MakeFigure1Dataset();
  // Article 1 (source 0): claims {obj0: 0 correct, obj1: 1 correct} -> 1.0.
  EXPECT_DOUBLE_EQ(d.EmpiricalSourceAccuracy(0).ValueOrDie(), 1.0);
  // Article 2 (source 1): claims {obj0: 1, wrong} -> 0.0.
  EXPECT_DOUBLE_EQ(d.EmpiricalSourceAccuracy(1).ValueOrDie(), 0.0);
  // Article 3 (source 2): both correct -> 1.0.
  EXPECT_DOUBLE_EQ(d.EmpiricalSourceAccuracy(2).ValueOrDie(), 1.0);
}

TEST(DatasetTest, EmpiricalAccuracyNotFoundWithoutLabeledClaims) {
  DatasetBuilder builder("t", 2, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  // Object 0 has no truth; source 1 has no claims at all.
  Dataset d = std::move(builder).Build().ValueOrDie();
  EXPECT_TRUE(d.EmpiricalSourceAccuracy(0).status().IsNotFound());
  EXPECT_TRUE(d.EmpiricalSourceAccuracy(1).status().IsNotFound());
}

TEST(DatasetTest, EmptyDatasetIsValid) {
  Dataset d;
  EXPECT_EQ(d.num_sources(), 0);
  EXPECT_EQ(d.num_objects(), 0);
  EXPECT_EQ(d.num_observations(), 0);
}

TEST(DatasetTest, FeatureSpaceAttached) {
  DatasetBuilder builder("t", 2, 1, 2);
  FeatureId k = builder.mutable_features()->RegisterFeature("pub_year=2009");
  SLIMFAST_CHECK_OK(builder.mutable_features()->SetFeature(0, k));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  Dataset d = std::move(builder).Build().ValueOrDie();
  EXPECT_EQ(d.features().num_features(), 1);
  EXPECT_TRUE(d.features().HasFeature(0, k));
  EXPECT_FALSE(d.features().HasFeature(1, k));
}

TEST(FeatureSpaceTest, RegisterIsIdempotent) {
  FeatureSpace fs(3);
  FeatureId a = fs.RegisterFeature("citations=high");
  FeatureId b = fs.RegisterFeature("citations=high");
  EXPECT_EQ(a, b);
  EXPECT_EQ(fs.num_features(), 1);
  EXPECT_EQ(fs.FeatureName(a), "citations=high");
}

TEST(FeatureSpaceTest, FindFeature) {
  FeatureSpace fs(1);
  FeatureId a = fs.RegisterFeature("x");
  EXPECT_EQ(fs.FindFeature("x").ValueOrDie(), a);
  EXPECT_TRUE(fs.FindFeature("y").status().IsNotFound());
}

TEST(FeatureSpaceTest, SetFeatureValidatesAndSorts) {
  FeatureSpace fs(2);
  FeatureId a = fs.RegisterFeature("a");
  FeatureId b = fs.RegisterFeature("b");
  EXPECT_TRUE(fs.SetFeature(0, b).ok());
  EXPECT_TRUE(fs.SetFeature(0, a).ok());
  EXPECT_TRUE(fs.SetFeature(0, a).ok());  // idempotent
  EXPECT_EQ(fs.FeaturesOf(0), (std::vector<FeatureId>{a, b}));
  EXPECT_TRUE(fs.SetFeature(5, a).IsOutOfRange());
  EXPECT_TRUE(fs.SetFeature(0, 99).IsOutOfRange());
  EXPECT_EQ(fs.TotalActiveFeatures(), 2);
}

}  // namespace
}  // namespace slimfast
