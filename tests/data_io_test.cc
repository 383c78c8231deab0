#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "data/io.h"

namespace slimfast {
namespace {

class DataIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("slimfast_io_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

Dataset MakeRichDataset() {
  DatasetBuilder builder("rich", /*num_sources=*/4, /*num_objects=*/3,
                         /*num_values=*/3);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 2));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 2, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(2, 3, 2));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 2));
  SLIMFAST_CHECK_OK(builder.SetTruth(1, 0));
  FeatureSpace* fs = builder.mutable_features();
  FeatureId year = fs->RegisterFeature("year=2009");
  FeatureId cite = fs->RegisterFeature("citations=high");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, year));
  SLIMFAST_CHECK_OK(fs->SetFeature(0, cite));
  SLIMFAST_CHECK_OK(fs->SetFeature(3, cite));
  return std::move(builder).Build().ValueOrDie();
}

TEST_F(DataIoTest, RoundTripPreservesEverything) {
  Dataset original = MakeRichDataset();
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  auto loaded_result = LoadDataset(dir_);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status();
  const Dataset& loaded = loaded_result.ValueOrDie();

  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_EQ(loaded.num_sources(), original.num_sources());
  EXPECT_EQ(loaded.num_objects(), original.num_objects());
  EXPECT_EQ(loaded.num_values(), original.num_values());
  EXPECT_EQ(loaded.observations(), original.observations());
  for (ObjectId o = 0; o < original.num_objects(); ++o) {
    EXPECT_EQ(loaded.HasTruth(o), original.HasTruth(o));
    EXPECT_EQ(loaded.Truth(o), original.Truth(o));
    EXPECT_EQ(loaded.DomainOf(o), original.DomainOf(o));
  }
  EXPECT_EQ(loaded.features().num_features(),
            original.features().num_features());
  for (FeatureId k = 0; k < original.features().num_features(); ++k) {
    EXPECT_EQ(loaded.features().FeatureName(k),
              original.features().FeatureName(k));
  }
  for (SourceId s = 0; s < original.num_sources(); ++s) {
    EXPECT_EQ(loaded.features().FeaturesOf(s),
              original.features().FeaturesOf(s));
  }
}

TEST_F(DataIoTest, FilesAreCreated) {
  ASSERT_TRUE(SaveDataset(MakeRichDataset(), dir_).ok());
  for (const char* file :
       {"meta.csv", "observations.csv", "truth.csv", "features.csv",
        "source_features.csv"}) {
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/" + file)) << file;
  }
}

TEST_F(DataIoTest, LoadFromMissingDirFails) {
  EXPECT_FALSE(LoadDataset(dir_ + "/does_not_exist").ok());
}

TEST_F(DataIoTest, SaveToMissingDirFails) {
  EXPECT_TRUE(SaveDataset(MakeRichDataset(), dir_ + "/nope").IsIOError());
}

TEST_F(DataIoTest, EmptyFeatureSpaceRoundTrips) {
  DatasetBuilder builder("nofeat", 2, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 1));
  Dataset original = std::move(builder).Build().ValueOrDie();
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  auto loaded = LoadDataset(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->features().num_features(), 0);
  EXPECT_EQ(loaded->num_observations(), 1);
}

/// meta.csv counts that are negative, do not fit an int32 id, or leave
/// objects without a value domain come back as InvalidArgument instead
/// of aborting or throwing inside the dataset builder.
TEST_F(DataIoTest, OutOfRangeMetaCountsAreRejected) {
  for (const char* counts : {"2,2,0", "2,3000000000,2", "-1,2,2", "2,2,-3"}) {
    SCOPED_TRACE(counts);
    ASSERT_TRUE(SaveDataset(MakeRichDataset(), dir_).ok());
    {
      std::ofstream meta(dir_ + "/meta.csv", std::ios::trunc);
      meta << "name,num_sources,num_objects,num_values\n"
           << "bad," << counts << "\n";
    }
    auto loaded = LoadDataset(dir_);
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  }
}

/// An id outside int32 comes back as InvalidArgument naming its file;
/// it used to be truncated, so `4294967296` loaded as object 0.
TEST_F(DataIoTest, OutOfRangeIdsAreRejectedNamingTheFile) {
  struct Case {
    const char* file;
    const char* content;
  };
  const Case cases[] = {
      {"observations.csv", "object,source,value\n4294967296,0,1\n"},
      {"observations.csv", "object,source,value\n0,-4294967296,1\n"},
      {"truth.csv", "object,value\n0,4294967298\n"},
      {"source_features.csv", "source,feature_id\n4294967296,0\n"},
      // Overflows strtoll itself (ERANGE), not just int32.
      {"observations.csv", "object,source,value\n99999999999999999999,0,1\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.content);
    ASSERT_TRUE(SaveDataset(MakeRichDataset(), dir_).ok());
    {
      std::ofstream out(dir_ + "/" + c.file, std::ios::trunc);
      out << c.content;
    }
    auto loaded = LoadDataset(dir_);
    ASSERT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
    EXPECT_NE(loaded.status().ToString().find(c.file), std::string::npos)
        << loaded.status();
  }
}

}  // namespace
}  // namespace slimfast
