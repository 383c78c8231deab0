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

/// What an id field accepts: leading whitespace, an optional sign, then
/// digits and nothing else. The source column is neither the first nor
/// the last of its row, so the CSV reader's edge trimming never touches
/// it and the field reaches the integer parser as written.
TEST_F(DataIoTest, IdFieldsAcceptWhitespaceAndASignOnly) {
  auto load_with_source = [this](const std::string& source) {
    SLIMFAST_CHECK_OK(SaveDataset(MakeRichDataset(), dir_));
    {
      std::ofstream out(dir_ + "/observations.csv", std::ios::trunc);
      out << "object,source,value\n0," << source << ",1\n";
    }
    return LoadDataset(dir_);
  };
  for (const char* accepted : {" 3", "+3", " +3", "\t3", "0003"}) {
    SCOPED_TRACE(accepted);
    auto loaded = load_with_source(accepted);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->observations(),
              (std::vector<Observation>{Observation{0, 3, 1}}));
  }
  for (const char* malformed : {"3 ", "3x", "", "0x10", "+-3", "++3", "+",
                                "-", " ", "3.0"}) {
    SCOPED_TRACE(malformed);
    auto loaded = load_with_source(malformed);
    ASSERT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
    EXPECT_EQ(loaded.status().message(),
              std::string("observations.csv: cannot parse integer from '") +
                  malformed + "'");
  }
  for (const char* too_wide : {"2147483648", "-2147483649",
                               "99999999999999999999"}) {
    SCOPED_TRACE(too_wide);
    auto loaded = load_with_source(too_wide);
    ASSERT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
    EXPECT_EQ(loaded.status().message(),
              std::string("observations.csv: '") + too_wide +
                  "' is outside the int32 range");
  }
  // An out-of-range literal with trailing junk is malformed first.
  auto loaded = load_with_source("99999999999999999999x");
  EXPECT_EQ(loaded.status().message(),
            "observations.csv: cannot parse integer from "
            "'99999999999999999999x'");
}

/// Feature ids are positional: source_features.csv refers to them by id,
/// so a features.csv whose ids are out of order, or whose names repeat,
/// must not load (it used to bind sources to the wrong features).
TEST_F(DataIoTest, FeatureIdsMustRunInRowOrderWithDistinctNames) {
  for (const char* content :
       {"feature_id,name\n1,citations=high\n0,citations=low\n",
        "feature_id,name\n0,year=2009\n0,citations=high\n",
        "feature_id,name\n0,year=2009\n2,citations=high\n",
        "feature_id,name\n0,year=2009\n1,year=2009\n",
        "feature_id,name\nx,year=2009\n"}) {
    SCOPED_TRACE(content);
    ASSERT_TRUE(SaveDataset(MakeRichDataset(), dir_).ok());
    {
      std::ofstream out(dir_ + "/features.csv", std::ios::trunc);
      out << content;
    }
    auto loaded = LoadDataset(dir_);
    ASSERT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
    EXPECT_NE(loaded.status().message().find("features.csv"),
              std::string::npos)
        << loaded.status();
  }
}

/// A file with one defect reports it wherever it sits in the file.
TEST_F(DataIoTest, SingleDefectIsReportedWithItsLine) {
  ASSERT_TRUE(SaveDataset(MakeRichDataset(), dir_).ok());
  {
    std::ofstream out(dir_ + "/observations.csv", std::ios::trunc);
    out << "object,source,value\n0,0,2\n0,1,1\n1,2\n2,3,2\n";
  }
  auto loaded = LoadDataset(dir_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  EXPECT_EQ(loaded.status().message(),
            "line 4: row width 2 does not match header width 3");

  ASSERT_TRUE(SaveDataset(MakeRichDataset(), dir_).ok());
  {
    std::ofstream out(dir_ + "/observations.csv", std::ios::trunc);
    out << "object,source,value\n0,0,2\n0,1,1\n0,0,0\n";
  }
  loaded = LoadDataset(dir_);
  EXPECT_TRUE(loaded.status().IsAlreadyExists()) << loaded.status();
}

}  // namespace
}  // namespace slimfast
