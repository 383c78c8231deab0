#include "data/io.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/csv.h"

namespace slimfast {

namespace {

/// Parses a base-10 id or count of `file`. Every id and count of a
/// dataset is an int32, so a literal outside that range (including one
/// that overflows strtoll) is InvalidArgument rather than a wrapped id.
Result<int32_t> ParseInt(const std::string& text, const char* file) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(std::string(file) +
                                   ": cannot parse integer from '" + text +
                                   "'");
  }
  if (errno == ERANGE || value < std::numeric_limits<int32_t>::min() ||
      value > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(std::string(file) + ": '" + text +
                                   "' is outside the int32 range");
  }
  return static_cast<int32_t>(value);
}

}  // namespace

Status SaveDataset(const Dataset& dataset, const std::string& dir) {
  CsvTable meta({"name", "num_sources", "num_objects", "num_values"});
  SLIMFAST_RETURN_NOT_OK(meta.AppendRow(
      {dataset.name(), std::to_string(dataset.num_sources()),
       std::to_string(dataset.num_objects()),
       std::to_string(dataset.num_values())}));
  SLIMFAST_RETURN_NOT_OK(meta.WriteFile(dir + "/meta.csv"));

  CsvTable obs({"object", "source", "value"});
  for (const Observation& o : dataset.observations()) {
    SLIMFAST_RETURN_NOT_OK(obs.AppendRow({std::to_string(o.object),
                                          std::to_string(o.source),
                                          std::to_string(o.value)}));
  }
  SLIMFAST_RETURN_NOT_OK(obs.WriteFile(dir + "/observations.csv"));

  CsvTable truth({"object", "value"});
  for (ObjectId o : dataset.ObjectsWithTruth()) {
    SLIMFAST_RETURN_NOT_OK(truth.AppendRow(
        {std::to_string(o), std::to_string(dataset.Truth(o))}));
  }
  SLIMFAST_RETURN_NOT_OK(truth.WriteFile(dir + "/truth.csv"));

  CsvTable features({"feature_id", "name"});
  for (FeatureId k = 0; k < dataset.features().num_features(); ++k) {
    SLIMFAST_RETURN_NOT_OK(features.AppendRow(
        {std::to_string(k), dataset.features().FeatureName(k)}));
  }
  SLIMFAST_RETURN_NOT_OK(features.WriteFile(dir + "/features.csv"));

  CsvTable source_features({"source", "feature_id"});
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    for (FeatureId k : dataset.features().FeaturesOf(s)) {
      SLIMFAST_RETURN_NOT_OK(source_features.AppendRow(
          {std::to_string(s), std::to_string(k)}));
    }
  }
  SLIMFAST_RETURN_NOT_OK(
      source_features.WriteFile(dir + "/source_features.csv"));
  return Status::OK();
}

Result<Dataset> LoadDataset(const std::string& dir) {
  SLIMFAST_ASSIGN_OR_RETURN(CsvTable meta,
                            CsvTable::ReadFile(dir + "/meta.csv"));
  if (meta.num_rows() != 1 || meta.num_columns() != 4) {
    return Status::InvalidArgument("malformed meta.csv in '" + dir + "'");
  }
  const auto& meta_row = meta.rows()[0];
  SLIMFAST_ASSIGN_OR_RETURN(int32_t num_sources,
                            ParseInt(meta_row[1], "meta.csv"));
  SLIMFAST_ASSIGN_OR_RETURN(int32_t num_objects,
                            ParseInt(meta_row[2], "meta.csv"));
  SLIMFAST_ASSIGN_OR_RETURN(int32_t num_values,
                            ParseInt(meta_row[3], "meta.csv"));
  // Every object needs a value domain.
  if (num_sources < 0 || num_objects < 0 || num_values < 1) {
    return Status::InvalidArgument("meta.csv counts out of range in '" + dir +
                                   "'");
  }

  DatasetBuilder builder(meta_row[0], num_sources, num_objects, num_values);

  SLIMFAST_ASSIGN_OR_RETURN(CsvTable obs,
                            CsvTable::ReadFile(dir + "/observations.csv"));
  for (const auto& row : obs.rows()) {
    if (row.size() != 3) {
      return Status::InvalidArgument("malformed observations.csv row");
    }
    SLIMFAST_ASSIGN_OR_RETURN(ObjectId object,
                              ParseInt(row[0], "observations.csv"));
    SLIMFAST_ASSIGN_OR_RETURN(SourceId source,
                              ParseInt(row[1], "observations.csv"));
    SLIMFAST_ASSIGN_OR_RETURN(ValueId value,
                              ParseInt(row[2], "observations.csv"));
    SLIMFAST_RETURN_NOT_OK(builder.AddObservation(object, source, value));
  }

  SLIMFAST_ASSIGN_OR_RETURN(CsvTable truth,
                            CsvTable::ReadFile(dir + "/truth.csv"));
  for (const auto& row : truth.rows()) {
    if (row.size() != 2) {
      return Status::InvalidArgument("malformed truth.csv row");
    }
    SLIMFAST_ASSIGN_OR_RETURN(ObjectId object, ParseInt(row[0], "truth.csv"));
    SLIMFAST_ASSIGN_OR_RETURN(ValueId value, ParseInt(row[1], "truth.csv"));
    SLIMFAST_RETURN_NOT_OK(builder.SetTruth(object, value));
  }

  SLIMFAST_ASSIGN_OR_RETURN(CsvTable features,
                            CsvTable::ReadFile(dir + "/features.csv"));
  for (const auto& row : features.rows()) {
    if (row.size() != 2) {
      return Status::InvalidArgument("malformed features.csv row");
    }
    // Registration order preserves ids because feature_id rows are written
    // in ascending order.
    builder.mutable_features()->RegisterFeature(row[1]);
  }

  SLIMFAST_ASSIGN_OR_RETURN(
      CsvTable source_features,
      CsvTable::ReadFile(dir + "/source_features.csv"));
  for (const auto& row : source_features.rows()) {
    if (row.size() != 2) {
      return Status::InvalidArgument("malformed source_features.csv row");
    }
    SLIMFAST_ASSIGN_OR_RETURN(SourceId source,
                              ParseInt(row[0], "source_features.csv"));
    SLIMFAST_ASSIGN_OR_RETURN(FeatureId feature,
                              ParseInt(row[1], "source_features.csv"));
    SLIMFAST_RETURN_NOT_OK(
        builder.mutable_features()->SetFeature(source, feature));
  }

  return std::move(builder).Build();
}

}  // namespace slimfast
