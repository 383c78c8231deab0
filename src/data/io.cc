#include "data/io.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

#include "util/csv.h"

namespace slimfast {

namespace {

/// Parses a base-10 id or count of `file`: optional leading whitespace,
/// an optional `+` or `-`, then digits and nothing after. Every id and
/// count of a dataset is an int32, so a literal outside that range is
/// InvalidArgument rather than a wrapped id.
Result<int32_t> ParseInt(const std::string& text, const char* file) {
  const char* first = text.data();
  const char* const last = text.data() + text.size();
  while (first != last && std::isspace(static_cast<unsigned char>(*first))) {
    ++first;
  }
  // from_chars takes a `-` but no `+`; a `+` must be followed by a digit
  // ("+-1" is not a number).
  if (first != last && *first == '+' && last - first > 1 &&
      std::isdigit(static_cast<unsigned char>(first[1]))) {
    ++first;
  }
  int32_t value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::invalid_argument || end != last) {
    return Status::InvalidArgument(std::string(file) +
                                   ": cannot parse integer from '" + text +
                                   "'");
  }
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument(std::string(file) + ": '" + text +
                                   "' is outside the int32 range");
  }
  return value;
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

  // The data files stream row by row, so a file with several defects
  // reports the first one in file order.
  SLIMFAST_RETURN_NOT_OK(CsvTable::ForEachRowInFile(
      dir + "/observations.csv",
      [&builder](const std::vector<std::string>& row) -> Status {
        if (row.size() != 3) {
          return Status::InvalidArgument("malformed observations.csv row");
        }
        SLIMFAST_ASSIGN_OR_RETURN(ObjectId object,
                                  ParseInt(row[0], "observations.csv"));
        SLIMFAST_ASSIGN_OR_RETURN(SourceId source,
                                  ParseInt(row[1], "observations.csv"));
        SLIMFAST_ASSIGN_OR_RETURN(ValueId value,
                                  ParseInt(row[2], "observations.csv"));
        return builder.AddObservation(object, source, value);
      }));

  SLIMFAST_RETURN_NOT_OK(CsvTable::ForEachRowInFile(
      dir + "/truth.csv",
      [&builder](const std::vector<std::string>& row) -> Status {
        if (row.size() != 2) {
          return Status::InvalidArgument("malformed truth.csv row");
        }
        SLIMFAST_ASSIGN_OR_RETURN(ObjectId object,
                                  ParseInt(row[0], "truth.csv"));
        SLIMFAST_ASSIGN_OR_RETURN(ValueId value,
                                  ParseInt(row[1], "truth.csv"));
        return builder.SetTruth(object, value);
      }));

  // Feature ids are positional: row i must carry id i and a new name, or
  // source_features.csv would bind sources to the wrong features.
  FeatureSpace* features = builder.mutable_features();
  SLIMFAST_RETURN_NOT_OK(CsvTable::ForEachRowInFile(
      dir + "/features.csv",
      [features](const std::vector<std::string>& row) -> Status {
        if (row.size() != 2) {
          return Status::InvalidArgument("malformed features.csv row");
        }
        SLIMFAST_ASSIGN_OR_RETURN(FeatureId id,
                                  ParseInt(row[0], "features.csv"));
        const FeatureId expected = features->num_features();
        if (id != expected) {
          return Status::InvalidArgument(
              "features.csv: feature_id " + std::to_string(id) +
              " where " + std::to_string(expected) +
              " was expected (ids must run 0, 1, 2, ... in row order)");
        }
        if (features->RegisterFeature(row[1]) != expected) {
          return Status::InvalidArgument("features.csv: feature name '" +
                                         row[1] + "' is repeated");
        }
        return Status::OK();
      }));

  SLIMFAST_RETURN_NOT_OK(CsvTable::ForEachRowInFile(
      dir + "/source_features.csv",
      [features](const std::vector<std::string>& row) -> Status {
        if (row.size() != 2) {
          return Status::InvalidArgument("malformed source_features.csv row");
        }
        SLIMFAST_ASSIGN_OR_RETURN(SourceId source,
                                  ParseInt(row[0], "source_features.csv"));
        SLIMFAST_ASSIGN_OR_RETURN(FeatureId feature,
                                  ParseInt(row[1], "source_features.csv"));
        return features->SetFeature(source, feature);
      }));

  return std::move(builder).Build();
}

}  // namespace slimfast
