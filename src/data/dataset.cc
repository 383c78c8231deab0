#include "data/dataset.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace slimfast {

const std::vector<SourceClaim>& Dataset::ClaimsOnObject(
    ObjectId object) const {
  SLIMFAST_DCHECK(object >= 0 && object < num_objects_,
                  "object id out of range");
  return by_object_[static_cast<size_t>(object)];
}

const std::vector<ObjectClaim>& Dataset::ClaimsBySource(
    SourceId source) const {
  SLIMFAST_DCHECK(source >= 0 && source < num_sources_,
                  "source id out of range");
  return by_source_[static_cast<size_t>(source)];
}

const std::vector<ValueId>& Dataset::DomainOf(ObjectId object) const {
  SLIMFAST_DCHECK(object >= 0 && object < num_objects_,
                  "object id out of range");
  return domains_[static_cast<size_t>(object)];
}

bool Dataset::HasTruth(ObjectId object) const {
  SLIMFAST_DCHECK(object >= 0 && object < num_objects_,
                  "object id out of range");
  return truth_[static_cast<size_t>(object)] != kNoValue;
}

ValueId Dataset::Truth(ObjectId object) const {
  SLIMFAST_DCHECK(object >= 0 && object < num_objects_,
                  "object id out of range");
  return truth_[static_cast<size_t>(object)];
}

Result<double> Dataset::EmpiricalSourceAccuracy(SourceId source) const {
  const auto& claims = ClaimsBySource(source);
  int64_t labeled = 0;
  int64_t correct = 0;
  for (const auto& claim : claims) {
    if (!HasTruth(claim.object)) continue;
    ++labeled;
    if (claim.value == Truth(claim.object)) ++correct;
  }
  if (labeled == 0) {
    return Status::NotFound("source " + std::to_string(source) +
                            " has no claims on labeled objects");
  }
  return static_cast<double>(correct) / static_cast<double>(labeled);
}

DatasetBuilder::DatasetBuilder(std::string name, int32_t num_sources,
                               int32_t num_objects, int32_t num_values)
    : name_(std::move(name)),
      num_sources_(num_sources),
      num_objects_(num_objects),
      num_values_(num_values),
      truth_(static_cast<size_t>(num_objects), kNoValue),
      features_(num_sources) {
  SLIMFAST_DCHECK(num_sources >= 0, "num_sources must be >= 0");
  SLIMFAST_DCHECK(num_objects >= 0, "num_objects must be >= 0");
  SLIMFAST_DCHECK(num_values >= 1, "num_values must be >= 1");
}

Status DatasetBuilder::AddObservation(ObjectId object, SourceId source,
                                      ValueId value) {
  if (object < 0 || object >= num_objects_) {
    return Status::OutOfRange("object id " + std::to_string(object) +
                              " out of range");
  }
  if (source < 0 || source >= num_sources_) {
    return Status::OutOfRange("source id " + std::to_string(source) +
                              " out of range");
  }
  if (value < 0 || value >= num_values_) {
    return Status::OutOfRange("value id " + std::to_string(value) +
                              " out of range");
  }
  int64_t key = static_cast<int64_t>(object) * num_sources_ +
                static_cast<int64_t>(source);
  if (!InsertPair(key)) {
    return Status::AlreadyExists(
        "duplicate observation for object " + std::to_string(object) +
        " by source " + std::to_string(source));
  }
  observations_.push_back(Observation{object, source, value});
  return Status::OK();
}

bool DatasetBuilder::InsertPair(int64_t key) {
  if (2 * (num_pairs_ + 1) > static_cast<int64_t>(pair_slots_.size())) {
    std::vector<int64_t> old = std::move(pair_slots_);
    pair_slots_.assign(std::max<size_t>(64, 2 * old.size()), 0);
    num_pairs_ = 0;
    for (int64_t stored : old) {
      if (stored != 0) InsertPair(stored - 1);
    }
  }
  const size_t mask = pair_slots_.size() - 1;
  const int64_t stored = key + 1;
  for (size_t i = SplitMix64(static_cast<uint64_t>(key)) & mask;;
       i = (i + 1) & mask) {
    if (pair_slots_[i] == stored) return false;
    if (pair_slots_[i] == 0) {
      pair_slots_[i] = stored;
      ++num_pairs_;
      return true;
    }
  }
}

Status DatasetBuilder::SetTruth(ObjectId object, ValueId value) {
  if (object < 0 || object >= num_objects_) {
    return Status::OutOfRange("object id " + std::to_string(object) +
                              " out of range");
  }
  if (value < 0 || value >= num_values_) {
    return Status::OutOfRange("value id " + std::to_string(value) +
                              " out of range");
  }
  truth_[static_cast<size_t>(object)] = value;
  return Status::OK();
}

Result<Dataset> DatasetBuilder::Build() && {
  Dataset dataset;
  dataset.name_ = std::move(name_);
  dataset.num_sources_ = num_sources_;
  dataset.num_objects_ = num_objects_;
  dataset.num_values_ = num_values_;
  dataset.observations_ = std::move(observations_);
  dataset.truth_ = std::move(truth_);
  dataset.features_ = std::move(features_);

  // Size every index vector before filling it, so each allocates once.
  std::vector<int64_t> object_claims(static_cast<size_t>(num_objects_), 0);
  std::vector<int64_t> source_claims(static_cast<size_t>(num_sources_), 0);
  for (const Observation& obs : dataset.observations_) {
    ++object_claims[static_cast<size_t>(obs.object)];
    ++source_claims[static_cast<size_t>(obs.source)];
  }
  dataset.by_object_.resize(static_cast<size_t>(num_objects_));
  dataset.by_source_.resize(static_cast<size_t>(num_sources_));
  for (size_t o = 0; o < object_claims.size(); ++o) {
    dataset.by_object_[o].reserve(static_cast<size_t>(object_claims[o]));
  }
  for (size_t s = 0; s < source_claims.size(); ++s) {
    dataset.by_source_[s].reserve(static_cast<size_t>(source_claims[s]));
  }
  for (const Observation& obs : dataset.observations_) {
    dataset.by_object_[static_cast<size_t>(obs.object)].push_back(
        SourceClaim{obs.source, obs.value});
    dataset.by_source_[static_cast<size_t>(obs.source)].push_back(
        ObjectClaim{obs.object, obs.value});
  }
  dataset.domains_.resize(static_cast<size_t>(num_objects_));
  std::vector<ValueId> values;
  for (ObjectId o = 0; o < num_objects_; ++o) {
    values.clear();
    for (const SourceClaim& claim :
         dataset.by_object_[static_cast<size_t>(o)]) {
      values.push_back(claim.value);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    dataset.domains_[static_cast<size_t>(o)].assign(values.begin(),
                                                    values.end());
  }
  for (ObjectId o = 0; o < num_objects_; ++o) {
    if (dataset.truth_[static_cast<size_t>(o)] != kNoValue) {
      dataset.objects_with_truth_.push_back(o);
    }
  }
  return dataset;
}

}  // namespace slimfast
