#ifndef SLIMFAST_DATA_DATASET_H_
#define SLIMFAST_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/feature_space.h"
#include "data/types.h"
#include "util/result.h"
#include "util/status.h"

namespace slimfast {

/// An observation as seen from an object: which source said which value.
struct SourceClaim {
  SourceId source;
  ValueId value;
  bool operator==(const SourceClaim&) const = default;
};

/// An observation as seen from a source: which object got which value.
struct ObjectClaim {
  ObjectId object;
  ValueId value;
  bool operator==(const ObjectClaim&) const = default;
};

/// Immutable data-fusion instance: sources, objects, the observation
/// multiset Ω, optional ground truth, and the domain-specific feature space.
///
/// A Dataset is constructed through DatasetBuilder, which validates ids and
/// rejects duplicate (source, object) observations (the paper assumes one
/// claim per source per object). All per-object and per-source indexes are
/// built once at Build() time so model code can iterate without hashing.
class Dataset {
 public:
  /// Creates an empty dataset (no sources, objects, or observations);
  /// mainly useful as a placeholder before assignment.
  Dataset() = default;

  int32_t num_sources() const { return num_sources_; }
  int32_t num_objects() const { return num_objects_; }
  /// Size of the global value dictionary (2 for binary datasets).
  int32_t num_values() const { return num_values_; }
  int64_t num_observations() const {
    return static_cast<int64_t>(observations_.size());
  }

  const std::vector<Observation>& observations() const {
    return observations_;
  }

  /// Claims made about `object`, in insertion order.
  const std::vector<SourceClaim>& ClaimsOnObject(ObjectId object) const;

  /// Claims made by `source`, in insertion order.
  const std::vector<ObjectClaim>& ClaimsBySource(SourceId source) const;

  /// Distinct values claimed for `object` (the domain D_o), ascending.
  const std::vector<ValueId>& DomainOf(ObjectId object) const;

  /// True if ground truth is known for `object`.
  bool HasTruth(ObjectId object) const;

  /// Ground truth value of `object`, or kNoValue if unknown.
  ValueId Truth(ObjectId object) const;

  /// Objects that carry ground truth, ascending.
  const std::vector<ObjectId>& ObjectsWithTruth() const {
    return objects_with_truth_;
  }

  const FeatureSpace& features() const { return features_; }

  /// Empirical accuracy of `source` against ground truth: the fraction of
  /// its claims on truth-labeled objects that are correct. Returns
  /// NotFound if the source has no claims on labeled objects.
  Result<double> EmpiricalSourceAccuracy(SourceId source) const;

  /// Human-readable dataset name (e.g. "stocks-sim"); may be empty.
  const std::string& name() const { return name_; }

 private:
  friend class DatasetBuilder;

  std::string name_;
  int32_t num_sources_ = 0;
  int32_t num_objects_ = 0;
  int32_t num_values_ = 0;
  std::vector<Observation> observations_;
  std::vector<std::vector<SourceClaim>> by_object_;
  std::vector<std::vector<ObjectClaim>> by_source_;
  std::vector<std::vector<ValueId>> domains_;
  std::vector<ValueId> truth_;
  std::vector<ObjectId> objects_with_truth_;
  FeatureSpace features_;
};

/// Mutable builder for Dataset. Typical use:
///
///   DatasetBuilder b("demo", /*num_sources=*/3, /*num_objects=*/2,
///                    /*num_values=*/2);
///   SLIMFAST_CHECK_OK(b.AddObservation(/*object=*/0, /*source=*/0, 1));
///   SLIMFAST_CHECK_OK(b.SetTruth(0, 1));
///   FeatureId f = b.mutable_features()->RegisterFeature("citations=high");
///   SLIMFAST_CHECK_OK(b.mutable_features()->SetFeature(0, f));
///   Dataset d = std::move(b).Build().ValueOrDie();
class DatasetBuilder {
 public:
  DatasetBuilder(std::string name, int32_t num_sources, int32_t num_objects,
                 int32_t num_values);

  /// Records that `source` claims `value` for `object`. Fails on invalid
  /// ids (OutOfRange) or on a duplicate (source, object) pair
  /// (AlreadyExists). Duplicates are found in a flat open-addressing hash
  /// set of the packed pair `object * num_sources + source`, probed
  /// linearly from its SplitMix64 hash and kept at most half full, so an
  /// insert allocates nothing except when the set doubles.
  Status AddObservation(ObjectId object, SourceId source, ValueId value);

  /// Declares the ground-truth value of `object`.
  Status SetTruth(ObjectId object, ValueId value);

  FeatureSpace* mutable_features() { return &features_; }

  int64_t num_observations() const {
    return static_cast<int64_t>(observations_.size());
  }

  /// Finalizes the dataset; validates that each labeled object's truth is
  /// self-consistent and builds the indexes. The builder is consumed.
  Result<Dataset> Build() &&;

 private:
  /// Inserts a packed (object, source) key; false if it was present.
  bool InsertPair(int64_t key);

  std::string name_;
  int32_t num_sources_;
  int32_t num_objects_;
  int32_t num_values_;
  std::vector<Observation> observations_;
  std::vector<ValueId> truth_;
  // Duplicate detection for (object, source) pairs: slots hold key + 1,
  // 0 marks an empty slot; the size is zero or a power of two.
  std::vector<int64_t> pair_slots_;
  int64_t num_pairs_ = 0;
  FeatureSpace features_;
};

}  // namespace slimfast

#endif  // SLIMFAST_DATA_DATASET_H_
