#include "data/observation_store.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"

namespace slimfast {

namespace {

// The fingerprint is a wrapping sum of per-item digests over a mixed-in
// dimension base. Addition commutes, so AppendBatch can fold in a batch's
// digests without re-reading the items that already live mid-array — while
// each digest still pins the item's position within its object's range, so
// reorderings (which change compilation output) change the fingerprint.
constexpr uint64_t kStoreSeed = 0x4f62735374726521ULL;  // "ObsStre!"

uint64_t DimensionDigest(int32_t num_sources, int32_t num_objects,
                         int32_t num_values) {
  uint64_t h = kStoreSeed;
  h = HashCombine(h, static_cast<uint64_t>(num_sources));
  h = HashCombine(h, static_cast<uint64_t>(num_objects));
  h = HashCombine(h, static_cast<uint64_t>(num_values));
  return h;
}

uint64_t ObservationDigest(ObjectId object, int64_t position_in_object,
                           SourceId source, ValueId value) {
  uint64_t h = HashCombine(kStoreSeed, 0x6f627365727665ULL);  // "observe"
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(object)));
  h = HashCombine(h, static_cast<uint64_t>(position_in_object));
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(source)));
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(value)));
  return h;
}

uint64_t TruthDigest(ObjectId object, ValueId value) {
  uint64_t h = HashCombine(kStoreSeed, 0x747275746821ULL);  // "truth!"
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(object)));
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(value)));
  return h;
}

}  // namespace

ObservationStore ObservationStore::FromDataset(const Dataset& dataset) {
  ObservationStore store;
  store.num_sources_ = dataset.num_sources();
  store.num_objects_ = dataset.num_objects();
  store.num_values_ = dataset.num_values();
  const int64_t n = dataset.num_observations();
  store.fingerprint_ = DimensionDigest(store.num_sources_,
                                       store.num_objects_,
                                       store.num_values_);

  store.sources_.reserve(static_cast<size_t>(n));
  store.values_.reserve(static_cast<size_t>(n));
  store.object_offsets_.assign(static_cast<size_t>(store.num_objects_) + 1,
                               0);

  // Canonical order: walk objects ascending, claims in insertion order —
  // the exact order Dataset::ClaimsOnObject exposes.
  for (ObjectId o = 0; o < store.num_objects_; ++o) {
    store.object_offsets_[static_cast<size_t>(o)] =
        static_cast<int64_t>(store.sources_.size());
    int64_t position = 0;
    for (const SourceClaim& claim : dataset.ClaimsOnObject(o)) {
      store.sources_.push_back(claim.source);
      store.values_.push_back(claim.value);
      store.fingerprint_ +=
          ObservationDigest(o, position++, claim.source, claim.value);
    }
  }
  store.object_offsets_[static_cast<size_t>(store.num_objects_)] =
      static_cast<int64_t>(store.sources_.size());

  // Flattened domains and truth.
  store.domain_offsets_.assign(static_cast<size_t>(store.num_objects_) + 1,
                               0);
  for (ObjectId o = 0; o < store.num_objects_; ++o) {
    store.domain_offsets_[static_cast<size_t>(o)] =
        static_cast<int64_t>(store.domain_values_.size());
    const std::vector<ValueId>& domain = dataset.DomainOf(o);
    store.domain_values_.insert(store.domain_values_.end(), domain.begin(),
                                domain.end());
  }
  store.domain_offsets_[static_cast<size_t>(store.num_objects_)] =
      static_cast<int64_t>(store.domain_values_.size());

  store.truth_.resize(static_cast<size_t>(store.num_objects_));
  for (ObjectId o = 0; o < store.num_objects_; ++o) {
    ValueId truth = dataset.HasTruth(o) ? dataset.Truth(o) : kNoValue;
    store.truth_[static_cast<size_t>(o)] = truth;
    if (truth != kNoValue) store.fingerprint_ += TruthDigest(o, truth);
  }
  return store;
}

Result<ObservationStore> ObservationStore::AppendBatch(
    const ObservationBatch& batch) const {
  // ---- Validate everything before building any output. ----
  const size_t num_objects = static_cast<size_t>(num_objects_);
  for (const Observation& obs : batch.observations) {
    if (obs.object < 0 || obs.object >= num_objects_) {
      return Status::OutOfRange("batch object id " +
                                std::to_string(obs.object) + " out of range");
    }
    if (obs.source < 0 || obs.source >= num_sources_) {
      return Status::OutOfRange("batch source id " +
                                std::to_string(obs.source) + " out of range");
    }
    if (obs.value < 0 || obs.value >= num_values_) {
      return Status::OutOfRange("batch value id " +
                                std::to_string(obs.value) + " out of range");
    }
  }
  // Counting sort of the batch by object, stable in batch order (the
  // order the claims will occupy in each object's extended range): object
  // o's new claims are [batch_begin[o], batch_begin[o + 1]) of
  // batch_sources/batch_values.
  std::vector<int64_t> batch_begin(num_objects + 1, 0);
  for (const Observation& obs : batch.observations) {
    ++batch_begin[static_cast<size_t>(obs.object) + 1];
  }
  for (size_t o = 1; o <= num_objects; ++o) {
    batch_begin[o] += batch_begin[o - 1];
  }
  std::vector<SourceId> batch_sources(batch.observations.size());
  std::vector<ValueId> batch_values(batch.observations.size());
  {
    std::vector<int64_t> cursor(batch_begin.begin(), batch_begin.end() - 1);
    for (const Observation& obs : batch.observations) {
      const size_t k =
          static_cast<size_t>(cursor[static_cast<size_t>(obs.object)]++);
      batch_sources[k] = obs.source;
      batch_values[k] = obs.value;
    }
  }
  auto touched = [&batch_begin](size_t o) {
    return batch_begin[o + 1] > batch_begin[o];
  };

  // One claim per (source, object) across the whole history, matching
  // DatasetBuilder::AddObservation. While touched object o is checked,
  // stamp[s] == o marks source s as a claimant of o and claim_kind[s]
  // says how: in history, once in the batch, or more than once in the
  // batch. The first offending claim in batch order names the error, the
  // history check ahead of the within-batch one.
  enum : uint8_t { kInHistory, kOnceInBatch, kTwiceInBatch };
  std::vector<ObjectId> stamp(static_cast<size_t>(num_sources_), -1);
  std::vector<uint8_t> claim_kind(static_cast<size_t>(num_sources_));
  for (size_t o = 0; o < num_objects; ++o) {
    if (!touched(o)) continue;
    const ObjectId object = static_cast<ObjectId>(o);
    for (int64_t i = object_offsets_[o]; i < object_offsets_[o + 1]; ++i) {
      const size_t s = static_cast<size_t>(sources_[static_cast<size_t>(i)]);
      stamp[s] = object;
      claim_kind[s] = kInHistory;
    }
    for (int64_t i = batch_begin[o]; i < batch_begin[o + 1]; ++i) {
      const size_t s =
          static_cast<size_t>(batch_sources[static_cast<size_t>(i)]);
      if (stamp[s] != object) {
        stamp[s] = object;
        claim_kind[s] = kOnceInBatch;
      } else if (claim_kind[s] == kOnceInBatch) {
        claim_kind[s] = kTwiceInBatch;
      }
    }
    for (int64_t i = batch_begin[o]; i < batch_begin[o + 1]; ++i) {
      const SourceId source = batch_sources[static_cast<size_t>(i)];
      if (claim_kind[static_cast<size_t>(source)] == kInHistory) {
        return Status::AlreadyExists(
            "duplicate observation for object " + std::to_string(object) +
            " by source " + std::to_string(source));
      }
      if (claim_kind[static_cast<size_t>(source)] == kTwiceInBatch) {
        return Status::AlreadyExists(
            "batch claims object " + std::to_string(object) +
            " twice for source " + std::to_string(source));
      }
    }
  }
  // Truth labels must be in range and consistent with recorded truth; a
  // label repeated (in history or within the batch) with the same value is
  // a no-op. New labels land directly in the output's truth column.
  ObservationStore out;
  out.fingerprint_ = fingerprint_;
  out.truth_ = truth_;
  for (const TruthLabel& label : batch.truths) {
    if (label.object < 0 || label.object >= num_objects_) {
      return Status::OutOfRange("truth object id " +
                                std::to_string(label.object) +
                                " out of range");
    }
    if (label.value < 0 || label.value >= num_values_) {
      return Status::OutOfRange("truth value id " +
                                std::to_string(label.value) +
                                " out of range");
    }
    const ValueId existing = truth_[static_cast<size_t>(label.object)];
    if (existing != kNoValue && existing != label.value) {
      return Status::FailedPrecondition(
          "conflicting truth for object " + std::to_string(label.object));
    }
    ValueId& recorded = out.truth_[static_cast<size_t>(label.object)];
    if (recorded == kNoValue) {
      recorded = label.value;
      out.fingerprint_ += TruthDigest(label.object, label.value);
    } else if (recorded != label.value) {
      return Status::FailedPrecondition(
          "batch asserts two truths for object " +
          std::to_string(label.object));
    }
  }

  // ---- Splice the columnar arrays: history runs between touched objects
  // are copied whole, each touched object gains its batch claims. ----
  out.num_sources_ = num_sources_;
  out.num_objects_ = num_objects_;
  out.num_values_ = num_values_;
  const size_t total = sources_.size() + batch.observations.size();
  out.sources_.reserve(total);
  out.values_.reserve(total);
  out.object_offsets_.resize(num_objects + 1);
  for (size_t o = 0; o <= num_objects; ++o) {
    out.object_offsets_[o] = object_offsets_[o] + batch_begin[o];
  }
  int64_t copied = 0;
  auto copy_history = [&](int64_t end) {
    out.sources_.insert(out.sources_.end(), sources_.begin() + copied,
                        sources_.begin() + end);
    out.values_.insert(out.values_.end(), values_.begin() + copied,
                       values_.begin() + end);
    copied = end;
  };
  for (size_t o = 0; o < num_objects; ++o) {
    if (!touched(o)) continue;
    copy_history(object_offsets_[o + 1]);
    int64_t position = object_offsets_[o + 1] - object_offsets_[o];
    for (int64_t i = batch_begin[o]; i < batch_begin[o + 1]; ++i) {
      const size_t k = static_cast<size_t>(i);
      out.sources_.push_back(batch_sources[k]);
      out.values_.push_back(batch_values[k]);
      out.fingerprint_ +=
          ObservationDigest(static_cast<ObjectId>(o), position++,
                            batch_sources[k], batch_values[k]);
    }
  }
  copy_history(static_cast<int64_t>(sources_.size()));

  // ---- Patch the flattened domains: untouched runs copy whole, touched
  // objects re-merge (sorted, deduplicated — the Dataset domain
  // contract). ----
  out.domain_offsets_.resize(num_objects + 1);
  out.domain_values_.reserve(domain_values_.size());
  std::vector<ValueId> merged;
  int64_t shift = 0;
  int64_t domain_copied = 0;
  for (size_t o = 0; o <= num_objects; ++o) {
    out.domain_offsets_[o] = domain_offsets_[o] + shift;
    if (o == num_objects || !touched(o)) continue;
    out.domain_values_.insert(out.domain_values_.end(),
                              domain_values_.begin() + domain_copied,
                              domain_values_.begin() + domain_offsets_[o]);
    merged.assign(domain_values_.begin() + domain_offsets_[o],
                  domain_values_.begin() + domain_offsets_[o + 1]);
    merged.insert(merged.end(), batch_values.begin() + batch_begin[o],
                  batch_values.begin() + batch_begin[o + 1]);
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    out.domain_values_.insert(out.domain_values_.end(), merged.begin(),
                              merged.end());
    shift += static_cast<int64_t>(merged.size()) -
             (domain_offsets_[o + 1] - domain_offsets_[o]);
    domain_copied = domain_offsets_[o + 1];
  }
  out.domain_values_.insert(out.domain_values_.end(),
                            domain_values_.begin() + domain_copied,
                            domain_values_.end());
  return out;
}

std::vector<ObservationBatch> ChunkDatasetForReplay(const Dataset& dataset,
                                                    int32_t num_chunks) {
  if (num_chunks < 1) num_chunks = 1;
  const int64_t n = dataset.num_observations();
  std::vector<ObservationBatch> chunks(static_cast<size_t>(num_chunks));

  // Contiguous runs of the arrival order, sizes differing by at most one
  // (the same static split StaticShards uses).
  std::vector<int32_t> first_chunk_of_object(
      static_cast<size_t>(dataset.num_objects()), -1);
  int64_t begin = 0;
  for (int32_t c = 0; c < num_chunks; ++c) {
    int64_t end = begin + n / num_chunks +
                  (static_cast<int64_t>(c) < n % num_chunks ? 1 : 0);
    ObservationBatch& chunk = chunks[static_cast<size_t>(c)];
    chunk.observations.assign(dataset.observations().begin() + begin,
                              dataset.observations().begin() + end);
    for (const Observation& obs : chunk.observations) {
      int32_t& first = first_chunk_of_object[static_cast<size_t>(obs.object)];
      if (first < 0) first = c;
    }
    begin = end;
  }

  for (ObjectId o : dataset.ObjectsWithTruth()) {
    int32_t c = first_chunk_of_object[static_cast<size_t>(o)];
    if (c < 0) c = 0;  // labeled but never observed
    chunks[static_cast<size_t>(c)].truths.push_back(
        TruthLabel{o, dataset.Truth(o)});
  }
  return chunks;
}

ObservationStore::Columns ObservationStore::ToColumns() const {
  Columns columns;
  columns.num_sources = num_sources_;
  columns.num_objects = num_objects_;
  columns.num_values = num_values_;
  columns.objects.resize(sources_.size());
  for (size_t o = 0; o < static_cast<size_t>(num_objects_); ++o) {
    std::fill(columns.objects.begin() + object_offsets_[o],
              columns.objects.begin() + object_offsets_[o + 1],
              static_cast<ObjectId>(o));
  }
  columns.sources = sources_;
  columns.values = values_;
  columns.object_offsets = object_offsets_;
  columns.truth = truth_;
  columns.fingerprint = fingerprint_;
  return columns;
}

Result<ObservationStore> ObservationStore::FromColumns(Columns columns) {
  if (columns.num_sources < 0 || columns.num_objects < 0 ||
      columns.num_values < 0) {
    return Status::InvalidArgument("store columns carry negative dimensions");
  }
  const size_t num_objects = static_cast<size_t>(columns.num_objects);
  const size_t n = columns.objects.size();
  if (columns.sources.size() != n || columns.values.size() != n) {
    return Status::InvalidArgument(
        "store columns have mismatched observation array lengths");
  }
  if (columns.object_offsets.size() != num_objects + 1 ||
      columns.object_offsets.front() != 0 ||
      columns.object_offsets.back() != static_cast<int64_t>(n)) {
    return Status::InvalidArgument("store object offsets are malformed");
  }
  if (columns.truth.size() != num_objects) {
    return Status::InvalidArgument("store truth column is mis-sized");
  }

  // Recompute the fingerprint from scratch while validating ranges; a
  // match at the end certifies the columns describe exactly the store
  // that was serialized.
  uint64_t fingerprint = DimensionDigest(
      columns.num_sources, columns.num_objects, columns.num_values);
  for (ObjectId o = 0; o < columns.num_objects; ++o) {
    const int64_t begin = columns.object_offsets[static_cast<size_t>(o)];
    const int64_t end = columns.object_offsets[static_cast<size_t>(o) + 1];
    if (begin > end) {
      return Status::InvalidArgument(
          "store object offsets are not monotone");
    }
    for (int64_t i = begin; i < end; ++i) {
      const size_t k = static_cast<size_t>(i);
      if (columns.objects[k] != o) {
        return Status::InvalidArgument(
            "store object column disagrees with its offsets");
      }
      const SourceId source = columns.sources[k];
      const ValueId value = columns.values[k];
      if (source < 0 || source >= columns.num_sources || value < 0 ||
          value >= columns.num_values) {
        return Status::InvalidArgument(
            "store columns carry out-of-range ids");
      }
      fingerprint += ObservationDigest(o, i - begin, source, value);
    }
  }
  for (ObjectId o = 0; o < columns.num_objects; ++o) {
    const ValueId truth = columns.truth[static_cast<size_t>(o)];
    if (truth == kNoValue) continue;
    if (truth < 0 || truth >= columns.num_values) {
      return Status::InvalidArgument("store truth value out of range");
    }
    fingerprint += TruthDigest(o, truth);
  }
  if (fingerprint != columns.fingerprint) {
    return Status::InvalidArgument(
        "store fingerprint mismatch: columns hash to " +
        std::to_string(fingerprint) + ", serialized fingerprint is " +
        std::to_string(columns.fingerprint));
  }

  ObservationStore store;
  store.num_sources_ = columns.num_sources;
  store.num_objects_ = columns.num_objects;
  store.num_values_ = columns.num_values;
  store.sources_ = std::move(columns.sources);
  store.values_ = std::move(columns.values);
  store.object_offsets_ = std::move(columns.object_offsets);
  store.truth_ = std::move(columns.truth);
  store.fingerprint_ = fingerprint;

  // Domains are derived state: the sorted, deduplicated claimed values of
  // each object (the Dataset domain contract), rebuilt rather than
  // deserialized.
  store.domain_offsets_.assign(num_objects + 1, 0);
  std::vector<ValueId> merged;
  for (ObjectId o = 0; o < store.num_objects_; ++o) {
    store.domain_offsets_[static_cast<size_t>(o)] =
        static_cast<int64_t>(store.domain_values_.size());
    IndexRange range = store.ObjectRange(o);
    merged.assign(store.values_.begin() + range.begin,
                  store.values_.begin() + range.end);
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    store.domain_values_.insert(store.domain_values_.end(), merged.begin(),
                                merged.end());
  }
  store.domain_offsets_[num_objects] =
      static_cast<int64_t>(store.domain_values_.size());
  return store;
}

int32_t ObservationStore::DomainIndexOf(ObjectId object, ValueId value) const {
  IndexRange range = DomainRange(object);
  auto begin = domain_values_.begin() + range.begin;
  auto end = domain_values_.begin() + range.end;
  auto it = std::lower_bound(begin, end, value);
  if (it == end || *it != value) return -1;
  return static_cast<int32_t>(it - begin);
}

}  // namespace slimfast
