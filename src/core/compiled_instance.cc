#include "core/compiled_instance.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "util/hash.h"

namespace slimfast {

namespace {

/// Derives the scoring arrays of `instance` from its store and parameter
/// structure. One linear pass over the claims, shared by CompileInstance
/// and DeltaCompile so both assemble identical bits from identical
/// claims.
void DeriveScoring(CompiledInstance* instance) {
  const CompiledModel& model = *instance->model;
  const ObservationStore& store = instance->store;
  const int32_t num_objects = store.num_objects();
  const std::vector<ValueId>& values = store.values();

  instance->claim_cand.resize(static_cast<size_t>(store.num_observations()));
  instance->cand_offsets.assign(store.domain_values().size(), 0.0);
  for (ObjectId o = 0; o < num_objects; ++o) {
    const IndexRange claims = store.ObjectRange(o);
    const IndexRange cands = store.DomainRange(o);
    const double claim_offset =
        (model.config.multiclass_offset && cands.size() > 2)
            ? std::log(static_cast<double>(cands.size()) - 1.0)
            : 0.0;
    for (int64_t i = claims.begin; i < claims.end; ++i) {
      const int32_t d =
          store.DomainIndexOf(o, values[static_cast<size_t>(i)]);
      instance->claim_cand[static_cast<size_t>(i)] = d;
      instance->cand_offsets[static_cast<size_t>(cands.begin + d)] +=
          claim_offset;
    }
  }

  if (!model.config.use_copying_features) return;
  std::unordered_map<int64_t, int32_t> pair_index;
  for (size_t c = 0; c < model.copy_pairs.size(); ++c) {
    const auto& [i, j] = model.copy_pairs[c];
    pair_index.emplace(static_cast<int64_t>(i) * model.num_sources + j,
                       static_cast<int32_t>(c));
  }
  const std::vector<SourceId>& sources = store.sources();
  instance->copy_begin.reserve(static_cast<size_t>(num_objects) + 1);
  instance->copy_begin.push_back(0);
  for (ObjectId o = 0; o < num_objects; ++o) {
    const IndexRange claims = store.ObjectRange(o);
    for (int64_t a = claims.begin; a < claims.end; ++a) {
      for (int64_t b = a + 1; b < claims.end; ++b) {
        if (values[static_cast<size_t>(a)] != values[static_cast<size_t>(b)]) {
          continue;
        }
        const SourceId sa = sources[static_cast<size_t>(a)];
        const SourceId sb = sources[static_cast<size_t>(b)];
        auto it = pair_index.find(
            static_cast<int64_t>(std::min(sa, sb)) * model.num_sources +
            std::max(sa, sb));
        if (it == pair_index.end()) continue;
        instance->copy_param.push_back(model.layout.copy_offset + it->second);
        instance->copy_cand.push_back(
            instance->claim_cand[static_cast<size_t>(a)]);
      }
    }
    instance->copy_begin.push_back(
        static_cast<int64_t>(instance->copy_param.size()));
  }
}

}  // namespace

void TrustScores(const CompiledModel& model, const std::vector<double>& w,
                 std::vector<double>* sigma) {
  const int64_t num_terms = static_cast<int64_t>(model.sigma_param.size());
  std::vector<double> prod(static_cast<size_t>(num_terms));
  simd::TermProducts(model.sigma_coeff.data(), model.sigma_param.data(),
                     w.data(), prod.data(), num_terms);
  sigma->resize(static_cast<size_t>(model.num_sources));
  simd::FoldRanges(model.sigma_begin.data(), model.num_sources, 0,
                   prod.data(), nullptr, sigma->data());
}

uint64_t DatasetCompilationFingerprint(const Dataset& dataset) {
  uint64_t h = 0x534c694d46617374ULL;  // "SLiMFast"
  h = HashCombine(h, static_cast<uint64_t>(dataset.num_sources()));
  h = HashCombine(h, static_cast<uint64_t>(dataset.num_objects()));
  h = HashCombine(h, static_cast<uint64_t>(dataset.num_values()));
  h = HashCombine(h, static_cast<uint64_t>(dataset.num_observations()));
  // Observations in canonical (by-object, insertion) order — the order
  // every compilation pass walks.
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    for (const SourceClaim& claim : dataset.ClaimsOnObject(o)) {
      uint64_t pair =
          (static_cast<uint64_t>(static_cast<uint32_t>(claim.source)) << 32) |
          static_cast<uint64_t>(static_cast<uint32_t>(claim.value));
      h = HashCombine(h, pair);
    }
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(
                           dataset.HasTruth(o) ? dataset.Truth(o)
                                               : kNoValue)));
  }
  // Per-source feature sets (sigma-term sparsity).
  const FeatureSpace& features = dataset.features();
  h = HashCombine(h, static_cast<uint64_t>(features.num_features()));
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    const std::vector<FeatureId>& active = features.FeaturesOf(s);
    h = HashCombine(h, static_cast<uint64_t>(active.size()));
    for (FeatureId k : active) {
      h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(k)));
    }
  }
  return h;
}

Result<std::shared_ptr<const CompiledInstance>> CompileInstance(
    const Dataset& dataset, const ModelConfig& config) {
  SLIMFAST_ASSIGN_OR_RETURN(CompiledModel compiled,
                            Compile(dataset, config));

  auto instance = std::make_shared<CompiledInstance>();
  instance->model =
      std::make_shared<const CompiledModel>(std::move(compiled));
  instance->store = ObservationStore::FromDataset(dataset);
  DeriveScoring(instance.get());
  return std::shared_ptr<const CompiledInstance>(std::move(instance));
}

Result<std::shared_ptr<const CompiledInstance>> DeltaCompile(
    const CompiledInstance& base, const ObservationBatch& batch) {
  if (base.model->config.use_copying_features) {
    return Status::NotImplemented(
        "delta compilation does not support the copying extension: "
        "copy-pair selection is a global agreement scan, so a batch can "
        "change the parameter layout itself — recompile from scratch");
  }
  SLIMFAST_ASSIGN_OR_RETURN(ObservationStore store,
                            base.store.AppendBatch(batch));
  // New claims cannot alter the parameter layout (the source/feature
  // universes are fixed at session start) or any trust score σ_s.
  auto instance = std::make_shared<CompiledInstance>();
  instance->model = base.model;
  instance->store = std::move(store);
  DeriveScoring(instance.get());
  return std::shared_ptr<const CompiledInstance>(std::move(instance));
}

bool BitwiseEqual(const CompiledInstance& a, const CompiledInstance& b) {
  return *a.model == *b.model && a.store == b.store &&
         a.claim_cand == b.claim_cand && a.cand_offsets == b.cand_offsets &&
         a.copy_begin == b.copy_begin && a.copy_param == b.copy_param &&
         a.copy_cand == b.copy_cand;
}

CompiledInstanceCache& CompiledInstanceCache::Global() {
  static CompiledInstanceCache* cache = new CompiledInstanceCache();
  return *cache;
}

Result<std::shared_ptr<const CompiledInstance>>
CompiledInstanceCache::GetOrCompile(const Dataset& dataset,
                                    const ModelConfig& config) {
  // A hit requires matching content hash, observation count, and config.
  // The 64-bit hash is trusted without a full dataset comparison: at the
  // cache's capacity (8 entries) a silent collision needs ~2^-61 luck,
  // and the alternative — keeping or re-reading the full observation
  // list per lookup — costs what the cache exists to save.
  const uint64_t fingerprint = DatasetCompilationFingerprint(dataset);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& entry : entries_) {
      if (entry.fingerprint == fingerprint &&
          entry.num_observations == dataset.num_observations() &&
          entry.config == config) {
        entry.last_used = ++tick_;
        ++hits_;
        return entry.instance;
      }
    }
  }
  // Compile outside the lock: a miss is the expensive path and other
  // threads may be hitting on different datasets meanwhile.
  SLIMFAST_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledInstance> instance,
                            CompileInstance(dataset, config));
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  // A racing thread may have inserted the same key; reuse its entry so all
  // callers share one instance.
  for (Entry& entry : entries_) {
    if (entry.fingerprint == fingerprint &&
        entry.num_observations == dataset.num_observations() &&
        entry.config == config) {
      entry.last_used = ++tick_;
      return entry.instance;
    }
  }
  if (entries_.size() >= capacity_ && !entries_.empty()) {
    size_t lru = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].last_used < entries_[lru].last_used) lru = i;
    }
    entries_.erase(entries_.begin() + static_cast<int64_t>(lru));
  }
  entries_.push_back(Entry{fingerprint, dataset.num_observations(), config,
                           instance, ++tick_});
  return instance;
}

void CompiledInstanceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t CompiledInstanceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t CompiledInstanceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t CompiledInstanceCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace slimfast
