#include "core/compiled_instance.h"

#include <algorithm>
#include <utility>

#include "exec/parallel.h"
#include "util/hash.h"

namespace slimfast {

namespace {

/// Flattens `instance->model` + `instance->store` into the flat CSR
/// arrays. One linear pass, shared by CompileInstance and DeltaCompile so
/// both assemble identical bits from identical structure.
void FlattenInstance(CompiledInstance* instance) {
  const CompiledModel& model = *instance->model;
  const ObservationStore& store = instance->store;
  const size_t num_rows = model.objects.size();

  // Candidate axis + term CSR.
  int64_t total_cands = 0;
  int64_t total_terms = 0;
  for (const CompiledObject& row : model.objects) {
    total_cands += static_cast<int64_t>(row.domain.size());
    for (const auto& cand_terms : row.terms) {
      total_terms += static_cast<int64_t>(cand_terms.size());
    }
  }
  instance->row_begin.reserve(num_rows + 1);
  instance->cand_values.reserve(static_cast<size_t>(total_cands));
  instance->cand_offsets.reserve(static_cast<size_t>(total_cands));
  instance->term_begin.reserve(static_cast<size_t>(total_cands) + 1);
  instance->terms.reserve(static_cast<size_t>(total_terms));
  instance->term_coeff.reserve(static_cast<size_t>(total_terms));
  instance->term_param.reserve(static_cast<size_t>(total_terms));

  instance->row_begin.push_back(0);
  instance->term_begin.push_back(0);
  for (const CompiledObject& row : model.objects) {
    for (size_t di = 0; di < row.domain.size(); ++di) {
      instance->cand_values.push_back(row.domain[di]);
      instance->cand_offsets.push_back(row.offsets[di]);
      instance->terms.insert(instance->terms.end(), row.terms[di].begin(),
                             row.terms[di].end());
      for (const ParamTerm& t : row.terms[di]) {
        instance->term_coeff.push_back(t.coeff);
        instance->term_param.push_back(t.param);
      }
      instance->term_begin.push_back(
          static_cast<int64_t>(instance->terms.size()));
    }
    instance->row_begin.push_back(
        static_cast<int64_t>(instance->cand_values.size()));
  }

  // Sigma-term CSR.
  instance->sigma_begin.reserve(model.sigma_terms.size() + 1);
  instance->sigma_begin.push_back(0);
  for (const auto& source_terms : model.sigma_terms) {
    instance->sigma_terms.insert(instance->sigma_terms.end(),
                                 source_terms.begin(), source_terms.end());
    instance->sigma_begin.push_back(
        static_cast<int64_t>(instance->sigma_terms.size()));
  }

  // Per-row claims (canonical order) and truth targets. The claimed
  // value's domain index is resolved once here so per-iteration walks
  // never binary-search.
  instance->claim_begin.reserve(num_rows + 1);
  const size_t num_claims = static_cast<size_t>(store.num_observations());
  instance->claim_sources.reserve(num_claims);
  instance->claim_cand.reserve(num_claims);
  instance->claim_begin.push_back(0);
  instance->truth_cand.reserve(num_rows);
  for (const CompiledObject& row : model.objects) {
    IndexRange range = store.ObjectRange(row.object);
    for (int64_t i = range.begin; i < range.end; ++i) {
      instance->claim_sources.push_back(
          store.sources()[static_cast<size_t>(i)]);
      instance->claim_cand.push_back(
          row.DomainIndex(store.values()[static_cast<size_t>(i)]));
    }
    instance->claim_begin.push_back(
        static_cast<int64_t>(instance->claim_sources.size()));
    ValueId truth = store.truth()[static_cast<size_t>(row.object)];
    instance->truth_cand.push_back(
        truth == kNoValue ? -1 : row.DomainIndex(truth));
  }
}

}  // namespace

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
  FlattenInstance(instance.get());
  return std::shared_ptr<const CompiledInstance>(std::move(instance));
}

Result<std::shared_ptr<const CompiledInstance>> DeltaCompile(
    const CompiledInstance& base, const ObservationBatch& batch,
    Executor* exec, std::vector<ObjectId>* recompiled_rows) {
  const CompiledModel& base_model = *base.model;
  if (base_model.config.use_copying_features) {
    return Status::NotImplemented(
        "delta compilation does not support the copying extension: "
        "copy-pair selection is a global agreement scan, so a batch can "
        "change the parameter layout itself — recompile from scratch");
  }

  SLIMFAST_ASSIGN_OR_RETURN(ObservationStore store,
                            base.store.AppendBatch(batch));

  // Structural context carries over unchanged: new observations cannot
  // alter the parameter layout (the source/feature universes are fixed at
  // session start) or the per-source sigma expressions.
  CompiledModel model;
  model.config = base_model.config;
  model.layout = base_model.layout;
  model.sigma_terms = base_model.sigma_terms;
  model.copy_pairs = base_model.copy_pairs;
  model.num_sources = base_model.num_sources;
  model.num_features = base_model.num_features;

  // Recompile exactly the rows with new claims, sharded across `exec`
  // (each row writes its own slot, so thread count never changes the
  // result). Truth-only updates never enter a row's term expressions —
  // FlattenInstance re-resolves every truth_cand from the new store — so
  // a labels-only batch recompiles nothing. Untouched rows are copied
  // bit-for-bit below.
  std::vector<ObjectId> recompile;
  recompile.reserve(batch.observations.size());
  for (const Observation& obs : batch.observations) {
    recompile.push_back(obs.object);
  }
  std::sort(recompile.begin(), recompile.end());
  recompile.erase(std::unique(recompile.begin(), recompile.end()),
                  recompile.end());
  // One shard per thread, so each shard's scratch (an O(num_params)
  // TermAccumulator plus the claim and domain buffers) is allocated once
  // per call rather than once per row.
  std::vector<CompiledObject> rows(recompile.size());
  const std::unordered_map<int64_t, int32_t> no_copy_pairs;
  const std::vector<ShardRange> shards =
      StaticShards(static_cast<int64_t>(recompile.size()),
                   exec == nullptr ? 1 : exec->threads());
  RunSharded(exec, static_cast<int32_t>(shards.size()), [&](int32_t s) {
    TermAccumulator acc(base_model.layout.num_params);
    std::vector<SourceClaim> claims;
    std::vector<ValueId> domain;
    const ShardRange& shard = shards[static_cast<size_t>(s)];
    for (int64_t i = shard.begin; i < shard.end; ++i) {
      ObjectId o = recompile[static_cast<size_t>(i)];
      IndexRange range = store.ObjectRange(o);
      claims.clear();
      for (int64_t c = range.begin; c < range.end; ++c) {
        claims.push_back(
            SourceClaim{store.sources()[static_cast<size_t>(c)],
                        store.values()[static_cast<size_t>(c)]});
      }
      IndexRange domain_range = store.DomainRange(o);
      domain.assign(store.domain_values().begin() + domain_range.begin,
                    store.domain_values().begin() + domain_range.end);
      rows[static_cast<size_t>(i)] = CompileObjectRow(
          o, claims, domain, base_model, no_copy_pairs, &acc);
    }
  });

  // Assemble the new row list in ObjectId order: recompiled rows splice in
  // where their object sits, everything else is copied from the base.
  model.object_row.assign(static_cast<size_t>(store.num_objects()), -1);
  model.objects.reserve(base_model.objects.size() + rows.size());
  size_t next_recompiled = 0;
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    if (store.ObjectRange(o).empty()) continue;
    model.object_row[static_cast<size_t>(o)] =
        static_cast<int32_t>(model.objects.size());
    if (next_recompiled < recompile.size() &&
        recompile[next_recompiled] == o) {
      model.objects.push_back(std::move(rows[next_recompiled]));
      ++next_recompiled;
    } else {
      const CompiledObject* row = base_model.RowOf(o);
      model.objects.push_back(*row);
    }
  }

  auto instance = std::make_shared<CompiledInstance>();
  instance->model = std::make_shared<const CompiledModel>(std::move(model));
  instance->store = std::move(store);
  FlattenInstance(instance.get());
  if (recompiled_rows != nullptr) *recompiled_rows = std::move(recompile);
  return std::shared_ptr<const CompiledInstance>(std::move(instance));
}

bool BitwiseEqual(const CompiledInstance& a, const CompiledInstance& b) {
  return *a.model == *b.model && a.store == b.store &&
         a.row_begin == b.row_begin && a.cand_values == b.cand_values &&
         a.cand_offsets == b.cand_offsets && a.term_begin == b.term_begin &&
         a.terms == b.terms && a.term_coeff == b.term_coeff &&
         a.term_param == b.term_param && a.sigma_begin == b.sigma_begin &&
         a.sigma_terms == b.sigma_terms && a.claim_begin == b.claim_begin &&
         a.claim_sources == b.claim_sources &&
         a.claim_cand == b.claim_cand && a.truth_cand == b.truth_cand;
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
