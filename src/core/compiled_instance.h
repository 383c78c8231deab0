#ifndef SLIMFAST_CORE_COMPILED_INSTANCE_H_
#define SLIMFAST_CORE_COMPILED_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/compilation.h"
#include "data/observation_store.h"
#include "simd/simd.h"
#include "util/result.h"

namespace slimfast {

/// The compiled form of one (dataset, ModelConfig) pair: the columnar
/// ObservationStore, the parameter structure with its trust-score CSR
/// (`model`), and the arrays that turn claims into candidate scores.
///
/// A candidate's score is its constant offset plus the trust score σ_s of
/// every source that claims it, plus the copying weights that fire on it
/// (Eq. 2-4; CandidateScores). The claims are the model: nothing is
/// expanded per candidate, so every reader computes σ once per pass
/// (TrustScores) and gathers one σ per claim.
///
/// Index spaces (all read through `store`):
///   objects     [0, store.num_objects()) — unobserved objects have empty
///                                          ranges
///   claims      store.ObjectRange(o)     — canonical order
///   candidates  store.DomainRange(o)     — ascending values
struct CompiledInstance {
  /// The parameter structure (layout, σ CSR, copy pairs). Shared by every
  /// instance DeltaCompile derives from this one.
  std::shared_ptr<const CompiledModel> model;

  /// Columnar observation store of the source dataset.
  ObservationStore store;

  /// Domain index (within its object's candidates) of each claim's value,
  /// parallel to the store's columns.
  std::vector<int32_t> claim_cand;

  /// Constant score offset per candidate, parallel to
  /// store.domain_values(): the multiclass correction count(d) ·
  /// log(|D_o| - 1). Equation 2 defines σ_s as the binary log-odds; with
  /// |D_o| > 2 candidates and wrong values spread uniformly, each claim's
  /// correct Naive-Bayes vote is log(A_s / ((1 - A_s) / (n - 1))) =
  /// σ_s + log(n - 1) — the same n factor ACCU uses. Zero for binary
  /// domains, so the base model is exactly Eq. 4 there.
  std::vector<double> cand_offsets;

  /// Copying extension only (all empty otherwise): object o's copy terms
  /// are [copy_begin[o], copy_begin[o+1]). A registered pair that agrees
  /// on candidate copy_cand[t] fires weight copy_param[t] on every *other*
  /// candidate (Appendix D): a positive weight pushes the posterior away
  /// from the pair's value, so joint mistakes read as copying rather than
  /// independent corroboration.
  std::vector<int64_t> copy_begin;
  std::vector<ParamId> copy_param;
  std::vector<int32_t> copy_cand;

  int32_t num_objects() const { return store.num_objects(); }

  /// Number of candidates of `object` (0 when unobserved).
  int32_t DomainSize(ObjectId object) const {
    return static_cast<int32_t>(store.DomainRange(object).size());
  }
};

/// σ_s = Σ coeff · w over the trust-score CSR, for every source, through
/// the TermProducts + FoldRanges kernels. `sigma` is resized to
/// model.num_sources.
void TrustScores(const CompiledModel& model, const std::vector<double>& w,
                 std::vector<double>* sigma);

/// σ of one source: the same bits as its TrustScores entry (LaneStableSum
/// is FoldRanges' accumulation, see src/simd/simd.h).
inline double TrustScore(const CompiledModel& model, const double* w,
                         SourceId source) {
  const int64_t begin = model.sigma_begin[static_cast<size_t>(source)];
  const double* coeff = model.sigma_coeff.data() + begin;
  const ParamId* param = model.sigma_param.data() + begin;
  return simd::LaneStableSum(
      model.sigma_begin[static_cast<size_t>(source) + 1] - begin,
      [&](int64_t i) { return coeff[i] * w[param[i]]; });
}

/// The one scoring function: raw scores of `object`'s candidates, written
/// to out[0..DomainSize(object)). Each starts at its offset, gains
/// sigma[s] for every claim on it in claim order, then the weight w[p] of
/// every copy term that fires on it. Only the sigma entries of the
/// object's claiming sources are read.
inline void CandidateScores(const CompiledInstance& inst, ObjectId object,
                            const double* sigma, const double* w,
                            double* out) {
  const ObservationStore& store = inst.store;
  const IndexRange cands = store.DomainRange(object);
  const int64_t n = cands.size();
  const double* offsets = inst.cand_offsets.data() + cands.begin;
  for (int64_t d = 0; d < n; ++d) out[d] = offsets[d];
  const IndexRange claims = store.ObjectRange(object);
  const SourceId* src = store.sources().data();
  const int32_t* cand = inst.claim_cand.data();
  for (int64_t i = claims.begin; i < claims.end; ++i) {
    out[cand[i]] += sigma[src[i]];
  }
  if (inst.copy_begin.empty()) return;
  const int64_t end = inst.copy_begin[static_cast<size_t>(object) + 1];
  for (int64_t t = inst.copy_begin[static_cast<size_t>(object)]; t < end;
       ++t) {
    const double weight = w[inst.copy_param[static_cast<size_t>(t)]];
    const int32_t agreed = inst.copy_cand[static_cast<size_t>(t)];
    for (int64_t d = 0; d < n; ++d) {
      if (d != agreed) out[d] += weight;
    }
  }
}

/// Compiles `dataset` under `config`: the parameter structure (Compile),
/// the columnar store, and one derive pass over the claims.
Result<std::shared_ptr<const CompiledInstance>> CompileInstance(
    const Dataset& dataset, const ModelConfig& config);

/// Extends a compiled instance with one ingest batch — the
/// delta-maintenance step of the incremental fusion engine:
/// `ObservationStore::AppendBatch` (CSR range splice + incremental
/// fingerprint) plus the derive pass CompileInstance runs. The parameter
/// structure does not depend on the claims, so it is shared with `base`,
/// and the result is **bitwise-equal** to `CompileInstance` over the
/// concatenated data by construction (`core_delta_compile_test` asserts it
/// for every preset and chunking; `slimfast_cli replay` re-checks it).
///
/// Returns NotImplemented when the base config enables the copying
/// extension: copy-pair selection is a global agreement scan, so a batch
/// can invalidate the parameter layout itself — callers must recompile
/// from scratch in that configuration.
Result<std::shared_ptr<const CompiledInstance>> DeltaCompile(
    const CompiledInstance& base, const ObservationBatch& batch);

/// Deep bitwise equality of two compiled instances: the parameter
/// structure, the columnar store (including its content fingerprint), and
/// every derived array (offsets compared as exact doubles). This is the
/// delta-compilation correctness oracle.
bool BitwiseEqual(const CompiledInstance& a, const CompiledInstance& b);

/// Content fingerprint of everything compilation reads from a dataset:
/// dimensions, the observation multiset in canonical order, ground truth,
/// and the per-source feature sets. Two datasets with equal fingerprints
/// compile identically under any config.
uint64_t DatasetCompilationFingerprint(const Dataset& dataset);

/// Process-wide LRU cache of CompiledInstances keyed on
/// (DatasetCompilationFingerprint, ModelConfig). A SlimFast facade run,
/// an eval-grid sweep, or a bench loop that re-fits the same dataset pays
/// for compilation exactly once; all users share one immutable instance.
/// Thread-safe.
class CompiledInstanceCache {
 public:
  /// The process-wide cache used by the SlimFast facade.
  static CompiledInstanceCache& Global();

  explicit CompiledInstanceCache(size_t capacity = 8)
      : capacity_(capacity) {}

  /// Returns the cached instance for (dataset, config), compiling and
  /// inserting it on a miss. The least-recently-used entry is evicted when
  /// the cache is full.
  Result<std::shared_ptr<const CompiledInstance>> GetOrCompile(
      const Dataset& dataset, const ModelConfig& config);

  /// Drops every entry (tests; datasets freed mid-process).
  void Clear();

  size_t size() const;
  int64_t hits() const;
  int64_t misses() const;

 private:
  struct Entry {
    uint64_t fingerprint;
    int64_t num_observations;
    ModelConfig config;
    std::shared_ptr<const CompiledInstance> instance;
    uint64_t last_used;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t tick_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_COMPILED_INSTANCE_H_
