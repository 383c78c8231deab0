#ifndef SLIMFAST_CORE_ROW_ACCESS_H_
#define SLIMFAST_CORE_ROW_ACCESS_H_

#include <cstdint>
#include <vector>

#include "core/compiled_instance.h"
#include "core/model.h"
#include "data/dataset.h"
#include "util/logging.h"

namespace slimfast {

/// Row-access policies: the learners (ERM gradients, the EM E-step) are
/// written once against this interface and instantiated over both
/// representations —
///
///   DenseRowAccess   the legacy nested per-object vectors of
///                    CompiledModel (kept for equivalence testing),
///   SparseRowAccess  the flat CSR ranges of CompiledInstance.
///
/// Both walk the same elements in the same order and perform the same
/// floating-point operations, so a fit is bit-identical whichever policy
/// drives it (asserted per preset in determinism_test). Policies are
/// cheap aggregates of pointers; construct them on the stack per fit.
struct DenseRowAccess {
  DenseRowAccess(const Dataset* d, const SlimFastModel* m)
      : dataset(d), model(m), compiled(&m->compiled()) {}

  const Dataset* dataset;
  const SlimFastModel* model;
  /// Hoisted once at construction, as the legacy loops did.
  const CompiledModel* compiled;

  /// Posterior over row `r`'s candidate domain.
  void Posterior(int32_t r, std::vector<double>* probs) const {
    model->Posterior(compiled->objects[static_cast<size_t>(r)], probs);
  }

  /// Raw candidate scores of row `r` (the pre-softmax part of Posterior),
  /// written to `out[0..DomainSize)`. Bit-identical to the scores
  /// SlimFastModel::Posterior softmaxes, so a caller batching the softmax
  /// over many rows reproduces Posterior's bits exactly.
  void Scores(int32_t r, double* out) const {
    const CompiledObject& row = compiled->objects[static_cast<size_t>(r)];
    for (size_t di = 0; di < row.domain.size(); ++di) {
      out[di] = model->ValueScore(row, di);
    }
  }

  int32_t NumRows() const {
    return static_cast<int32_t>(compiled->objects.size());
  }

  size_t DomainSize(int32_t r) const {
    return compiled->objects[static_cast<size_t>(r)].domain.size();
  }

  /// Applies `fn(term)` to every posterior term of (row, candidate di).
  template <typename Fn>
  void ForEachTerm(int32_t r, size_t di, Fn&& fn) const {
    for (const ParamTerm& t :
         compiled->objects[static_cast<size_t>(r)].terms[di]) {
      fn(t);
    }
  }

  /// Applies `fn(source, candidate_index)` to every claim on row `r`, in
  /// dataset insertion order. `candidate_index` locates the claimed value
  /// in the row's domain. Requires a non-null `dataset`: ERM constructs
  /// the policy without one because its losses never iterate claims;
  /// claim-walking callers (the EM E-step) must supply the dataset.
  template <typename Fn>
  void ForEachClaim(int32_t r, Fn&& fn) const {
    SLIMFAST_DCHECK(dataset != nullptr,
                    "ForEachClaim requires a DenseRowAccess built with a "
                    "dataset");
    const CompiledObject& row = compiled->objects[static_cast<size_t>(r)];
    for (const SourceClaim& claim : dataset->ClaimsOnObject(row.object)) {
      fn(claim.source, row.DomainIndex(claim.value));
    }
  }
};

struct SparseRowAccess {
  /// Raw CSR pointers cached at construction: the learners interleave
  /// reads of this structure with writes through the weight vector and
  /// gradient slots, and keeping the loop bases in locals (rather than
  /// re-reading std::vector headers through two indirections per access)
  /// lets the optimizer keep them in registers.
  SparseRowAccess(const CompiledInstance* inst, const SlimFastModel* m)
      : instance(inst),
        model(m),
        row_begin(inst->row_begin.data()),
        cand_offsets(inst->cand_offsets.data()),
        term_begin(inst->term_begin.data()),
        terms(inst->terms.data()),
        term_coeff(inst->term_coeff.data()),
        term_param(inst->term_param.data()),
        claim_begin(inst->claim_begin.data()),
        claim_sources(inst->claim_sources.data()),
        claim_cand(inst->claim_cand.data()) {}

  const CompiledInstance* instance;
  const SlimFastModel* model;
  const int64_t* row_begin;
  const double* cand_offsets;
  const int64_t* term_begin;
  const ParamTerm* terms;
  /// SoA mirrors of `terms` (see CompiledInstance), the layout the
  /// batched SIMD pipelines stream.
  const double* term_coeff;
  const ParamId* term_param;
  const int64_t* claim_begin;
  const SourceId* claim_sources;
  const int32_t* claim_cand;

  /// Per-row posterior with the lane-stable score fold: bit-identical to
  /// SlimFastModel::Posterior on the matching dense row AND to the
  /// whole-shard TermProducts + FoldRanges + SoftmaxRows kernel pipeline
  /// the batched E-step runs over these same ranges.
  void Posterior(int32_t r, std::vector<double>* probs) const {
    const int64_t begin = row_begin[r];
    const int64_t end = row_begin[r + 1];
    const std::vector<double>& w = model->weights();
    probs->resize(static_cast<size_t>(end - begin));
    for (int64_t c = begin; c < end; ++c) {
      const int64_t tb = term_begin[c];
      const double* coeff = term_coeff + tb;
      const ParamId* param = term_param + tb;
      (*probs)[static_cast<size_t>(c - begin)] =
          cand_offsets[c] +
          simd::LaneStableSum(term_begin[c + 1] - tb, [&](int64_t i) {
            return coeff[i] * w[static_cast<size_t>(param[i])];
          });
    }
    SoftmaxInPlace(probs);
  }

  /// Raw candidate scores of row `r` — the same lane-stable fold as
  /// Posterior, without the softmax. Bit-identical to DenseRowAccess::
  /// Scores on the matching row.
  void Scores(int32_t r, double* out) const {
    const int64_t begin = row_begin[r];
    const int64_t end = row_begin[r + 1];
    const std::vector<double>& w = model->weights();
    for (int64_t c = begin; c < end; ++c) {
      const int64_t tb = term_begin[c];
      const double* coeff = term_coeff + tb;
      const ParamId* param = term_param + tb;
      out[c - begin] =
          cand_offsets[c] +
          simd::LaneStableSum(term_begin[c + 1] - tb, [&](int64_t i) {
            return coeff[i] * w[static_cast<size_t>(param[i])];
          });
    }
  }

  int32_t NumRows() const {
    return static_cast<int32_t>(instance->num_rows());
  }

  size_t DomainSize(int32_t r) const {
    return static_cast<size_t>(row_begin[r + 1] - row_begin[r]);
  }

  template <typename Fn>
  void ForEachTerm(int32_t r, size_t di, Fn&& fn) const {
    const int64_t cand = row_begin[r] + static_cast<int64_t>(di);
    const int64_t end = term_begin[cand + 1];
    for (int64_t t = term_begin[cand]; t < end; ++t) {
      fn(terms[t]);
    }
  }

  template <typename Fn>
  void ForEachClaim(int32_t r, Fn&& fn) const {
    const int64_t end = claim_begin[r + 1];
    for (int64_t i = claim_begin[r]; i < end; ++i) {
      fn(claim_sources[i], claim_cand[i]);
    }
  }
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_ROW_ACCESS_H_
