#ifndef SLIMFAST_CORE_COMPILATION_H_
#define SLIMFAST_CORE_COMPILATION_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/options.h"
#include "data/dataset.h"
#include "util/result.h"

namespace slimfast {

/// Dense parameter index into the model's weight vector.
using ParamId = int32_t;

/// One linear term: coefficient applied to a parameter.
struct ParamTerm {
  ParamId param;
  double coeff;
  bool operator==(const ParamTerm&) const = default;
};

/// The compiled form of one object: for each candidate value d in its
/// domain, the sparse linear expression Σ coeff_p · w_p whose softmax over
/// candidates gives P(To = d | Ω; w) (Eq. 4).
struct CompiledObject {
  ObjectId object;
  /// Candidate values (a copy of the dataset domain D_o, ascending).
  std::vector<ValueId> domain;
  /// terms[di] = sparse linear expression for domain[di], merged by param.
  std::vector<std::vector<ParamTerm>> terms;
  /// Constant score offset per candidate (no gradient): the multiclass
  /// correction count(d) * log(|D_o| - 1). Equation 2 defines σ_s as the
  /// binary log-odds; with |D_o| > 2 candidates and wrong values spread
  /// uniformly, each claim's correct Naive-Bayes vote is
  /// log(A_s / ((1 - A_s) / (n - 1))) = σ_s + log(n - 1) — the same n
  /// factor ACCU uses. Zero for binary domains, so the base model is
  /// exactly Eq. 4 there.
  std::vector<double> offsets;

  /// Index of `value` within `domain`, or -1 if absent.
  int32_t DomainIndex(ValueId value) const;

  /// Structural (bitwise, for the double-valued terms and offsets)
  /// equality; backs the delta-compilation equivalence assertions.
  bool operator==(const CompiledObject&) const = default;
};

/// Layout of the flat parameter vector:
///   [0, num_sources)                      per-source indicator weights w_s
///   [feature_offset, feature_offset+K)    feature weights w_k
///   [copy_offset, copy_offset+C)          copying pair weights (App. D)
/// Disabled groups have zero width.
struct ParamLayout {
  int32_t num_params = 0;
  int32_t source_offset = 0;
  int32_t num_source_params = 0;
  int32_t feature_offset = 0;
  int32_t num_feature_params = 0;
  int32_t copy_offset = 0;
  int32_t num_copy_params = 0;

  bool IsSourceParam(ParamId p) const {
    return p >= source_offset && p < source_offset + num_source_params;
  }
  bool IsFeatureParam(ParamId p) const {
    return p >= feature_offset && p < feature_offset + num_feature_params;
  }
  bool IsCopyParam(ParamId p) const {
    return p >= copy_offset && p < copy_offset + num_copy_params;
  }

  bool operator==(const ParamLayout&) const = default;
};

/// The model structure compiled from a dataset (the "Compilation" step of
/// Figure 3): parameter layout, per-source trust-score expressions, and
/// per-object posterior expressions. Learning and inference run over this
/// structure without touching the raw dataset again.
struct CompiledModel {
  ModelConfig config;
  ParamLayout layout;
  /// sigma_terms[s] = sparse expression of the trust score
  /// σ_s = w_s + Σ_k w_k f_{s,k}.
  std::vector<std::vector<ParamTerm>> sigma_terms;
  /// One entry per object that has at least one observation.
  std::vector<CompiledObject> objects;
  /// Row index into `objects` per ObjectId; -1 if the object is unobserved.
  std::vector<int32_t> object_row;
  /// Copying extension: copy_pairs[c] is the source pair of copy parameter
  /// layout.copy_offset + c.
  std::vector<std::pair<SourceId, SourceId>> copy_pairs;

  int32_t num_sources = 0;
  int32_t num_features = 0;

  /// Compiled row of `object`, or nullptr if it has no observations.
  const CompiledObject* RowOf(ObjectId object) const;

  /// Deep structural equality (bitwise on every term coefficient and
  /// offset); backs the delta-compilation equivalence assertions.
  bool operator==(const CompiledModel&) const = default;
};

/// Compiles `dataset` into the log-linear structure of Eq. 4 under
/// `config`. Fails if the config enables features but the dataset has none
/// of the structure required (e.g. copying with < 2 sources).
Result<CompiledModel> Compile(const Dataset& dataset,
                              const ModelConfig& config);

/// Merges the (param, coeff) terms of one candidate into a list sorted by
/// parameter with zero sums dropped. Sums live in a dense per-parameter
/// array. Which parameters were touched is kept in a two-level bitmap
/// (one bit per parameter, one summary bit per 64-parameter word), so
/// Finish walks the touched parameters in ascending order without a sort
/// and resets only their entries. Each parameter's sum receives its
/// additions in call order starting from 0.0, so the result does not
/// depend on how the terms are stored. Construction allocates
/// O(num_params); Add and Finish allocate only the returned list. One
/// accumulator serves one thread at a time.
class TermAccumulator {
 public:
  explicit TermAccumulator(int32_t num_params)
      : sums_(static_cast<size_t>(num_params), 0.0),
        words_((static_cast<size_t>(num_params) + 63) / 64, 0),
        summary_((words_.size() + 63) / 64, 0) {}

  void Add(ParamId param, double coeff) {
    const size_t p = static_cast<size_t>(param);
    const size_t word = p / 64;
    const size_t block = word / 64;
    words_[word] |= uint64_t{1} << (p % 64);
    summary_[block] |= uint64_t{1} << (word % 64);
    if (block < first_block_) first_block_ = block;
    if (block >= end_block_) end_block_ = block + 1;
    sums_[p] += coeff;
  }

  void AddAll(const std::vector<ParamTerm>& terms) {
    for (const ParamTerm& t : terms) Add(t.param, t.coeff);
  }

  /// Returns the merged terms added since the last Finish and resets.
  std::vector<ParamTerm> Finish();

 private:
  std::vector<double> sums_;
  /// Bit p % 64 of words_[p / 64] is set once parameter p is touched.
  std::vector<uint64_t> words_;
  /// Bit w % 64 of summary_[w / 64] is set once words_[w] is non-zero.
  std::vector<uint64_t> summary_;
  /// The summary words [first_block_, end_block_) hold every set bit.
  size_t first_block_ = SIZE_MAX;
  size_t end_block_ = 0;
};

/// Compiles the posterior expressions of one object from its claim list
/// and candidate domain — the per-object inner step of Compile(), exposed
/// so DeltaCompile can recompile exactly the touched rows. Because full
/// and delta compilation run this one implementation over the same claims
/// in the same order, an incrementally recompiled row is bitwise-identical
/// to its full-recompilation counterpart.
///
/// `model` supplies the structural context (config, parameter layout, and
/// the per-source sigma-term expressions); `copy_pair_index` maps a packed
/// `min_source * num_sources + max_source` key to the copy-parameter index
/// (pass an empty map when the copying extension is off). `acc` is the
/// caller's scratch, sized to `model.layout.num_params` and reused across
/// rows.
CompiledObject CompileObjectRow(
    ObjectId object, const std::vector<SourceClaim>& claims,
    const std::vector<ValueId>& domain, const CompiledModel& model,
    const std::unordered_map<int64_t, int32_t>& copy_pair_index,
    TermAccumulator* acc);

}  // namespace slimfast

#endif  // SLIMFAST_CORE_COMPILATION_H_
