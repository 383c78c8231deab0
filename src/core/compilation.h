#ifndef SLIMFAST_CORE_COMPILATION_H_
#define SLIMFAST_CORE_COMPILATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/options.h"
#include "data/dataset.h"
#include "util/result.h"

namespace slimfast {

/// Dense parameter index into the model's weight vector.
using ParamId = int32_t;

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

/// The parameter structure compiled from a dataset (the "Compilation"
/// step of Figure 3): the parameter layout and every source's trust
/// score σ_s = w_s + Σ_k w_k f_{s,k} (Eq. 2) as a CSR over parameters.
/// None of it depends on the claims except the copy-pair selection, so a
/// batch of new claims never changes it. A candidate's score is the sum
/// of the σ_s of the sources that claim it (Eq. 4); CompiledInstance
/// pairs this structure with the claims.
struct CompiledModel {
  ModelConfig config;
  ParamLayout layout;
  /// Trust-score CSR: σ_s = Σ sigma_coeff[t]·w[sigma_param[t]] over
  /// t in [sigma_begin[s], sigma_begin[s+1]) — the source weight, then
  /// the source's features in ascending order. Size num_sources + 1.
  std::vector<int64_t> sigma_begin;
  std::vector<ParamId> sigma_param;
  std::vector<double> sigma_coeff;
  /// Copying extension: copy_pairs[c] is the source pair of copy parameter
  /// layout.copy_offset + c.
  std::vector<std::pair<SourceId, SourceId>> copy_pairs;

  int32_t num_sources = 0;
  int32_t num_features = 0;

  /// Deep structural equality (bitwise on every coefficient); backs the
  /// delta-compilation equivalence assertions.
  bool operator==(const CompiledModel&) const = default;
};

/// Compiles the parameter structure of `dataset` under `config`. Fails if
/// the config enables features but the dataset has none of the structure
/// required (e.g. copying with < 2 sources).
Result<CompiledModel> Compile(const Dataset& dataset,
                              const ModelConfig& config);

}  // namespace slimfast

#endif  // SLIMFAST_CORE_COMPILATION_H_
