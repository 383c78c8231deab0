#ifndef SLIMFAST_OPT_SPARSE_GRAD_H_
#define SLIMFAST_OPT_SPARSE_GRAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slimfast {

/// Sparse gradient accumulator: a dense scratch vector plus the list of
/// parameters touched since the last Clear, so per-example SGD updates pay
/// O(nnz) instead of O(num_params). The scatter stays scalar — it is a
/// data-dependent indexed write — and determinism comes from the
/// discipline below, not from vector width.
///
/// Terms are added in the caller's iteration order, and draining in
/// touched-order replays the exact first-touch sequence. A parameter
/// whose slot cancels back to exactly 0.0 mid-accumulation is recorded
/// again on the next add, so touched() may contain duplicates — every
/// drain loop MUST call ZeroSlot as it reads each slot (as the SGD apply
/// loop does), so a duplicate contributes the zeroed slot instead of
/// double-counting the final value.
template <typename ParamIndex>
class SparseGradAccumulator {
 public:
  explicit SparseGradAccumulator(int32_t num_params)
      : slots_(static_cast<size_t>(num_params), 0.0) {}

  /// slots[param] += grad_coeff * coeff, tracking first touches.
  void Add(ParamIndex param, double coeff, double grad_coeff) {
    double& slot = slots_[static_cast<size_t>(param)];
    if (slot == 0.0) touched_.push_back(param);
    slot += grad_coeff * coeff;
  }

  /// Parameters touched since the last Clear, in first-touch order.
  const std::vector<ParamIndex>& touched() const { return touched_; }

  double Slot(ParamIndex param) const {
    return slots_[static_cast<size_t>(param)];
  }

  /// Zeroes one slot (the SGD apply loop drains slots one by one).
  void ZeroSlot(ParamIndex param) {
    slots_[static_cast<size_t>(param)] = 0.0;
  }

  /// Forgets all touches; zeroes only the touched slots (O(nnz)).
  void Clear() {
    for (ParamIndex p : touched_) slots_[static_cast<size_t>(p)] = 0.0;
    touched_.clear();
  }

 private:
  std::vector<double> slots_;
  std::vector<ParamIndex> touched_;
};

}  // namespace slimfast

#endif  // SLIMFAST_OPT_SPARSE_GRAD_H_
