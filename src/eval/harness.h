#ifndef SLIMFAST_EVAL_HARNESS_H_
#define SLIMFAST_EVAL_HARNESS_H_

#include <string>
#include <vector>

#include "data/fusion.h"
#include "exec/parallel.h"
#include "util/result.h"

namespace slimfast {

/// Sweep specification mirroring the paper's methodology (Sec. 5.1):
/// training fractions {0.1%, 1%, 5%, 10%, 20%}, five random splits per
/// fraction, averaged.
struct SweepSpec {
  std::vector<double> train_fractions = {0.001, 0.01, 0.05, 0.10, 0.20};
  int32_t num_seeds = 5;
  uint64_t base_seed = 42;
};

/// Aggregated result of one (method, train-fraction) cell.
struct CellResult {
  std::string method;
  double train_fraction = 0.0;
  int32_t num_runs = 0;

  double mean_accuracy = 0.0;   ///< object-value accuracy on test objects
  double stddev_accuracy = 0.0;
  /// Observation-weighted source-accuracy error; valid only for
  /// probabilistic methods on datasets with reliable per-source truth.
  double mean_source_error = 0.0;
  bool source_error_valid = false;

  double mean_total_seconds = 0.0;
  double mean_learn_seconds = 0.0;
  double mean_infer_seconds = 0.0;
  double mean_compile_seconds = 0.0;
};

/// Runs every method over every training fraction with `num_seeds`
/// random splits each (splits are shared across methods within a seed so
/// comparisons are paired) and aggregates the metrics.
///
/// The (fraction × seed × method) grid runs in parallel across `exec`
/// (null = serial). Every cell writes its own pre-assigned slot and the
/// aggregation folds slots in fixed grid order, so the cells are identical
/// for every thread count. Methods must be re-entrant: the same
/// FusionMethod object may execute concurrent Run calls (all in-tree
/// methods keep their state on the stack). When passing an Executor,
/// build SLiMFast methods with exec.threads = 1 — the grid already uses
/// the thread budget, and a default-options method would resolve
/// SLIMFAST_THREADS and spawn a nested pool per concurrent cell.
///
/// Every SLiMFast cell compiles its own instance of the dataset; a
/// compile costs one linear pass over the claims, small next to each
/// cell's learning + inference.
///
/// \param dataset  the fusion instance every cell runs on
/// \param methods  non-owning method pointers; each must outlive the call
///                 and tolerate concurrent Run invocations
/// \param spec     training fractions, seeds per fraction, and base seed
/// \param exec     executor the grid fans out on (null = serial, same
///                 cells)
/// \return one CellResult per (method, fraction), in grid order
Result<std::vector<CellResult>> SweepMethods(
    const Dataset& dataset, const std::vector<FusionMethod*>& methods,
    const SweepSpec& spec, Executor* exec = nullptr);

/// Renders sweep results as a Table 2-style grid: one row per training
/// fraction, one column per method, cells = `metric`.
enum class SweepMetric {
  kAccuracy,
  kSourceError,
  kTotalSeconds,
};

/// Formats `results` as a fixed-width text table.
///
/// \param title    heading printed above the grid
/// \param results  cells from SweepMethods (any order; rows are grouped
///                 by fraction, columns by method name)
/// \param metric   which CellResult field fills the cells
/// \return the rendered table, newline-terminated
std::string RenderSweep(const std::string& title,
                        const std::vector<CellResult>& results,
                        SweepMetric metric);

/// Finds the cell for (method, fraction); NotFound if absent.
///
/// \param results   cells from SweepMethods
/// \param method    method display name to look up
/// \param fraction  training fraction of the cell (exact match)
Result<CellResult> FindCell(const std::vector<CellResult>& results,
                            const std::string& method, double fraction);

}  // namespace slimfast

#endif  // SLIMFAST_EVAL_HARNESS_H_
