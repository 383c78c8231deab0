#ifndef SLIMFAST_OBS_SLOW_LOG_H_
#define SLIMFAST_OBS_SLOW_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace slimfast {
namespace obs {

/// One captured slow-operation exemplar: the concrete shard/object the
/// latency histogram's tail is made of.
struct SlowExemplar {
  int64_t ts_ns = 0;
  /// What was slow ("query", "relearn", a verb name).
  std::string kind;
  int64_t duration_ns = 0;
  int32_t shard = -1;
  /// Operation detail ("object=17", "batch=3 algorithm=erm").
  std::string detail;
};

/// Bounded ring of slow-operation exemplars behind an adaptive
/// threshold, surfaced by the SLOW verb.
///
/// The threshold tracks an EWMA of every offered duration: an operation
/// is captured when it exceeds max(min_threshold, multiplier * ewma),
/// so "slow" adapts to the workload (a 50us query is an outlier at
/// 0.1us typical latency and unremarkable during a cold compile) while
/// the floor keeps timer noise out. The EWMA is a relaxed atomic — the
/// fast path (a non-slow operation) costs one load, one compare, and
/// one store; only actual captures take the mutex.
class SlowLog {
 public:
  static SlowLog& Global();

  /// A log with explicit tuning (tests shrink the ring and pin the
  /// threshold).
  SlowLog(int32_t capacity, int64_t min_threshold_ns, double multiplier);

  SlowLog(const SlowLog&) = delete;
  SlowLog& operator=(const SlowLog&) = delete;

  /// Offers one measured operation: updates the adaptive threshold and
  /// captures an exemplar when the duration clears it. Returns whether
  /// the operation was captured.
  bool Offer(std::string_view kind, int64_t duration_ns, int32_t shard,
             std::string_view detail);

  /// The current capture threshold in nanoseconds.
  int64_t ThresholdNanos() const;

  /// The most recent `n` exemplars, oldest first (all when n <= 0).
  std::vector<SlowExemplar> Recent(int32_t n = 0) const;

  /// Exemplars ever captured (lifetime total).
  int64_t captured() const;

  /// Test-only: clears the ring and the EWMA.
  void ResetForTest();

 private:
  SlowLog();  // Global() only

  const int32_t capacity_;
  const int64_t min_threshold_ns_;
  const double multiplier_;
  /// EWMA of offered durations, nanoseconds; 0 until the first offer.
  std::atomic<int64_t> ewma_ns_{0};
  mutable std::mutex mu_;
  std::vector<SlowExemplar> ring_;
  int32_t head_ = 0;
  int32_t size_ = 0;
  int64_t captured_ = 0;
};

}  // namespace obs
}  // namespace slimfast

#endif  // SLIMFAST_OBS_SLOW_LOG_H_
