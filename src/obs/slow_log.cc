#include "obs/slow_log.h"

#include <algorithm>

#include "obs/clock.h"

namespace slimfast {
namespace obs {

namespace {
constexpr int32_t kDefaultCapacity = 64;
// 50us floor: well above the ~0.1us wait-free query path, well below
// anything an operator would call slow.
constexpr int64_t kDefaultMinThresholdNs = 50'000;
constexpr double kDefaultMultiplier = 4.0;
}  // namespace

SlowLog& SlowLog::Global() {
  static SlowLog* log = new SlowLog();  // leaks by design
  return *log;
}

SlowLog::SlowLog()
    : SlowLog(kDefaultCapacity, kDefaultMinThresholdNs,
              kDefaultMultiplier) {}

SlowLog::SlowLog(int32_t capacity, int64_t min_threshold_ns,
                 double multiplier)
    : capacity_(capacity < 1 ? 1 : capacity),
      min_threshold_ns_(min_threshold_ns),
      multiplier_(multiplier) {
  ring_.resize(static_cast<size_t>(capacity_));
}

int64_t SlowLog::ThresholdNanos() const {
  const int64_t ewma = ewma_ns_.load(std::memory_order_relaxed);
  return std::max(min_threshold_ns_,
                  static_cast<int64_t>(multiplier_ *
                                       static_cast<double>(ewma)));
}

bool SlowLog::Offer(std::string_view kind, int64_t duration_ns,
                    int32_t shard, std::string_view detail) {
  const int64_t threshold = ThresholdNanos();
  // EWMA with alpha = 1/8: old * 7/8 + new * 1/8. A racing update can
  // lose a sample — fine for a smoothing statistic.
  const int64_t ewma = ewma_ns_.load(std::memory_order_relaxed);
  ewma_ns_.store(ewma == 0 ? duration_ns
                           : ewma + (duration_ns - ewma) / 8,
                 std::memory_order_relaxed);
  if (duration_ns <= threshold) return false;

  SlowExemplar exemplar;
  exemplar.ts_ns = Clock::NowNanos();
  exemplar.kind = kind;
  exemplar.duration_ns = duration_ns;
  exemplar.shard = shard;
  exemplar.detail = detail;
  std::lock_guard<std::mutex> lock(mu_);
  ++captured_;
  if (size_ == capacity_) {
    ring_[static_cast<size_t>(head_)] = std::move(exemplar);
    head_ = (head_ + 1) % capacity_;
  } else {
    ring_[static_cast<size_t>((head_ + size_) % capacity_)] =
        std::move(exemplar);
    ++size_;
  }
  return true;
}

std::vector<SlowExemplar> SlowLog::Recent(int32_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  int32_t count = size_;
  if (n > 0 && n < count) count = n;
  std::vector<SlowExemplar> out;
  out.reserve(static_cast<size_t>(count));
  for (int32_t i = size_ - count; i < size_; ++i) {
    out.push_back(ring_[static_cast<size_t>((head_ + i) % capacity_)]);
  }
  return out;
}

int64_t SlowLog::captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captured_;
}

void SlowLog::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  captured_ = 0;
  ewma_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace slimfast
