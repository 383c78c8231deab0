#ifndef SLIMFAST_EXEC_SHARDED_RNG_H_
#define SLIMFAST_EXEC_SHARDED_RNG_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace slimfast {

/// Per-shard random streams derived from one seed.
///
/// Stream i is seeded with a SplitMix64 mix of (seed, i), so streams are
/// statistically independent, a stream's seed depends only on (seed, index)
/// — never on how many streams exist or which thread draws from it — and
/// randomized parallel stages (synthetic replica generation) stay
/// bit-reproducible for every thread count.
class ShardedRng {
 public:
  ShardedRng(uint64_t seed, int32_t num_streams);

  int32_t num_streams() const {
    return static_cast<int32_t>(streams_.size());
  }

  /// The stream for shard `i`. Distinct streams may be drawn from
  /// concurrently; a single stream must stay on one thread at a time.
  Rng* stream(int32_t i) { return &streams_[static_cast<size_t>(i)]; }

  /// The seed stream `index` of a ShardedRng built on `seed` would get.
  /// Exposed so callers can reproduce one shard in isolation.
  static uint64_t StreamSeed(uint64_t seed, int32_t index);

 private:
  std::vector<Rng> streams_;
};

}  // namespace slimfast

#endif  // SLIMFAST_EXEC_SHARDED_RNG_H_
