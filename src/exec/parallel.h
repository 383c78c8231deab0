#ifndef SLIMFAST_EXEC_PARALLEL_H_
#define SLIMFAST_EXEC_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "exec/options.h"
#include "exec/thread_pool.h"

namespace slimfast {

/// One contiguous shard of an index range: items [begin, end).
struct ShardRange {
  int32_t shard = 0;
  int64_t begin = 0;
  int64_t end = 0;

  int64_t size() const { return end - begin; }
};

/// The fixed shard count all deterministic reductions use. It is a property
/// of the *work*, never of the thread count: per-shard accumulators are
/// combined in shard order, so results are bit-identical whether the shards
/// run on 1 thread or 64.
inline constexpr int32_t kFixedShardCount = 32;

/// The minimum-work rule: a data-parallel dispatch whose caller estimates
/// less than this much work runs its shards inline on the calling thread,
/// in shard order, and never wakes (or starts) the pool. The shard cuts
/// and the fold order are the ones the pool would use, so the results are
/// bit-identical either way; only the dispatch cost goes. The unit is one
/// σ term, claim or candidate visited, the inner steps of the EM E-step,
/// the one caller that passes an estimate: the sweep below timed only it,
/// so other stages keep dispatching until their own crossover is
/// measured.
///
/// The value comes from a sweep on a shared 4-vCPU host, taken when the
/// E-step walked per-candidate term lists and counted one unit per term
/// or claim; it has not been re-swept in the current units. One EM
/// E-step on the fuse_em shape (150 sources, density 0.05, four feature groups)
/// with 125 to 32,000 objects, median time per round inline and on a
/// 4-thread pool. The host alternates between a fast state, where four
/// threads get four cores, and a slow one, where they share about one.
/// The pool's speed-up over inline:
///
///   work (units)   4.8k   38k   76k  154k  307k  616k  1.2M
///   fast state     0.35  1.04  1.28  1.47  1.73  2.42  2.55
///   slow state     0.24  0.56  0.71  0.83  0.93  0.93  0.95
///
/// 2^18 (262k) is where the pool's worst case, the slow state, comes
/// within about 10% of inline while the fast state gains about 1.7x.
/// Smaller work risks a larger loss (20% at 154k, 41% at 76k) for a
/// smaller gain. A fuse_em E-step (~38k then, ~10k in the current
/// units) runs inline. The pooled side is checked for bits
/// (tests/exec_test.cc, tests/core_em_test.cc) but not yet timed by a
/// benchmark workload.
inline constexpr int64_t kMinParallelWork = int64_t{1} << 18;

/// The work estimate of a dispatch that always reaches the pool: coarse
/// loops (synthetic replicas, eval grid cells, serve shards), each of
/// whose items is heavy enough on its own, and stages whose crossover
/// has not been measured (the batch-ERM epoch, delta compilation). The
/// default of every dispatch below.
inline constexpr int64_t kCoarseWork = std::numeric_limits<int64_t>::max();

/// Splits [0, n) into min(n, num_shards) contiguous shards whose sizes
/// differ by at most one, preserving index order across shards (shard 0
/// holds the lowest indices). n == 0 yields no shards.
std::vector<ShardRange> StaticShards(int64_t n, int32_t num_shards);

/// Shard count for DeterministicReduce/ParallelFor over `n` items:
/// min(n, kFixedShardCount), independent of the executor's thread count.
int32_t FixedShardCount(int64_t n);

/// Dispatches shards onto a fixed ThreadPool (or inline when serial, or
/// when the work is below kMinParallelWork).
///
/// Construction is always cheap: the pool is spawned lazily on the first
/// multi-shard RunShards call that dispatches, so a parallel-capable
/// Executor handed to a fully serial pipeline (SGD learning + exact
/// inference), or to one whose stages are all small, never starts a
/// thread. The Executor is the single knob the layers above share:
/// the learners, delta compilation, the synthetic generator, and the eval
/// harness all take an `Executor*` and treat nullptr as serial with the
/// *same* shard structure, so thread count never changes results.
///
/// An Executor is driven from one thread at a time (shard bodies run on
/// its workers, but RunShards itself is not re-entrant).
class Executor {
 public:
  /// A serial executor (1 thread, no pool).
  Executor() : threads_(1) {}

  /// Resolves `options` (see ResolveThreads); the worker pool is created
  /// on first use.
  explicit Executor(const ExecOptions& options);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int32_t threads() const { return threads_; }

  /// Runs body(shard) for every shard in [0, num_shards) and blocks until
  /// all complete. `work` is the caller's estimate of the whole call's
  /// work (see kMinParallelWork); below the constant the shards run
  /// inline, in order. Exceptions thrown by shard bodies are captured; the
  /// one from the lowest-numbered failing shard is rethrown (matching what
  /// a serial in-order run would surface first).
  void RunShards(int32_t num_shards,
                 const std::function<void(int32_t)>& body,
                 int64_t work = kCoarseWork);

  /// Whether a dispatch has started the worker pool.
  bool pool_started() const { return pool_ != nullptr; }

 private:
  int32_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily; null while serial
};

/// Runs `body(shard)` over every shard, inline when `exec` is null or
/// `work` is below kMinParallelWork.
void RunSharded(Executor* exec, int32_t num_shards,
                const std::function<void(int32_t)>& body,
                int64_t work = kCoarseWork);

/// Element-wise parallel loop over [0, n) with static contiguous sharding.
/// `fn(i)` must be independent across i (no shared mutable state). `work`
/// estimates the whole loop, as for RunShards.
void ParallelFor(Executor* exec, int64_t n,
                 const std::function<void(int64_t)>& fn,
                 int64_t work = kCoarseWork);

/// Deterministic parallel reduction over [0, n).
///
/// The range is cut into FixedShardCount(n) contiguous shards; each shard
/// gets its own accumulator (a copy of `init`) filled by
/// `body(range, &acc)`, and the per-shard accumulators are folded with
/// `combine(&total, shard_acc)` in ascending shard order. Because both the
/// shard structure and the combine order depend only on n, the result is
/// bit-identical for every thread count, including serial (exec == null),
/// and whether `work` sends the shards to the pool or keeps them inline.
template <typename Acc, typename Body, typename Combine>
Acc DeterministicReduce(Executor* exec, int64_t n, const Acc& init,
                        const Body& body, const Combine& combine,
                        int64_t work = kCoarseWork) {
  const std::vector<ShardRange> shards = StaticShards(n, FixedShardCount(n));
  if (shards.empty()) return init;
  std::vector<Acc> partial(shards.size(), init);
  RunSharded(
      exec, static_cast<int32_t>(shards.size()),
      [&](int32_t s) {
        body(shards[static_cast<size_t>(s)],
             &partial[static_cast<size_t>(s)]);
      },
      work);
  Acc total = init;
  for (size_t s = 0; s < partial.size(); ++s) {
    combine(&total, partial[s]);
  }
  return total;
}

}  // namespace slimfast

#endif  // SLIMFAST_EXEC_PARALLEL_H_
