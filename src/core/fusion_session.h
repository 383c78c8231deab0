#ifndef SLIMFAST_CORE_FUSION_SESSION_H_
#define SLIMFAST_CORE_FUSION_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_instance.h"
#include "core/options.h"
#include "core/slimfast.h"
#include "core/snapshot.h"
#include "data/feature_space.h"
#include "data/observation_store.h"
#include "exec/parallel.h"
#include "util/result.h"

namespace slimfast {

/// Configuration of a long-lived incremental fusion session.
struct FusionSessionOptions {
  /// Model, learner, and execution configuration shared with the batch
  /// facade. `exec.threads` sizes the session's executor, which shards
  /// relearning.
  SlimFastOptions slimfast;
  /// Session name: the facade's method name and the name of the empty
  /// dataset the session compiles at Create.
  std::string name = "fusion-session";
  /// Seed for every relearn, so a session's trajectory is a pure function
  /// of its ingest sequence.
  uint64_t seed = 42;
  /// Relearns after the first seed from the previous weight vector and run
  /// the warm refinement schedule (`slimfast.warm_start` tuning knobs;
  /// its `enabled` flag is set by the session from this switch). Off =
  /// every relearn is a cold fit, for A/B comparison.
  bool warm_start = true;
};

/// Per-ingest timing and size statistics.
struct IngestStats {
  int64_t batch_observations = 0;
  int64_t batch_truths = 0;
  /// Wall-clock of the store splice + delta compilation.
  double seconds = 0.0;
};

/// Per-relearn statistics.
struct RelearnStats {
  Algorithm algorithm_used = Algorithm::kErm;
  /// True when this relearn refined the previous weights on the short
  /// schedule (false for the first fit and when warm_start is off).
  bool warm_started = false;
  int32_t num_train_objects = 0;
  double seconds = 0.0;
  /// Learner iterations actually run (ERM epochs or EM iterations).
  int32_t learn_iterations = 0;
  /// Whether the learner met its tolerance before exhausting its budget.
  bool learn_converged = false;
  /// The learner's final objective (see SlimFastFit::learn_objective).
  double learn_objective = 0.0;
};

/// A long-lived incremental fusion engine: `Ingest(batch)` absorbs new
/// observations by delta-compiling the instance, `Relearn()` refines the
/// model from the previous weights on a short schedule, and
/// `Query(object)` serves the current estimate — the serving-path
/// counterpart of the one-shot `SlimFast::Run`.
///
/// The session's one copy of its history is a single `CompiledInstance`,
/// kept alive across its life: its `ObservationStore` holds every
/// ingested claim, domain and truth. Each ingest extends it through
/// `DeltaCompile`: the store splice of `ObservationStore::AppendBatch`
/// plus the linear derive pass a full compile runs (claim candidates,
/// offsets). The parameter structure and every trust-score expression
/// carry over, since new claims change neither, so the result is
/// bitwise-equal to recompiling the concatenated history from scratch by
/// construction (asserted in tests and re-checked by `slimfast_cli
/// replay`). Relearning hands that instance, and nothing else, to
/// `SlimFast::FitCompiled`, warm-starting from the previous fit and
/// cutting the epoch budget to `WarmStartOptions::budget_scale` of a
/// cold run.
///
/// Determinism: with a fixed options seed, the sequence of predictions is
/// a pure function of the ingest sequence — relearning inherits the exec
/// layer's fixed-shard reduce, so `exec.threads` never changes any
/// estimate.
///
/// The session is single-threaded from the caller's perspective (like an
/// `Executor`, it is driven from one thread; internal stages fan out).
class FusionSession {
 public:
  /// Creates a session over a fixed id universe (the dimensions every
  /// batch is validated against) with optional per-source features.
  /// `features` must be sized to `num_sources` (or default-constructed,
  /// which the session resizes). The initial instance is the compiled
  /// empty dataset; the first Ingest is already a delta.
  static Result<FusionSession> Create(int32_t num_sources,
                                      int32_t num_objects,
                                      int32_t num_values,
                                      FusionSessionOptions options = {},
                                      FeatureSpace features = FeatureSpace());

  /// The relearned-model state and lifetime counters of a session —
  /// everything a checkpoint must carry beyond the observation store for
  /// Restore() to resume the exact warm-start trajectory (the next
  /// relearn refines `weights`, and `num_ingested_batches` keeps the
  /// serving layer's every-K relearn phase aligned). Plain vectors of
  /// primitives so the storage layer can serialize it without knowing
  /// any model type. Wall-clock fields are deliberately excluded.
  struct State {
    /// Learned model weights — the warm-start seed of the next relearn
    /// (empty until the first relearn; layout is learner-defined).
    std::vector<double> weights;
    /// Per-object MAP estimates (kNoValue where unknown).
    std::vector<ValueId> predictions;
    /// Per-source accuracy estimates of the last relearn.
    std::vector<double> source_accuracies;
    /// CSR-style offsets into posterior_values/posterior_probs: object
    /// o's posterior spans [posterior_begin[o], posterior_begin[o+1]).
    std::vector<int64_t> posterior_begin;
    /// Candidate values, concatenated per object (see posterior_begin).
    std::vector<ValueId> posterior_values;
    /// Posterior probabilities, parallel to posterior_values.
    std::vector<double> posterior_probs;
    /// Per-object top posterior probability (0 where unknown).
    std::vector<double> max_posterior;
    /// Batches ingested over the session's lifetime (keeps the serving
    /// layer's every-K relearn phase aligned across Restore()).
    int32_t num_ingested_batches = 0;
    /// Relearns completed over the session's lifetime.
    int32_t num_relearns = 0;
    /// Batches ingested since the last relearn (unabsorbed evidence).
    int32_t pending_batches = 0;

    bool operator==(const State&) const = default;
  };

  /// Copies out the session's current State (see State).
  State ExportState() const;

  /// Rebuilds a session from a checkpointed store + State so that every
  /// subsequent Ingest/Relearn/Query is bit-identical to the session
  /// that exported them: Create, then one DeltaCompile of the store's
  /// claims (in canonical order) and truths. The result must round-trip
  /// to a store equal to `store` (learning depends only on per-object
  /// claim order, which canonical order preserves) — Internal if not.
  /// InvalidArgument on a structurally inconsistent `state`; AlreadyExists
  /// when the store repeats a (source, object) pair.
  static Result<FusionSession> Restore(const ObservationStore& store,
                                       State state,
                                       FusionSessionOptions options = {},
                                       FeatureSpace features = FeatureSpace());

  /// Absorbs one batch: validates it, splices the columnar store, and
  /// re-derives the instance's scoring arrays (DeltaCompile). On error the
  /// session is unchanged. Does not relearn — callers batch several
  /// ingests per relearn under heavy traffic.
  Result<IngestStats> Ingest(const ObservationBatch& batch);

  /// Refits the model on the live instance: `SlimFast::FitCompiled` over
  /// `instance()`, with every object whose truth the store holds as
  /// training data (ascending). Warm-starts from the previous weights
  /// when enabled. FailedPrecondition while the store holds no claims.
  Result<RelearnStats> Relearn();

  /// Current estimate for `object`: the last relearned model's MAP value,
  /// or kNoValue when the object has no observations (or nothing has been
  /// relearned yet).
  ValueId Query(ObjectId object) const;

  /// Point-in-time session counters — the operational telemetry a
  /// serving layer exports (FusionService stats, the serve line
  /// protocol, loadgen reports). Reading them is cheap and allocation-
  /// free; like every other session call they must be made from the one
  /// thread driving the session.
  struct Stats {
    /// Wall-clock seconds of the most recent Relearn() call; 0.0 before
    /// the first relearn.
    double last_relearn_seconds = 0.0;
    /// Batches ingested since the last relearn — the staleness the next
    /// Relearn() will absorb. Every Ingest() increments it; every
    /// successful Relearn() resets it to 0.
    int32_t pending_batches = 0;
    /// Completed relearns over the session's lifetime.
    int32_t num_relearns = 0;
    /// Ingested batches over the session's lifetime.
    int32_t num_ingested_batches = 0;
    /// Observations accumulated over the session's lifetime.
    int64_t num_observations = 0;
  };

  /// Current counters (see Stats for field semantics).
  Stats stats() const;

  /// Packages the session's current state as an immutable snapshot:
  /// predictions, per-object posteriors and confidence, source
  /// accuracies, weights, claim counts, and identity (version = relearn
  /// count, store fingerprint). Before the first relearn the snapshot
  /// carries evidence counts but no model (has_model() is false).
  ///
  /// The snapshot shares nothing mutable with the session — publishing
  /// it to concurrent readers (the FusionService's atomic slot swap) is
  /// safe while the session keeps ingesting and relearning.
  FusionSnapshotPtr ExportSnapshot() const;

  /// All current estimates, indexed by object (kNoValue where unknown).
  const std::vector<ValueId>& predictions() const { return predictions_; }

  /// Source-accuracy estimates of the last relearned model (empty before
  /// the first relearn).
  const std::vector<double>& source_accuracies() const {
    return source_accuracies_;
  }

  /// Weight vector of the last relearn (empty before the first); the
  /// vector warm starts resume from.
  const std::vector<double>& weights() const { return weights_; }

  /// The live compiled instance (never null after Create).
  const std::shared_ptr<const CompiledInstance>& instance() const {
    return instance_;
  }

  int64_t num_observations() const {
    return instance_->store.num_observations();
  }
  int32_t num_ingested_batches() const { return num_ingested_batches_; }
  int32_t num_relearns() const { return num_relearns_; }
  bool has_model() const { return num_relearns_ > 0; }

 private:
  explicit FusionSession(FusionSessionOptions options);

  /// Recomputes the flattened per-object posteriors (and per-object
  /// confidence) from the freshly fit model; called by Relearn.
  void RefreshPosteriors(const SlimFastModel& model);

  FusionSessionOptions options_;
  int32_t num_sources_ = 0;
  int32_t num_objects_ = 0;
  int32_t num_values_ = 0;

  std::unique_ptr<Executor> exec_;
  std::unique_ptr<SlimFast> slimfast_;

  // Everything ingested so far: claims, domains and truth live in its
  // store.
  std::shared_ptr<const CompiledInstance> instance_;

  // Last-relearn outputs.
  std::vector<double> weights_;
  std::vector<ValueId> predictions_;
  std::vector<double> source_accuracies_;

  // Flattened per-object posteriors of the last relearned model (CSR over
  // objects; empty slices for unobserved objects), refreshed by Relearn
  // and copied out by ExportSnapshot.
  std::vector<int64_t> posterior_begin_;
  std::vector<ValueId> posterior_values_;
  std::vector<double> posterior_probs_;
  std::vector<double> max_posterior_;

  int32_t num_ingested_batches_ = 0;
  int32_t num_relearns_ = 0;
  int32_t pending_batches_ = 0;
  double last_relearn_seconds_ = 0.0;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_FUSION_SESSION_H_
