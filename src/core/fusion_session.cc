#include "core/fusion_session.h"

#include <algorithm>
#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace slimfast {

FusionSession::FusionSession(FusionSessionOptions options)
    : options_(std::move(options)) {}

Result<FusionSession> FusionSession::Create(int32_t num_sources,
                                            int32_t num_objects,
                                            int32_t num_values,
                                            FusionSessionOptions options,
                                            FeatureSpace features) {
  if (num_sources < 0 || num_objects < 0 || num_values < 1) {
    return Status::InvalidArgument(
        "session dimensions must be non-negative (num_values >= 1)");
  }
  if (features.num_sources() == 0 && num_sources > 0) {
    features = FeatureSpace(num_sources);
  }
  if (features.num_sources() != num_sources) {
    return Status::InvalidArgument(
        "feature space is sized for " +
        std::to_string(features.num_sources()) + " sources, session has " +
        std::to_string(num_sources));
  }
  if (options.slimfast.model.use_copying_features) {
    // DeltaCompile rejects the copying extension (pair selection is a
    // global scan), so every Ingest of such a session would fail; fail
    // here, next to the misconfiguration, instead.
    return Status::InvalidArgument(
        "FusionSession does not support the copying extension: delta "
        "compilation cannot maintain globally selected copy pairs");
  }
  // The facade's warm-start switch mirrors the session-level one.
  options.slimfast.warm_start.enabled = options.warm_start;

  FusionSession session(std::move(options));
  session.num_sources_ = num_sources;
  session.num_objects_ = num_objects;
  session.num_values_ = num_values;
  session.exec_ =
      std::make_unique<Executor>(session.options_.slimfast.exec);
  session.slimfast_ = std::make_unique<SlimFast>(session.options_.slimfast,
                                                 session.options_.name);

  // Compile the empty universe once; every Ingest (including the first)
  // is then a uniform delta step.
  DatasetBuilder builder(session.options_.name, num_sources, num_objects,
                         num_values);
  *builder.mutable_features() = std::move(features);
  SLIMFAST_ASSIGN_OR_RETURN(Dataset empty, std::move(builder).Build());
  SLIMFAST_ASSIGN_OR_RETURN(
      session.instance_,
      CompileInstance(empty, session.options_.slimfast.model));
  return session;
}

FusionSession::State FusionSession::ExportState() const {
  State state;
  state.weights = weights_;
  state.predictions = predictions_;
  state.source_accuracies = source_accuracies_;
  state.posterior_begin = posterior_begin_;
  state.posterior_values = posterior_values_;
  state.posterior_probs = posterior_probs_;
  state.max_posterior = max_posterior_;
  state.num_ingested_batches = num_ingested_batches_;
  state.num_relearns = num_relearns_;
  state.pending_batches = pending_batches_;
  return state;
}

Result<FusionSession> FusionSession::Restore(const ObservationStore& store,
                                             State state,
                                             FusionSessionOptions options,
                                             FeatureSpace features) {
  if (state.num_ingested_batches < 0 || state.num_relearns < 0 ||
      state.pending_batches < 0 ||
      state.pending_batches > state.num_ingested_batches) {
    return Status::InvalidArgument(
        "restored session counters are inconsistent");
  }
  const size_t num_objects = static_cast<size_t>(store.num_objects());
  if (state.num_relearns > 0) {
    const bool posterior_consistent =
        state.posterior_begin.size() == num_objects + 1 &&
        !state.posterior_begin.empty() &&
        state.posterior_begin.back() ==
            static_cast<int64_t>(state.posterior_values.size()) &&
        state.posterior_values.size() == state.posterior_probs.size();
    if (state.predictions.size() != num_objects ||
        state.max_posterior.size() != num_objects || !posterior_consistent ||
        state.source_accuracies.size() !=
            static_cast<size_t>(store.num_sources())) {
      return Status::InvalidArgument(
          "restored model state is mis-sized for the store's universe");
    }
  } else if (!state.weights.empty() || !state.predictions.empty() ||
             !state.posterior_values.empty()) {
    return Status::InvalidArgument(
        "restored state carries a model but no relearns");
  }

  SLIMFAST_ASSIGN_OR_RETURN(
      FusionSession session,
      Create(store.num_sources(), store.num_objects(), store.num_values(),
             std::move(options), std::move(features)));

  // Re-ingest the claim history, in the store's canonical order, and its
  // truths as one delta. The original arrival order is not preserved (the
  // WAL tail covers anything past the checkpoint), but per-object claim
  // order — the only order compilation and learning observe — is, so the
  // recompiled instance must equal the checkpointed store bit for bit.
  // AppendBatch also rejects a duplicate (source, object) pair, which
  // FromColumns does not check.
  ObservationBatch history;
  history.observations.reserve(static_cast<size_t>(store.num_observations()));
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    const IndexRange claims = store.ObjectRange(o);
    for (int64_t i = claims.begin; i < claims.end; ++i) {
      const size_t k = static_cast<size_t>(i);
      history.observations.push_back(
          Observation{o, store.sources()[k], store.values()[k]});
    }
  }
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    if (store.HasTruth(o)) {
      history.truths.push_back(
          TruthLabel{o, store.truth()[static_cast<size_t>(o)]});
    }
  }
  SLIMFAST_ASSIGN_OR_RETURN(session.instance_,
                            DeltaCompile(*session.instance_, history));
  if (!(session.instance_->store == store)) {
    return Status::Internal(
        "restored instance does not round-trip the checkpointed store "
        "(recompiled fingerprint " +
        std::to_string(session.instance_->store.content_fingerprint()) +
        " vs " + std::to_string(store.content_fingerprint()) + ")");
  }

  session.weights_ = std::move(state.weights);
  session.predictions_ = std::move(state.predictions);
  session.source_accuracies_ = std::move(state.source_accuracies);
  session.posterior_begin_ = std::move(state.posterior_begin);
  session.posterior_values_ = std::move(state.posterior_values);
  session.posterior_probs_ = std::move(state.posterior_probs);
  session.max_posterior_ = std::move(state.max_posterior);
  session.num_ingested_batches_ = state.num_ingested_batches;
  session.num_relearns_ = state.num_relearns;
  session.pending_batches_ = state.pending_batches;
  return session;
}

Result<IngestStats> FusionSession::Ingest(const ObservationBatch& batch) {
  obs::TraceSpan span("core.ingest");
  Stopwatch watch;
  // DeltaCompile validates the batch via AppendBatch and leaves the
  // session untouched on failure; the counters below only advance once
  // the new instance exists.
  SLIMFAST_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledInstance> next,
                            DeltaCompile(*instance_, batch));
  instance_ = std::move(next);
  ++num_ingested_batches_;
  ++pending_batches_;

  IngestStats stats;
  stats.batch_observations =
      static_cast<int64_t>(batch.observations.size());
  stats.batch_truths = static_cast<int64_t>(batch.truths.size());
  stats.seconds = watch.ElapsedSeconds();
  if (obs::Enabled()) {
    static obs::LatencyHistogram* delta_hist =
        obs::GetHistogram("slimfast_core_delta_compile_seconds");
    delta_hist->RecordSeconds(stats.seconds);
  }
  return stats;
}

Result<RelearnStats> FusionSession::Relearn() {
  const ObservationStore& store = instance_->store;
  if (store.num_observations() == 0) {
    return Status::FailedPrecondition(
        "nothing ingested yet: Ingest at least one observation before "
        "relearning");
  }
  obs::TraceSpan span("core.relearn");
  Stopwatch watch;

  // Every object with ingested truth is training data, ascending; the
  // session has no held-out split of its own (evaluation against withheld
  // truth is the caller's concern, e.g. `slimfast_cli replay`).
  TrainTestSplit split;
  split.is_train.assign(static_cast<size_t>(num_objects_), 0);
  for (ObjectId o = 0; o < num_objects_; ++o) {
    if (!store.HasTruth(o)) continue;
    split.train_objects.push_back(o);
    split.is_train[static_cast<size_t>(o)] = 1;
  }

  const bool warm = options_.warm_start && has_model();
  SLIMFAST_ASSIGN_OR_RETURN(
      SlimFastFit fit,
      slimfast_->FitCompiled(split, options_.seed, instance_,
                             warm ? &weights_ : nullptr, exec_.get()));

  weights_ = fit.model.weights();
  predictions_ = fit.model.PredictAll();
  source_accuracies_ = fit.model.AllSourceAccuracies();
  RefreshPosteriors(fit.model);
  ++num_relearns_;
  pending_batches_ = 0;

  RelearnStats stats;
  stats.algorithm_used = fit.algorithm_used;
  stats.warm_started = fit.warm_started;
  stats.num_train_objects =
      static_cast<int32_t>(split.train_objects.size());
  stats.seconds = watch.ElapsedSeconds();
  stats.learn_iterations = fit.learn_iterations;
  stats.learn_converged = fit.learn_converged;
  stats.learn_objective = fit.learn_objective;
  if (obs::Enabled()) {
    static obs::LatencyHistogram* relearn_hist =
        obs::GetHistogram("slimfast_core_relearn_seconds");
    relearn_hist->RecordSeconds(stats.seconds);
  }
  last_relearn_seconds_ = stats.seconds;
  return stats;
}

void FusionSession::RefreshPosteriors(const SlimFastModel& model) {
  posterior_begin_.assign(static_cast<size_t>(num_objects_) + 1, 0);
  posterior_values_.clear();
  posterior_probs_.clear();
  max_posterior_.assign(static_cast<size_t>(num_objects_), 0.0);
  const ObservationStore& store = model.instance().store;
  const std::vector<double> sigma = model.TrustScores();
  std::vector<double> probs;
  for (ObjectId o = 0; o < num_objects_; ++o) {
    if (model.Posterior(o, sigma, &probs)) {
      const IndexRange cands = store.DomainRange(o);
      posterior_values_.insert(
          posterior_values_.end(),
          store.domain_values().begin() + cands.begin,
          store.domain_values().begin() + cands.end);
      posterior_probs_.insert(posterior_probs_.end(), probs.begin(),
                              probs.end());
      max_posterior_[static_cast<size_t>(o)] =
          *std::max_element(probs.begin(), probs.end());
    }
    posterior_begin_[static_cast<size_t>(o) + 1] =
        static_cast<int64_t>(posterior_values_.size());
  }
}

FusionSession::Stats FusionSession::stats() const {
  Stats stats;
  stats.last_relearn_seconds = last_relearn_seconds_;
  stats.pending_batches = pending_batches_;
  stats.num_relearns = num_relearns_;
  stats.num_ingested_batches = num_ingested_batches_;
  stats.num_observations = num_observations();
  return stats;
}

FusionSnapshotPtr FusionSession::ExportSnapshot() const {
  auto snapshot = std::make_shared<FusionSnapshot>();
  snapshot->version = num_relearns_;
  snapshot->store_fingerprint = instance_->store.content_fingerprint();
  snapshot->num_sources = num_sources_;
  snapshot->num_objects = num_objects_;
  snapshot->num_values = num_values_;
  snapshot->num_relearns = num_relearns_;
  snapshot->num_ingested_batches = num_ingested_batches_;
  snapshot->num_observations = num_observations();
  snapshot->predictions = predictions_;
  snapshot->max_posterior = max_posterior_;
  snapshot->posterior_begin = posterior_begin_;
  snapshot->posterior_values = posterior_values_;
  snapshot->posterior_probs = posterior_probs_;
  snapshot->source_accuracies = source_accuracies_;
  snapshot->weights = weights_;
  const std::vector<int64_t>& offsets = instance_->store.object_offsets();
  snapshot->claim_counts.resize(static_cast<size_t>(num_objects_));
  for (size_t o = 0; o < snapshot->claim_counts.size(); ++o) {
    snapshot->claim_counts[o] =
        static_cast<int32_t>(offsets[o + 1] - offsets[o]);
  }
  return snapshot;
}

ValueId FusionSession::Query(ObjectId object) const {
  if (object < 0 || object >= num_objects_) return kNoValue;
  if (predictions_.empty()) return kNoValue;
  return predictions_[static_cast<size_t>(object)];
}

}  // namespace slimfast
