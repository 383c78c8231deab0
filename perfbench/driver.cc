// Benchmark driver: generates one workload's inputs from a seed, runs
// it against the slimfast library (offline fusion) or a `slimfast_cli
// serve` child process (serving), checks every output, and prints one
// JSON record on its last line. perfbench/run.py builds this binary,
// runs it, and turns the record into the benchmark's result line; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                        --dir WORKDIR --cli PATH [--tiny] [--corrupt]
//   perfbench_driver cold DIR TRAIN_FRACTION SPLIT_SEED SEED
//                        (one fusion in a fresh process; prints "done")

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/majority.h"
#include "child.h"
#include "common.h"
#include "core/compiled_instance.h"
#include "core/erm.h"
#include "core/optimizer.h"
#include "core/slimfast.h"
#include "data/io.h"
#include "data/observation_store.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "exec/parallel.h"
#include "exec/sharded_rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fusion_service.h"
#include "serve/line_protocol.h"
#include "simd/simd.h"
#include "synth/synthetic.h"
#include "util/random.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using slimfast::Dataset;
using slimfast::ObjectId;
using slimfast::ObservationBatch;
using slimfast::ValueId;

constexpr int kFuseThreads = 4;

/// A fusion's or a commit's end-to-end latency is this percentile of the
/// run's per-operation times, and every throughput the complementary
/// percentile of per-operation or per-window rates. The shared host the
/// benchmark was tuned on switches between a fast and a contended speed
/// in streaks of seconds: a median falls between the two and moves with
/// the share of the run spent in each, while the contended speed holds
/// from run to run.
constexpr double kTailPercentile = 90.0;

struct Args {
  std::string workload;
  std::string dir;
  std::string cli;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
};

/// Workload sizes. The full sizes keep one run inside the benchmark's
/// time budget; the tiny sizes are for the self-test.
struct Sizes {
  int32_t sources = 150;
  int32_t objects = 0;
  double density = 0.05;
  int32_t feature_groups = 4;
  double feature_effect = 0.1;
  double train_fraction = 0.7;
  // serve_read
  double open_rate = 20000.0;  // lines/s, well below saturation
  size_t in_flight = 1024;     // pipelined phase cap on lines in flight
  // serve_ingest
  int32_t batches = 0;
  int32_t tail = 0;
  int32_t queries_per_batch = 8;
};

Sizes SizesFor(const std::string& workload, bool tiny) {
  Sizes s;
  if (workload == "fuse_em") {
    // Already small; fewer objects would leave a handful of labels, a
    // regime where EM loses to MajorityVote (see the README).
    s.objects = 1000;
    s.train_fraction = 0.01;
  } else if (workload == "fuse_erm") {
    s.objects = tiny ? 1500 : 4000;
  } else if (workload == "serve_read") {
    // The features are compiled and learned but do not move the true
    // accuracies, so one seed's instance is about as hard as another's.
    s.objects = tiny ? 1500 : 20000;
    s.feature_effect = 0.0;
  } else {  // serve_ingest: sources only, the model of a `--dims` service
    s.objects = tiny ? 300 : 3000;
    s.feature_groups = 0;
    s.batches = tiny ? 12 : 96;
    s.tail = tiny ? 2 : 8;
  }
  return s;
}

slimfast::SyntheticConfig SynthConfig(const Sizes& s) {
  slimfast::SyntheticConfig config;
  config.name = "perfbench";
  config.num_sources = s.sources;
  config.num_objects = s.objects;
  config.density = s.density;
  config.num_feature_groups = s.feature_groups;
  config.values_per_group = 8;
  config.feature_effect = s.feature_effect;
  return config;
}

/// A copy of `dataset` whose ground truth is kept only on `objects` —
/// what a serving deployment knows.
Dataset WithTruthOn(const Dataset& dataset,
                    const std::vector<ObjectId>& objects) {
  slimfast::DatasetBuilder builder(dataset.name(), dataset.num_sources(),
                                   dataset.num_objects(),
                                   dataset.num_values());
  *builder.mutable_features() = dataset.features();
  for (const slimfast::Observation& o : dataset.observations()) {
    SLIMFAST_CHECK_OK(builder.AddObservation(o.object, o.source, o.value));
  }
  for (ObjectId o : objects) {
    if (dataset.HasTruth(o)) {
      SLIMFAST_CHECK_OK(builder.SetTruth(o, dataset.Truth(o)));
    }
  }
  return std::move(builder).Build().ValueOrDie();
}

/// The observations and truth labels of objects [begin, end) of
/// `dataset`, over the same universe.
Dataset Restrict(const Dataset& dataset, ObjectId begin, ObjectId end) {
  slimfast::DatasetBuilder builder(dataset.name(), dataset.num_sources(),
                                   dataset.num_objects(),
                                   dataset.num_values());
  *builder.mutable_features() = dataset.features();
  for (const slimfast::Observation& o : dataset.observations()) {
    if (o.object >= begin && o.object < end) {
      SLIMFAST_CHECK_OK(builder.AddObservation(o.object, o.source, o.value));
    }
  }
  for (ObjectId o = begin; o < end; ++o) {
    if (dataset.HasTruth(o)) {
      SLIMFAST_CHECK_OK(builder.SetTruth(o, dataset.Truth(o)));
    }
  }
  return std::move(builder).Build().ValueOrDie();
}

bool InDomain(const Dataset& dataset, ObjectId object, ValueId value) {
  const auto& domain = dataset.DomainOf(object);
  return std::find(domain.begin(), domain.end(), value) != domain.end();
}

/// Turns the benchmark's spans and the library's own trace spans on or
/// off together.
void SetTracing(Tracer& tracer, bool on) {
  tracer.on = on;
  if (on) {
    slimfast::obs::TraceRecorder::Global().Enable();
  } else {
    slimfast::obs::TraceRecorder::Global().Disable();
  }
}

/// Peak RSS of this process since the last ResetPeakRss(), in MiB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

// ---------------------------------------------------------------------
// Offline fusion: dataset files on disk -> predictions and source
// accuracies in memory, one public call per layer.

struct FuseOut {
  Dataset dataset;  // the loaded input, for evaluation after timing
  slimfast::TrainTestSplit split;
  std::vector<ValueId> predictions;
  std::vector<double> accuracies;
  bool em = false;
  int32_t iterations = 0;
  double seconds = 0.0;
  std::string error;
};

FuseOut FuseOnce(const std::string& dir, double train_fraction,
                 uint64_t split_seed, uint64_t seed, slimfast::Executor* exec,
                 Tracer& tracer) {
  using namespace slimfast;
  FuseOut out;
  const int64_t start = NowNs();
  SpanScope root(tracer, "fuse");
  Dataset dataset;
  {
    SpanScope span(tracer, "data.load");
    auto loaded = LoadDataset(dir);
    if (!loaded.ok()) {
      out.error = loaded.status().ToString();
      return out;
    }
    dataset = std::move(loaded).ValueOrDie();
  }
  TrainTestSplit split;
  {
    SpanScope span(tracer, "data.split");
    Rng rng(split_seed);
    split = MakeSplit(dataset, train_fraction, &rng).ValueOrDie();
  }
  std::shared_ptr<const CompiledInstance> instance;
  {
    SpanScope span(tracer, "core.compile");
    instance = CompileInstance(dataset, ModelConfig{}).ValueOrDie();
  }
  OptimizerDecision decision;
  {
    SpanScope span(tracer, "core.optimizer");
    decision = DecideAlgorithm(dataset, split,
                               instance->model->layout.num_params,
                               OptimizerOptions{});
  }
  SlimFastOptions options;
  options.algorithm = decision.algorithm;
  std::optional<SlimFastFit> fitted;
  {
    SpanScope span(tracer, "core.learn");
    auto result = SlimFast(options).FitCompiled(dataset, split, seed,
                                                instance, nullptr, exec);
    if (!result.ok()) {
      out.error = result.status().ToString();
      return out;
    }
    fitted.emplace(std::move(result).ValueOrDie());
  }
  const SlimFastFit& fit = *fitted;
  {
    // Inference as SlimFast::Run does it: MAP values, source
    // accuracies, and the Definition 7 calibration pass after ERM.
    SpanScope span(tracer, "core.infer");
    out.predictions = fit.model.PredictAll();
    out.accuracies = fit.model.AllSourceAccuracies();
    if (fit.algorithm_used == Algorithm::kErm &&
        !split.train_objects.empty()) {
      SlimFastModel calibrated(fit.model.shared_compiled());
      calibrated.SetWeights(fit.model.weights());
      ErmOptions calibration = options.erm;
      calibration.loss = ErmLoss::kAccuracyLogLoss;
      calibration.batch = false;
      calibration.epochs = std::max<int32_t>(30, calibration.epochs / 2);
      auto examples =
          ErmLearner::ObservationExamples(dataset, split.train_objects);
      Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
      if (ErmLearner(calibration)
              .FitAccuracyLoss(examples, &calibrated, &rng,
                               fit.instance.get())
              .ok()) {
        out.accuracies = calibrated.AllSourceAccuracies();
      }
    }
  }
  out.em = fit.algorithm_used == Algorithm::kEm;
  out.iterations = fit.learn_iterations;
  out.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  out.dataset = std::move(dataset);
  out.split = std::move(split);
  return out;
}

/// Learn-stage seconds of one FitCompiled at `threads` threads; its
/// predictions land in `predictions`.
double TimeLearn(const Dataset& dataset,
                 const slimfast::TrainTestSplit& split, uint64_t seed,
                 int threads, std::vector<ValueId>* predictions) {
  using namespace slimfast;
  auto instance = CompileInstance(dataset, ModelConfig{}).ValueOrDie();
  const OptimizerDecision decision = DecideAlgorithm(
      dataset, split, instance->model->layout.num_params, OptimizerOptions{});
  SlimFastOptions options;
  options.algorithm = decision.algorithm;
  ExecOptions exec_options;
  exec_options.threads = threads;
  Executor exec(exec_options);
  const int64_t start = NowNs();
  SlimFastFit fit = SlimFast(options)
                        .FitCompiled(dataset, split, seed, instance, nullptr,
                                     &exec)
                        .ValueOrDie();
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  *predictions = fit.model.PredictAll();
  return seconds;
}

/// Per-layer numbers of the fusion pipeline from traced runs (medians),
/// plus the 1-vs-4-thread learn speed-up on `dir`, whose fusion gave
/// `reference`.
void FuseLayers(const std::string& dir, double train_fraction,
                uint64_t split_seed, uint64_t seed,
                const std::vector<ValueId>& reference,
                const std::vector<std::map<std::string, double>>& per_rep,
                const std::vector<FuseOut>& outs, Record& rec) {
  auto median_of = [&](const char* name) {
    std::vector<double> v;
    for (const auto& m : per_rep) {
      auto it = m.find(name);
      v.push_back(it == m.end() ? 0.0 : it->second);
    }
    return Median(v);
  };
  std::vector<double> iterations;
  std::vector<double> totals;
  bool all_em = true;
  for (const FuseOut& o : outs) {
    iterations.push_back(o.iterations);
    totals.push_back(o.seconds);
    all_em = all_em && o.em;
  }
  const double load = median_of("data.load") + median_of("data.split");
  const double compile = median_of("core.compile");
  const double optimizer = median_of("core.optimizer");
  const double learn = median_of("core.learn");
  const double infer = median_of("core.infer");
  const double fuse = Median(totals);
  const double iters = std::max(1.0, Median(iterations));
  rec.Metric("data.load_s", load, "s");
  rec.Metric("core.compile_s", compile, "s");
  rec.Metric("core.optimizer_s", optimizer, "s");
  rec.Metric("core.optimizer.em", all_em && !outs.empty() ? 1 : 0, "count");
  rec.Metric("core.learn_s", learn, "s");
  rec.Metric("core.learn.iterations", iters, "count");
  rec.Metric("core.learn.s_per_iter", learn / iters, "s");
  rec.Metric("core.infer_s", infer, "s");
  rec.Metric("core.fuse_s", fuse, "s");
  rec.Metric("core.layers_frac",
             fuse > 0 ? (load + compile + optimizer + learn + infer) / fuse
                      : 0.0,
             "frac");

  // Thread scaling of the learner, and the thread-count invariance
  // contract: 1 and 4 threads must give identical predictions.
  Dataset dataset = slimfast::LoadDataset(dir).ValueOrDie();
  slimfast::Rng rng(split_seed);
  auto split = slimfast::MakeSplit(dataset, train_fraction, &rng).ValueOrDie();
  std::vector<ValueId> p1;
  std::vector<ValueId> p4;
  const double t1 = TimeLearn(dataset, split, seed, 1, &p1);
  const double t4 = TimeLearn(dataset, split, seed, kFuseThreads, &p4);
  rec.Check(p1 == reference && p4 == reference,
            "learn results differ between 1 and 4 threads");
  rec.Metric("exec.learn_speedup_4t", t4 > 0 ? t1 / t4 : 0.0, "x");
}

// ---------------------------------------------------------------------
// Serving: the in-process twin (oracle and layer probe) and the client
// of a real `slimfast_cli serve` process.

std::string QueryLine(ObjectId o) { return "QUERY " + std::to_string(o) + "\n"; }
std::string PosteriorLine(ObjectId o) {
  return "POSTERIOR " + std::to_string(o) + "\n";
}

slimfast::FusionServiceOptions ServiceOptions(uint64_t seed,
                                              int32_t relearn_every,
                                              const std::string& wal_dir) {
  slimfast::FusionServiceOptions options;
  options.num_shards = 4;
  options.relearn_every_batches = relearn_every;
  options.session.seed = seed;
  options.shard_exec.threads = 1;
  options.durability.wal_dir = wal_dir;
  options.durability.wal.fsync = slimfast::WalFsync::kEveryBatch;
  return options;
}

/// The stream a serve workload feeds its server, as protocol text.
struct IngestBatch {
  std::string lines;  // OBS and TRUTH lines
  int64_t num_lines = 0;
  int64_t observations = 0;
  std::vector<ObjectId> queries;  // QUERY lines sent while it relearns
};

std::vector<IngestBatch> MakeIngestStream(const Dataset& served,
                                          const Sizes& sizes, uint64_t seed) {
  std::vector<IngestBatch> stream;
  slimfast::Rng rng(seed);
  for (const ObservationBatch& batch :
       slimfast::ChunkDatasetForReplay(served, sizes.batches)) {
    IngestBatch b;
    for (const auto& o : batch.observations) {
      b.lines += "OBS " + std::to_string(o.object) + " " +
                 std::to_string(o.source) + " " + std::to_string(o.value) +
                 "\n";
    }
    for (const auto& t : batch.truths) {
      b.lines += "TRUTH " + std::to_string(t.object) + " " +
                 std::to_string(t.value) + "\n";
    }
    b.num_lines = batch.size();
    b.observations = static_cast<int64_t>(batch.observations.size());
    for (int q = 0; q < sizes.queries_per_batch; ++q) {
      b.queries.push_back(static_cast<ObjectId>(
          rng.Uniform() * static_cast<double>(served.num_objects())));
    }
    stream.push_back(std::move(b));
  }
  return stream;
}

/// Mean microseconds of HandleLine over `lines` (cycled `reps` times).
double TimeHandleLine(slimfast::LineProtocol& protocol,
                      const std::vector<std::string>& lines, int reps) {
  const int64_t start = NowNs();
  size_t n = 0;
  for (int r = 0; r < reps; ++r) {
    for (const std::string& line : lines) {
      protocol.HandleLine(line);
      ++n;
    }
  }
  return static_cast<double>(NowNs() - start) * 1e-3 /
         static_cast<double>(std::max<size_t>(n, 1));
}

/// In-process replica of what the server computes: the oracle for its
/// replies and, when tracing, the probe for the serve and storage
/// layers. Preloads `served` as one batch (the `--preload` path), then
/// replays `stream`, if given, line by line through the protocol.
struct Twin {
  std::vector<std::string> query_reply;      // per object
  std::vector<std::string> posterior_reply;  // per object
  double query_us = 0.0;                     // HandleLine QUERY mean
  double posterior_us = 0.0;                 // HandleLine POSTERIOR mean
};

Twin RunTwin(const Args& args, const Dataset& served, int32_t relearn_every,
             const std::vector<IngestBatch>* stream, int32_t tail,
             Tracer& tracer, Record& rec) {
  using namespace slimfast;
  Twin twin;
  const std::string wal_dir = args.dir + "/twin-wal";
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  const FusionServiceOptions options =
      ServiceOptions(args.seed, relearn_every, wal_dir);
  const int32_t S = served.num_sources();
  const int32_t O = served.num_objects();
  const int32_t V = served.num_values();
  std::unique_ptr<FusionService> service;
  {
    SpanScope span(tracer, "serve.create");
    service =
        FusionService::Create(S, O, V, options, served.features()).ValueOrDie();
  }
  LineProtocol protocol(service.get());
  const std::string before = protocol.HandleLine("METRICS");
  double checkpoint_s = 0.0;
  int64_t logged = 0;
  {
    SpanScope span(tracer, "serve.submit_drain");
    std::vector<ObservationBatch> all = ChunkDatasetForReplay(served, 1);
    logged += all[0].size();
    rec.Check(service->Submit(std::move(all[0])).ok(), "twin submit failed");
    rec.Check(service->Drain().ok(), "twin drain failed");
  }
  if (stream != nullptr) {
    SpanScope span(tracer, "serve.protocol.stream");
    const int32_t n = static_cast<int32_t>(stream->size());
    for (int32_t b = 0; b < n; ++b) {
      if (b == n - tail) {
        const int64_t t = NowNs();
        rec.Check(protocol.HandleLine("CHECKPOINT") == "OK",
                  "twin CHECKPOINT failed");
        checkpoint_s = static_cast<double>(NowNs() - t) * 1e-9;
      }
      const std::string& text = (*stream)[static_cast<size_t>(b)].lines;
      size_t pos = 0;
      while (pos < text.size()) {
        const size_t nl = text.find('\n', pos);
        protocol.HandleLine(text.substr(pos, nl - pos));
        pos = nl + 1;
      }
      logged += (*stream)[static_cast<size_t>(b)].num_lines;
      rec.Check(protocol.HandleLine("COMMIT").rfind("OK", 0) == 0,
                "twin COMMIT failed");
      rec.Check(protocol.HandleLine("DRAIN") == "OK", "twin DRAIN failed");
    }
  }
  twin.query_reply.resize(static_cast<size_t>(O));
  twin.posterior_reply.resize(static_cast<size_t>(O));
  for (ObjectId o = 0; o < O; ++o) {
    std::string q = QueryLine(o);
    std::string p = PosteriorLine(o);
    q.pop_back();
    p.pop_back();
    twin.query_reply[static_cast<size_t>(o)] = protocol.HandleLine(q);
    twin.posterior_reply[static_cast<size_t>(o)] = protocol.HandleLine(p);
  }
  if (!args.trace) return twin;

  // --- Layer probe (traced runs only). ---
  {
    std::vector<std::string> queries;
    std::vector<std::string> posteriors;
    std::vector<std::string> observations;
    Rng rng(args.seed ^ 0x5bd1e995ULL);
    for (int i = 0; i < 4096; ++i) {
      const auto o = static_cast<ObjectId>(rng.Uniform() * O);
      std::string q = QueryLine(o);
      std::string p = PosteriorLine(o);
      q.pop_back();
      p.pop_back();
      queries.push_back(q);
      posteriors.push_back(p);
      observations.push_back(
          "OBS " + std::to_string(o) + " " +
          std::to_string(static_cast<int>(rng.Uniform() * S)) + " " +
          std::to_string(static_cast<int>(rng.Uniform() * V)));
    }
    SpanScope span(tracer, "serve.protocol.probe");
    twin.query_us = TimeHandleLine(protocol, queries, 16);
    twin.posterior_us = TimeHandleLine(protocol, posteriors, 16);
    // OBS lines only buffer; a throwaway protocol never commits them.
    LineProtocol scratch(service.get());
    rec.Metric("serve.protocol.obs_us",
               TimeHandleLine(scratch, observations, 16), "us");
    rec.Metric("serve.protocol.query_us", twin.query_us, "us");
    rec.Metric("serve.protocol.posterior_us", twin.posterior_us, "us");

    std::vector<ObjectId> objects;
    for (int i = 0; i < 4096; ++i) {
      objects.push_back(static_cast<ObjectId>(rng.Uniform() * O));
    }
    int64_t sink = 0;
    const int reps = 64;
    int64_t t = NowNs();
    for (int r = 0; r < reps; ++r) {
      for (ObjectId o : objects) sink += service->Query(o);
    }
    rec.Metric("serve.snapshot.query_ns",
               static_cast<double>(NowNs() - t) / (reps * 4096.0), "ns");
    std::vector<ValueId> values;
    std::vector<double> probs;
    t = NowNs();
    for (int r = 0; r < reps; ++r) {
      for (ObjectId o : objects) {
        sink += service->QueryPosterior(o, &values, &probs) ? 1 : 0;
      }
    }
    rec.Metric("serve.snapshot.posterior_ns",
               static_cast<double>(NowNs() - t) / (reps * 4096.0), "ns");
    rec.Note("probe_checksum", sink);  // keeps the timed reads alive
  }

  // Durability: checkpoint (unless the stream already took one), a WAL
  // tail, then recovery, which must reproduce every reply bit for bit.
  if (stream == nullptr) {
    SpanScope span(tracer, "serve.checkpoint");
    const int64_t t = NowNs();
    rec.Check(service->Checkpoint().ok(), "twin checkpoint failed");
    checkpoint_s = static_cast<double>(NowNs() - t) * 1e-9;
    // Tail: the truth of two handfuls of unlabeled objects.
    for (int b = 0; b < 2; ++b) {
      ObservationBatch batch;
      for (ObjectId o = b; o < O && batch.truths.size() < 16; o += 7) {
        if (!served.HasTruth(o) && !served.DomainOf(o).empty()) {
          batch.truths.push_back({o, served.DomainOf(o).front()});
        }
      }
      logged += batch.size();
      rec.Check(service->Submit(std::move(batch)).ok(), "twin tail failed");
    }
    rec.Check(service->Drain().ok(), "twin drain failed");
  }
  const std::string after = protocol.HandleLine("METRICS");
  auto delta = [&](const std::string& prefix,
                   const std::vector<std::string>& needles = {}) {
    return ScrapeSum(after, prefix, needles) -
           ScrapeSum(before, prefix, needles);
  };
  const char* stage = "slimfast_serve_stage_seconds_sum";
  rec.Metric("serve.stage.ingest_s", delta(stage, {"stage=\"ingest\""}), "s");
  rec.Metric("serve.stage.relearn_s", delta(stage, {"stage=\"relearn\""}),
             "s");
  rec.Metric("serve.stage.publish_s", delta(stage, {"stage=\"publish\""}),
             "s");
  const char* learn_count = "slimfast_core_learn_seconds_count";
  rec.Metric("core.relearn.erm_count",
             delta(learn_count, {"algorithm=\"erm\""}), "count");
  rec.Metric("core.relearn.em_count", delta(learn_count, {"algorithm=\"em\""}),
             "count");
  const double relearn_sum = delta("slimfast_core_relearn_seconds_sum");
  rec.Metric("core.relearn.learn_frac",
             relearn_sum > 0
                 ? delta("slimfast_core_learn_seconds_sum") / relearn_sum
                 : 0.0,
             "frac");
  rec.Metric("storage.wal.append_s",
             delta("slimfast_storage_wal_append_seconds_sum"), "s");
  rec.Metric("storage.wal.fsync_s",
             delta("slimfast_storage_wal_fsync_seconds_sum"), "s");
  rec.Metric("storage.wal.fsyncs",
             delta("slimfast_storage_wal_fsync_seconds_count"), "count");
  rec.Metric("storage.wal.bytes_per_record",
             delta("slimfast_storage_wal_bytes_written_total") /
                 static_cast<double>(std::max<int64_t>(logged, 1)),
             "B");
  rec.Metric("storage.checkpoint_s", checkpoint_s, "s");

  std::vector<std::string> expected;
  for (ObjectId o = 0; o < O; ++o) {
    std::string q = QueryLine(o);
    q.pop_back();
    expected.push_back(protocol.HandleLine(q));
  }
  service->Stop();
  service.reset();
  const std::string& pre_recover = after;
  int64_t t = NowNs();
  {
    SpanScope span(tracer, "serve.recover");
    service = FusionService::Recover(wal_dir, S, O, V, options,
                                     served.features())
                  .ValueOrDie();
  }
  rec.Metric("storage.recover_s", static_cast<double>(NowNs() - t) * 1e-9,
             "s");
  LineProtocol recovered(service.get());
  const std::string final_dump = recovered.HandleLine("METRICS");
  rec.Metric("storage.replay_s",
             ScrapeSum(final_dump, "slimfast_storage_wal_replay_seconds_sum") -
                 ScrapeSum(pre_recover,
                           "slimfast_storage_wal_replay_seconds_sum"),
             "s");
  rec.Metric("storage.replay.records",
             ScrapeSum(final_dump, "slimfast_storage_wal_replay_records_total") -
                 ScrapeSum(pre_recover,
                           "slimfast_storage_wal_replay_records_total"),
             "count");
  bool same = true;
  for (ObjectId o = 0; o < O; ++o) {
    std::string q = QueryLine(o);
    q.pop_back();
    same = same && recovered.HandleLine(q) == expected[static_cast<size_t>(o)];
  }
  rec.Check(same, "in-process recovery differs from the pre-restart replies");
  return twin;
}

/// Starts `argv` and times spawn -> first reply to `first_line`.
std::unique_ptr<Child> StartServer(const Args& args,
                                   const std::vector<std::string>& argv,
                                   const std::string& first_line,
                                   std::string* reply, double* seconds) {
  auto child = std::make_unique<Child>(argv, args.dir + "/server.log");
  if (!child->ok() || !child->Write(first_line) || !child->ReadLine(reply)) {
    return nullptr;
  }
  *seconds = static_cast<double>(NowNs() - child->start_ns()) * 1e-9;
  return child;
}

/// Ends a session: QUIT, BYE, reap. Returns the server's peak RSS.
double StopServer(Child& child, Record& rec) {
  std::string line;
  rec.Check(child.Write("QUIT\n") && child.ReadLine(&line) && line == "BYE",
            "QUIT not acknowledged");
  child.CloseInput();
  rec.Check(child.Wait() == 0, "server exited with an error");
  return child.peak_rss_mb();
}

/// Pipelined stream: sends lines[i % size] while at most `cap` are in
/// flight, until `max_lines` are sent or `deadline_ns` passes, and hands
/// every reply to `on_reply`. Returns (replies, seconds from first send
/// to last reply).
std::pair<size_t, double> Pipeline(
    Child& child, const std::vector<std::string>& lines, size_t max_lines,
    size_t cap, int64_t deadline_ns,
    const std::function<void(size_t, std::string&)>& on_reply) {
  std::atomic<size_t> sent{0};
  std::atomic<size_t> received{0};
  std::atomic<bool> writer_done{false};
  const int64_t start = NowNs();
  std::thread writer([&] {
    std::string buf;
    size_t i = 0;
    while (i < max_lines && (deadline_ns == 0 || NowNs() < deadline_ns)) {
      const size_t in_flight = i - received.load(std::memory_order_acquire);
      if (in_flight >= cap) {
        std::this_thread::yield();
        continue;
      }
      const size_t n = std::min({cap - in_flight, size_t{128}, max_lines - i});
      buf.clear();
      for (size_t k = 0; k < n; ++k) buf += lines[(i + k) % lines.size()];
      if (!child.Write(buf)) break;
      i += n;
      sent.store(i, std::memory_order_release);
    }
    writer_done.store(true, std::memory_order_release);
  });
  size_t r = 0;
  std::string line;
  for (;;) {
    const bool done = writer_done.load(std::memory_order_acquire);
    if (r < sent.load(std::memory_order_acquire)) {
      if (!child.ReadLine(&line)) break;
      on_reply(r, line);
      received.store(++r, std::memory_order_release);
    } else if (done) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  writer.join();
  return {r, seconds};
}

/// Pipelined QUERY for every object; the replies land in `replies`.
double Sweep(Child& child, int32_t objects, std::vector<std::string>* replies) {
  std::vector<std::string> lines;
  for (ObjectId o = 0; o < objects; ++o) lines.push_back(QueryLine(o));
  replies->assign(static_cast<size_t>(objects), "");
  auto [n, seconds] =
      Pipeline(child, lines, lines.size(), 128, 0,
               [&](size_t i, std::string& reply) { (*replies)[i] = reply; });
  return n == lines.size() ? seconds : -1.0;
}

/// Accuracy of QUERY replies on the objects that carry truth in `full`
/// and, when `held_out`, not in `served` (otherwise only those that do).
double ServedAccuracy(const Dataset& full, const Dataset& served,
                      const std::vector<std::string>& replies,
                      bool held_out) {
  int64_t right = 0;
  int64_t total = 0;
  for (ObjectId o = 0; o < full.num_objects(); ++o) {
    if (!full.HasTruth(o) || served.HasTruth(o) == held_out) continue;
    ++total;
    int value = -1;
    if (std::sscanf(replies[static_cast<size_t>(o)].c_str(), "VALUE %d",
                    &value) == 1 &&
        value == full.Truth(o)) {
      ++right;
    }
  }
  return total > 0 ? static_cast<double>(right) / static_cast<double>(total)
                   : 0.0;
}

/// Served data: the generated instance with truth on a train split only.
struct ServedData {
  Dataset full;
  Dataset served;
  std::string dir;
};

ServedData MakeServed(const Args& args, const Sizes& sizes,
                      const std::string& name) {
  ServedData d;
  d.full = slimfast::GenerateSynthetic(SynthConfig(sizes), args.seed)
               .ValueOrDie()
               .dataset;
  slimfast::Rng rng(args.seed + 1);
  auto split =
      slimfast::MakeSplit(d.full, sizes.train_fraction, &rng).ValueOrDie();
  d.served = WithTruthOn(d.full, split.train_objects);
  d.dir = args.dir + "/" + name;
  fs::create_directories(d.dir);
  SLIMFAST_CHECK_OK(slimfast::SaveDataset(d.served, d.dir));
  return d;
}

/// The data/core layers on a serve workload's data: one traced fusion of
/// the served files (all of their truth labels as training labels).
void PipelineProbe(const Args& args, const ServedData& data, Tracer& tracer,
                   Record& rec) {
  slimfast::ExecOptions exec_options;
  exec_options.threads = kFuseThreads;
  slimfast::Executor exec(exec_options);
  SetTracing(tracer, true);
  const size_t from = tracer.size();
  FuseOut out = FuseOnce(data.dir, 1.0, args.seed, args.seed, &exec, tracer);
  SetTracing(tracer, false);
  rec.Check(out.error.empty(), "pipeline probe failed: " + out.error);
  if (!out.error.empty()) return;
  FuseLayers(data.dir, 1.0, args.seed, args.seed, out.predictions,
             {tracer.SelfSeconds(from)}, {out}, rec);
}

/// Per-line cost of the pipelined stream through the real process, and
/// its transport share (the part HandleLine does not account for).
void TransportMetrics(double line_us, double handle_us, Record& rec) {
  rec.Metric("cli.line_us", line_us, "us");
  rec.Metric("cli.transport_us", line_us - handle_us, "us");
}

std::vector<std::string> ServeArgv(const Args& args,
                                   const std::vector<std::string>& rest,
                                   const std::string& trace_out) {
  std::vector<std::string> argv = {args.cli, "serve"};
  argv.insert(argv.end(), rest.begin(), rest.end());
  argv.insert(argv.end(), {"--threads", "1", "--seed",
                           std::to_string(args.seed)});
  if (!trace_out.empty()) argv.insert(argv.end(), {"--trace-out", trace_out});
  return argv;
}

// ---------------------------------------------------------------------
// Workloads.

/// Writes the input of fuse repetition `j`: a fresh instance for every
/// repetition, since an offline user fuses a dataset once and no cache
/// of an earlier repetition should help a later one.
std::string WriteFuseInput(const Args& args, const Sizes& sizes, int32_t j) {
  const std::string dir = args.dir + "/in" + std::to_string(j);
  if (fs::exists(dir)) return dir;
  auto synth = slimfast::GenerateSynthetic(
                   SynthConfig(sizes),
                   slimfast::ShardedRng::StreamSeed(args.seed, j))
                   .ValueOrDie();
  fs::create_directories(dir);
  SLIMFAST_CHECK_OK(slimfast::SaveDataset(synth.dataset, dir));
  return dir;
}

uint64_t SplitSeed(const Args& args, int32_t j) {
  return slimfast::ShardedRng::StreamSeed(args.seed, 1000000 + j);
}

void RunFuse(const Args& args, Record& rec, Tracer& tracer) {
  const Sizes sizes = SizesFor(args.workload, args.tiny);
  const std::string frac = std::to_string(sizes.train_fraction);
  rec.Note("input.objects", sizes.objects);

  // Set-up: cold start, from process start to the first fusion result
  // (lazy initialisation and cold caches included), on five inputs.
  std::vector<double> setups;
  for (int32_t j = 0; j < 5; ++j) {
    Child cold({"/proc/self/exe", "cold", WriteFuseInput(args, sizes, j), frac,
                std::to_string(SplitSeed(args, j)), std::to_string(args.seed)},
               args.dir + "/cold.log");
    std::string line;
    if (cold.ok() && cold.ReadLine(&line) && line == "done") {
      setups.push_back(static_cast<double>(NowNs() - cold.start_ns()) * 1e-9);
    }
    cold.CloseInput();
    rec.Check(cold.Wait() == 0 && line == "done", "cold-start run failed");
  }

  slimfast::ExecOptions exec_options;
  exec_options.threads = kFuseThreads;
  slimfast::Executor exec(exec_options);
  // Warm-up: thread pool, allocator and page cache. Its result is the
  // reference the first measured repetition (same input) must equal.
  Tracer off;
  const std::string dir0 = WriteFuseInput(args, sizes, 0);
  FuseOut warm = FuseOnce(dir0, sizes.train_fraction, SplitSeed(args, 0),
                          args.seed, &exec, off);
  rec.Check(warm.error.empty(), "fuse failed: " + warm.error);
  if (!warm.error.empty()) return;
  ResetPeakRss();

  std::vector<double> times;
  std::vector<double> traced_times;
  std::vector<FuseOut> traced_outs;
  std::vector<std::map<std::string, double>> traced_layers;
  std::vector<double> rates;  // claims fused per second, per repetition
  double accuracy = 0.0;
  double source_error = 0.0;
  double majority_accuracy = 0.0;
  int32_t below_majority = 0;
  int32_t em = 0;
  int32_t reps = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  // Traced runs alternate untraced and traced repetitions, so the
  // tracing overhead is measured on like inputs.
  for (int32_t j = 0; j < (args.trace ? 4 : 3) || NowNs() < deadline; ++j) {
    const std::string dir = WriteFuseInput(args, sizes, j);
    const bool traced = args.trace && j % 2 == 1;
    SetTracing(tracer, traced);
    const size_t from = tracer.size();
    FuseOut out = FuseOnce(dir, sizes.train_fraction, SplitSeed(args, j),
                           args.seed, &exec, tracer);
    SetTracing(tracer, false);
    if (j > 0) fs::remove_all(dir);
    rec.Check(out.error.empty(), "fuse failed: " + out.error);
    if (!out.error.empty()) continue;
    ++reps;
    if (args.corrupt && j == 0) out.predictions[0] = out.dataset.num_values() + 7;
    const Dataset& data = out.dataset;
    // Every prediction is in its object's domain (kNoValue only for
    // unobserved objects).
    bool in_domain = true;
    for (ObjectId o = 0; o < data.num_objects(); ++o) {
      const ValueId v = out.predictions[static_cast<size_t>(o)];
      in_domain = in_domain && (data.DomainOf(o).empty()
                                    ? v == slimfast::kNoValue
                                    : InDomain(data, o, v));
    }
    rec.Check(in_domain, "prediction outside its object's domain");
    if (j == 0) {
      rec.Check(out.predictions == warm.predictions &&
                    out.accuracies == warm.accuracies,
                "repeated fusion of one input differs");
    }
    // Quality: held-out accuracy against MajorityVote's on the same
    // split, and the paper's Table 3 source-accuracy error.
    const double acc =
        slimfast::TestAccuracy(data, out.predictions, out.split).ValueOr(0.0);
    slimfast::MajorityVote majority;
    const double mv_acc =
        slimfast::TestAccuracy(
            data,
            majority.Run(data, out.split, args.seed).ValueOrDie()
                .predicted_values,
            out.split)
            .ValueOr(1.0);
    below_majority += acc < mv_acc ? 1 : 0;
    accuracy += acc;
    majority_accuracy += mv_acc;
    source_error +=
        slimfast::WeightedSourceAccuracyError(data, out.accuracies)
            .ValueOr(1.0);
    em += out.em ? 1 : 0;
    if (traced) {
      traced_times.push_back(out.seconds);
      traced_layers.push_back(tracer.SelfSeconds(from));
      out.dataset = Dataset();
      traced_outs.push_back(std::move(out));
    } else {
      times.push_back(out.seconds);
      rates.push_back(static_cast<double>(data.num_observations()) /
                      out.seconds);
    }
  }
  // The run's accuracy must reach MajorityVote's on the same inputs;
  // single inputs where it does not are reported, not failed.
  rec.Check(accuracy >= majority_accuracy,
            "accuracy " + std::to_string(accuracy / std::max(reps, 1)) +
                " below MajorityVote " +
                std::to_string(majority_accuracy / std::max(reps, 1)));
  rec.Note("majority_accuracy", majority_accuracy / std::max(reps, 1));
  rec.Note("datasets_below_majority", below_majority);
  const double fuse_s = Median(times);
  rec.Metric("setup_s", Median(setups), "s");
  rec.Metric("latency_ms", Percentile(times, kTailPercentile) * 1e3, "ms");
  rec.Metric("throughput_per_s",
             Percentile(rates, 100.0 - kTailPercentile), "1/s");
  rec.Metric("accuracy", accuracy / std::max(reps, 1), "frac");
  rec.Metric("peak_rss_mb", PeakRssMb(), "MB");
  rec.Note("fuse_s", fuse_s);
  rec.Note("fuse_s.tail", TailText(times, 1.0, "s"));
  rec.Note("source_error", source_error / std::max(reps, 1));
  rec.Note("em_decisions", std::to_string(em) + "/" + std::to_string(reps));
  rec.Note("input.datasets", reps);

  if (!args.trace) return;
  FuseLayers(dir0, sizes.train_fraction, SplitSeed(args, 0), args.seed,
             warm.predictions, traced_layers, traced_outs, rec);
  rec.Metric("obs.trace_overhead",
             fuse_s > 0 ? Median(traced_times) / fuse_s : 0.0, "x");

  // The serve and storage layers on the same data: the in-process twin
  // over input 0 with its train labels, and the per-line cost of a real
  // server holding it.
  ServedData data;
  data.served = WithTruthOn(warm.dataset, warm.split.train_objects);
  data.dir = args.dir + "/served";
  fs::create_directories(data.dir);
  SLIMFAST_CHECK_OK(slimfast::SaveDataset(data.served, data.dir));
  Twin twin = RunTwin(args, data.served, 2, nullptr, 0, tracer, rec);
  std::string reply;
  double setup = 0.0;
  auto server = StartServer(
      args, ServeArgv(args, {data.dir, "--preload"}, ""), "STATS\n", &reply,
      &setup);
  rec.Check(server != nullptr, "server did not start");
  if (server == nullptr) return;
  const int32_t objects = data.served.num_objects();
  std::vector<std::string> replies;
  double seconds = 0.0;
  for (int i = 0; i < 3; ++i) seconds += Sweep(*server, objects, &replies);
  rec.Check(replies == twin.query_reply, "server replies differ from the twin");
  TransportMetrics(seconds * 1e6 / (3.0 * objects), twin.query_us, rec);
  StopServer(*server, rec);
}

void RunServeRead(const Args& args, Record& rec, Tracer& tracer) {
  const Sizes sizes = SizesFor(args.workload, args.tiny);
  ServedData data = MakeServed(args, sizes, "d2");
  const int32_t O = data.full.num_objects();
  rec.Note("input.objects", O);
  rec.Note("input.claims", data.full.num_observations());

  // The oracle: the same service, preloaded in process.
  Twin twin = RunTwin(args, data.served, 2, nullptr, 0, tracer, rec);

  // The read stream: QUERY and POSTERIOR in a 9:1 ratio, objects
  // uniform over the universe.
  std::vector<std::string> lines;
  std::vector<const std::string*> expect;
  slimfast::Rng rng(args.seed ^ 0x2545f4914f6cdd1dULL);
  for (int i = 0; i < (1 << 17); ++i) {
    const auto o = static_cast<ObjectId>(rng.Uniform() * O);
    const bool posterior = i % 10 == 9;
    lines.push_back(posterior ? PosteriorLine(o) : QueryLine(o));
    expect.push_back(posterior ? &twin.posterior_reply[static_cast<size_t>(o)]
                               : &twin.query_reply[static_cast<size_t>(o)]);
  }
  int64_t checked = 0;
  int64_t wrong = 0;
  auto check = [&](size_t i, std::string& reply) {
    if (args.corrupt && checked == 100) reply += "X";
    ++checked;
    if (reply != *expect[i % expect.size()] && wrong++ == 0) {
      rec.failures.push_back("reply '" + reply + "' differs from the oracle");
    }
  };
  const std::vector<std::string> server_args = {data.dir, "--preload"};

  // Set-up: process start to first reply (dataset load + preload).
  std::vector<double> setups;
  std::unique_ptr<Child> server;
  double untraced_line_us = 0.0;
  constexpr int kSetups = 5;
  for (int i = 0; i < kSetups; ++i) {
    const bool last = i == kSetups - 1;
    const std::string trace_out =
        last && args.trace ? args.dir + "/server-trace.json" : "";
    std::string reply;
    double setup = 0.0;
    server = StartServer(args, ServeArgv(args, server_args, trace_out),
                         "STATS\n", &reply, &setup);
    rec.Check(server != nullptr, "server did not start");
    if (server == nullptr) return;
    setups.push_back(setup);
    if (args.trace && i == kSetups - 2) {
      // Untraced reference for the tracing overhead.
      auto [n, s] = Pipeline(*server, lines, SIZE_MAX, sizes.in_flight,
                             NowNs() + static_cast<int64_t>(args.seconds * 0.25e9),
                             check);
      untraced_line_us = s * 1e6 / static_cast<double>(std::max<size_t>(n, 1));
    }
    if (!last) StopServer(*server, rec);
  }

  // Phase 1: pipelined, at most `in_flight` lines outstanding. The
  // throughput is taken over 50 ms windows, so a short stall of the
  // machine does not decide the run.
  const double phase1 = args.seconds * (args.trace ? 0.25 : 0.4);
  constexpr int64_t kWindowNs = 50000000;
  std::vector<double> window_replies;
  const int64_t phase1_start = NowNs();
  auto [n1, s1] = Pipeline(
      *server, lines, SIZE_MAX, sizes.in_flight,
      phase1_start + static_cast<int64_t>(phase1 * 1e9),
      [&](size_t i, std::string& reply) {
        const auto w =
            static_cast<size_t>((NowNs() - phase1_start) / kWindowNs);
        if (w >= window_replies.size()) window_replies.resize(w + 1, 0.0);
        window_replies[w] += 1.0;
        check(i, reply);
      });
  if (window_replies.size() > 2) {  // drop the partial last window
    window_replies.pop_back();
  }
  const double qps = Median(window_replies) * 1e9 / kWindowNs;

  // Phase 2: open loop at a fixed rate, each line timed from its due
  // time, so a stall delays every line queued behind it.
  const double phase2 = args.seconds * (args.trace ? 0.25 : 0.55);
  const size_t count = static_cast<size_t>(phase2 * sizes.open_rate);
  const int64_t period = static_cast<int64_t>(1e9 / sizes.open_rate);
  std::vector<int64_t> due(count);
  std::vector<double> latency(count);
  std::vector<double> lateness(count);
  const int64_t t0 = NowNs() + 1000000;
  for (size_t i = 0; i < count; ++i) {
    due[i] = t0 + static_cast<int64_t>(i) * period;
  }
  std::thread writer([&] {
    // The generator spins to each due time: a sleeping thread's wake-up
    // on a virtual CPU can lag by milliseconds. Its lateness is reported.
    for (size_t i = 0; i < count; ++i) {
      while (NowNs() < due[i]) {
      }
      if (!server->Write(lines[i % lines.size()])) break;
      lateness[i] = static_cast<double>(NowNs() - due[i]);
    }
  });
  std::string line;
  size_t n2 = 0;
  while (n2 < count) {
    if (!server->ReadLine(&line)) break;
    latency[n2] = static_cast<double>(NowNs() - due[n2]);
    check(n2, line);
    ++n2;
  }
  writer.join();
  rec.Check(n2 == count, "open-loop phase lost replies");
  latency.resize(n2);
  const double rss = StopServer(*server, rec);
  rec.attempted += checked;
  rec.failed += wrong;

  rec.Metric("setup_s", Median(setups), "s");
  // A line's latency at a fixed rate includes its wait behind any stall
  // of the host, so the tail counts the host's stalls; the median is the
  // line's own cost.
  rec.Metric("latency_ms", Median(latency) * 1e-6, "ms");
  rec.Metric("throughput_per_s",
             Percentile(window_replies, 100.0 - kTailPercentile) * 1e9 /
                 kWindowNs,
             "1/s");
  rec.Metric("accuracy", ServedAccuracy(data.full, data.served,
                                        twin.query_reply, true),
             "frac");
  rec.Metric("peak_rss_mb", rss, "MB");
  rec.Note("query_qps", qps);
  rec.Note("query_p50_us", Median(latency) * 1e-3);
  rec.Note("query_tail_us", TailText(latency, 1e-3, "us"));
  rec.Note("open_loop_rate_per_s", sizes.open_rate);
  rec.Note("generator_late_p99_us", Percentile(lateness, 99.0) * 1e-3);
  rec.Note("input.lines", n1 + n2);

  if (!args.trace) return;
  const double line_us = untraced_line_us;
  TransportMetrics(line_us, 0.9 * twin.query_us + 0.1 * twin.posterior_us,
                   rec);
  rec.Metric("obs.trace_overhead",
             line_us > 0 ? (s1 * 1e6 / static_cast<double>(n1)) / line_us : 0.0,
             "x");
  rec.Note("server_trace", args.dir + "/server-trace.json");
  PipelineProbe(args, data, tracer, rec);
}

void RunServeIngest(const Args& args, Record& rec, Tracer& tracer) {
  const Sizes sizes = SizesFor(args.workload, args.tiny);
  ServedData data = MakeServed(args, sizes, "d1");
  const int32_t O = data.full.num_objects();
  // The server starts from the first half of the objects (its history,
  // preloaded from files); the second half arrives as the stream.
  Dataset base = Restrict(data.served, 0, O / 2);
  const std::string base_dir = args.dir + "/d1-base";
  fs::create_directories(base_dir);
  SLIMFAST_CHECK_OK(slimfast::SaveDataset(base, base_dir));
  const std::vector<IngestBatch> stream =
      MakeIngestStream(Restrict(data.served, O / 2, O), sizes, args.seed);
  int64_t observations = 0;
  for (const IngestBatch& b : stream) observations += b.observations;
  rec.Note("input.objects", O);
  rec.Note("input.claims", observations);
  rec.Note("input.batches", stream.size());
  const std::vector<std::string> restart_args = {
      base_dir, "--wal-dir", args.dir + "/wal", "--fsync-every", "1",
      "--relearn-every", "1"};
  std::vector<std::string> server_args = restart_args;
  server_args.push_back("--preload");

  std::vector<double> setups;
  std::vector<double> commits;
  std::vector<double> queries;
  std::vector<double> recovers;
  std::vector<double> rss;
  std::vector<double> untraced_commits;
  std::vector<std::vector<std::string>> finals;
  std::vector<double> sweep_line_us;
  std::vector<double> batch_rates;  // observations per second, per batch
  std::string line;
  auto expect_ok = [&](const char* what) {
    rec.Check(line.rfind("OK", 0) == 0, std::string(what) + ": '" + line + "'");
  };
  // Set-up: process start to the first reply (history load + preload
  // + WAL), from four fresh starts here and one per cycle below.
  for (int i = 0; i < 4; ++i) {
    fs::remove_all(args.dir + "/wal");
    fs::create_directories(args.dir + "/wal");
    double setup = 0.0;
    auto server = StartServer(args, ServeArgv(args, server_args, ""),
                              "STATS\n", &line, &setup);
    rec.Check(server != nullptr, "server did not start");
    if (server == nullptr) return;
    setups.push_back(setup);
    StopServer(*server, rec);
  }
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  // Traced runs take one untraced and one traced cycle.
  for (int cycle = 0; args.trace ? cycle < 2 : (cycle == 0 || NowNs() < deadline);
       ++cycle) {
    const bool traced = args.trace && cycle == 1;
    fs::remove_all(args.dir + "/wal");
    fs::create_directories(args.dir + "/wal");
    double setup = 0.0;
    auto server = StartServer(
        args,
        ServeArgv(args, server_args,
                  traced ? args.dir + "/server-trace.json" : ""),
        "STATS\n", &line, &setup);
    rec.Check(server != nullptr, "server did not start");
    if (server == nullptr) return;
    setups.push_back(setup);
    std::vector<double>& commit_samples = traced || !args.trace ? commits
                                                                : untraced_commits;
    double checkpoint = 0.0;
    const int32_t n = static_cast<int32_t>(stream.size());
    for (int32_t b = 0; b < n; ++b) {
      const IngestBatch& batch = stream[static_cast<size_t>(b)];
      if (b == n - sizes.tail) {
        const int64_t t = NowNs();
        server->Write("CHECKPOINT\n");
        server->ReadLine(&line);
        expect_ok("CHECKPOINT");
        checkpoint = static_cast<double>(NowNs() - t) * 1e-9;
      }
      const int64_t start = NowNs();
      server->Write(batch.lines);
      bool all_ok = true;
      for (int64_t i = 0; i < batch.num_lines; ++i) {
        all_ok = server->ReadLine(&line) && line == "OK" && all_ok;
      }
      rec.Check(all_ok, "OBS/TRUTH not acknowledged");
      const int64_t t = NowNs();
      server->Write("COMMIT\n");
      server->ReadLine(&line);
      expect_ok("COMMIT");
      for (ObjectId o : batch.queries) {
        // Reads during the relearn: wait-free snapshot answers, which
        // must name a value of the object's domain (or NONE).
        const int64_t q = NowNs();
        server->Write(QueryLine(o));
        server->ReadLine(&line);
        queries.push_back(static_cast<double>(NowNs() - q));
        int value = -1;
        rec.Check(line == "NONE" ||
                      (std::sscanf(line.c_str(), "VALUE %d", &value) == 1 &&
                       InDomain(data.full, o, value)),
                  "bad reply during relearn: '" + line + "'");
      }
      server->Write("DRAIN\n");
      server->ReadLine(&line);
      expect_ok("DRAIN");
      const int64_t end = NowNs();
      commit_samples.push_back(static_cast<double>(end - t) * 1e-9);
      batch_rates.push_back(static_cast<double>(batch.observations) * 1e9 /
                            static_cast<double>(end - start));
    }
    rec.Note("checkpoint_s", checkpoint);

    std::vector<std::string> before;
    const double sweep = Sweep(*server, O, &before);
    sweep_line_us.push_back(sweep * 1e6 / O);
    if (args.corrupt && cycle == 0) before[0] += "X";
    rss.push_back(StopServer(*server, rec));

    // Restart on the same directory: time to the first correct reply,
    // then every reply must equal its pre-restart value.
    const ObjectId probe = O / 2;
    double recover = 0.0;
    server = StartServer(args, ServeArgv(args, restart_args, ""),
                         QueryLine(probe), &line, &recover);
    rec.Check(server != nullptr, "restart failed");
    if (server == nullptr) return;
    rec.Check(line == before[static_cast<size_t>(probe)],
              "first reply after restart differs");
    recovers.push_back(recover);
    std::vector<std::string> after;
    Sweep(*server, O, &after);
    rec.Check(after == before, "replies after restart differ from before");
    StopServer(*server, rec);
    finals.push_back(std::move(before));
  }

  // The oracle: the same stream replayed through an in-process service.
  Twin twin = RunTwin(args, base, 1, &stream, sizes.tail, tracer, rec);
  for (const auto& replies : finals) {
    rec.Check(replies == twin.query_reply,
              "final replies differ from the in-process oracle");
  }

  rec.Metric("setup_s", Median(setups), "s");
  rec.Metric("latency_ms", Percentile(commits, kTailPercentile) * 1e3, "ms");
  rec.Metric("throughput_per_s",
             Percentile(batch_rates, 100.0 - kTailPercentile), "1/s");
  // Agreement of the final merged predictions with the truth the
  // stream replayed.
  rec.Metric("accuracy",
             ServedAccuracy(data.full, data.served, finals.front(), false),
             "frac");
  rec.Metric("peak_rss_mb", Median(rss), "MB");
  rec.Note("heldout_accuracy",
           ServedAccuracy(data.full, data.served, finals.front(), true));
  rec.Note("cycles", finals.size());
  rec.Note("commit_p50_ms", Median(commits) * 1e3);
  rec.Note("commit_tail_ms", TailText(commits, 1e3, "ms"));
  rec.Note("query_p50_us", Median(queries) * 1e-3);
  rec.Note("query_tail_us", TailText(queries, 1e-3, "us"));
  rec.Note("ingest_obs_per_s", Median(batch_rates));
  rec.Note("recover_s", Median(recovers));

  if (!args.trace) return;
  TransportMetrics(Median(sweep_line_us), twin.query_us, rec);
  rec.Metric("obs.trace_overhead",
             Median(untraced_commits) > 0
                 ? Median(commits) / Median(untraced_commits)
                 : 0.0,
             "x");
  rec.Note("server_trace", args.dir + "/server-trace.json");
  PipelineProbe(args, data, tracer, rec);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--workload") {
      args->workload = value();
    } else if (a == "--dir") {
      args->dir = value();
    } else if (a == "--cli") {
      args->cli = value();
    } else if (a == "--seed") {
      args->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args->trace = value() == "1";
    } else if (a == "--tiny") {
      args->tiny = true;
    } else if (a == "--corrupt") {
      args->corrupt = true;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown argument %s\n",
                   a.c_str());
      return false;
    }
  }
  return !args->dir.empty() && !args->cli.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 6 && std::string(argv[1]) == "cold") {
    // The offline workloads' set-up probe: one fusion in a fresh process.
    slimfast::ExecOptions options;
    options.threads = kFuseThreads;
    slimfast::Executor exec(options);
    Tracer off;
    FuseOut out = FuseOnce(argv[2], std::atof(argv[3]),
                           std::strtoull(argv[4], nullptr, 10),
                           std::strtoull(argv[5], nullptr, 10), &exec, off);
    std::printf("%s\n", out.error.empty() ? "done" : out.error.c_str());
    std::fflush(stdout);
    return out.error.empty() ? 0 : 1;
  }
  Args args;
  if (argc < 2 || std::string(argv[1]) != "run" ||
      !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver run --workload W --seed N "
                 "--seconds S --trace 0|1 --dir DIR --cli PATH [--tiny] "
                 "[--corrupt]\n       perfbench_driver cold DIR TRAIN_FRACTION "
                 "SPLIT_SEED SEED\n");
    return 2;
  }
  fs::create_directories(args.dir);
  Record rec;
  Tracer tracer;
  if (args.workload == "fuse_em" || args.workload == "fuse_erm") {
    RunFuse(args, rec, tracer);
  } else if (args.workload == "serve_read") {
    RunServeRead(args, rec, tracer);
  } else if (args.workload == "serve_ingest") {
    RunServeIngest(args, rec, tracer);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  rec.Note("simd_wide", slimfast::simd::WideEnabled() ? 1 : 0);
  rec.Note("obs_enabled", slimfast::obs::Enabled() ? 1 : 0);
  if (args.trace) {
    const std::string path = args.dir + "/driver-spans.json";
    rec.Check(tracer.Write(path), "cannot write " + path);
    rec.Note("driver_spans", path);
    const std::string lib = args.dir + "/library-trace.json";
    rec.Check(slimfast::obs::TraceRecorder::Global().WriteChromeTrace(lib),
              "cannot write " + lib);
    rec.Note("library_trace", lib);
  }
  std::printf("%s\n", rec.ToJson().c_str());
  return 0;
}
