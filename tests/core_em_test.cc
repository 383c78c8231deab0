#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "baselines/majority.h"
#include "core/compiled_instance.h"
#include "core/em.h"
#include "eval/metrics.h"
#include "exec/parallel.h"
#include "obs/trace.h"
#include "opt/proximal.h"
#include "opt/schedule.h"
#include "simd/simd.h"
#include "synth/synthetic.h"
#include "test_util.h"
#include "util/math.h"

namespace slimfast {
namespace {

TEST(EmTest, FailsWithoutObservations) {
  DatasetBuilder builder("empty", 1, 1, 2);
  Dataset d = std::move(builder).Build().ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  SlimFastModel model(instance);
  EmLearner learner(EmOptions{});
  Rng rng(1);
  EXPECT_TRUE(learner.Fit({}, &model, &rng, nullptr)
                  .status()
                  .IsFailedPrecondition());
}

TEST(EmTest, UnsupervisedRecoversTruthOnDenseAccurateInstance) {
  // 20 sources of accuracy ~0.8, full density, no ground truth revealed:
  // EM should behave like iterated weighted majority and nail the truths.
  std::vector<double> accuracies(20, 0.8);
  Dataset d = testutil::MakePlantedDataset(accuracies, 300, 1.0, 101);
  ModelConfig config;
  config.use_feature_weights = false;
  auto instance = CompileInstance(d, config).ValueOrDie();
  SlimFastModel model(instance);
  EmLearner learner(EmOptions{});
  Rng rng(5);
  auto stats =
      learner.Fit({}, &model, &rng, nullptr).ValueOrDie();
  EXPECT_GE(stats.iterations, 1);

  auto predictions = model.PredictAll();
  double accuracy =
      ObjectValueAccuracy(d, predictions, d.ObjectsWithTruth()).ValueOrDie();
  EXPECT_GT(accuracy, 0.97);
}

TEST(EmTest, UnsupervisedSourceAccuraciesAreReasonable) {
  std::vector<double> accuracies(16, 0.75);
  accuracies[0] = accuracies[1] = 0.95;
  accuracies[2] = accuracies[3] = 0.55;
  Dataset d = testutil::MakePlantedDataset(accuracies, 400, 1.0, 103);
  ModelConfig config;
  config.use_feature_weights = false;
  auto instance = CompileInstance(d, config).ValueOrDie();
  SlimFastModel model(instance);
  EmLearner learner(EmOptions{});
  Rng rng(6);
  ASSERT_TRUE(
      learner.Fit({}, &model, &rng, nullptr).ok());
  // Order should be respected: best sources above the weak ones.
  EXPECT_GT(model.SourceAccuracy(0), model.SourceAccuracy(2));
  EXPECT_GT(model.SourceAccuracy(1), model.SourceAccuracy(3));
  EXPECT_NEAR(model.SourceAccuracy(0),
              d.EmpiricalSourceAccuracy(0).ValueOrDie(), 0.12);
}

TEST(EmTest, SemiSupervisedClampsTrainingLabels) {
  // Adversarial instance where unsupervised majority is wrong; labels on
  // half the objects let EM identify the reliable minority.
  std::vector<double> accuracies(9, 0.25);
  accuracies[0] = accuracies[1] = accuracies[2] = 0.95;
  Dataset d = testutil::MakePlantedDataset(accuracies, 300, 1.0, 107);
  ModelConfig config;
  config.use_feature_weights = false;
  auto split = testutil::MakePrefixSplit(d, 150);

  auto instance = CompileInstance(d, config).ValueOrDie();
  SlimFastModel model(instance);
  EmLearner learner(EmOptions{});
  Rng rng(8);
  ASSERT_TRUE(learner
                  .Fit(split.train_objects, &model, &rng, nullptr)
                  .ok());
  auto predictions = model.PredictAll();
  double test_accuracy =
      ObjectValueAccuracy(d, predictions, split.test_objects).ValueOrDie();
  EXPECT_GT(test_accuracy, 0.85);
  // And the labeled objects must be predicted at their clamped truth...
  double train_accuracy =
      ObjectValueAccuracy(d, predictions, split.train_objects).ValueOrDie();
  EXPECT_GT(train_accuracy, 0.95);
}

// Every object is labeled, so the E-step has nothing to impute and hard
// and soft EM hand the M-step the same per-source sums. Object 3's truth
// (value 2) is claimed by no source: its row must stay clamped too, or
// its claims would be counted once as labeled and again as imputed.
TEST(EmTest, AllLabeledInstanceLeavesNothingToImpute) {
  for (ValueId truth3 : {ValueId{2}, ValueId{1}}) {
    SCOPED_TRACE(truth3);
    DatasetBuilder builder("labeled", 3, 4, 3);
    const Observation claims[] = {{0, 0, 0}, {0, 1, 0}, {0, 2, 1},
                                  {1, 0, 1}, {1, 1, 1}, {1, 2, 1},
                                  {2, 0, 0}, {2, 1, 1}, {3, 0, 0},
                                  {3, 2, 1}};
    for (const Observation& c : claims) {
      SLIMFAST_CHECK_OK(builder.AddObservation(c.object, c.source, c.value));
    }
    const ValueId truths[] = {0, 1, 1, truth3};
    for (ObjectId o = 0; o < 4; ++o) {
      SLIMFAST_CHECK_OK(builder.SetTruth(o, truths[o]));
    }
    Dataset d = std::move(builder).Build().ValueOrDie();
    ModelConfig config;
    config.use_feature_weights = false;
    auto instance = CompileInstance(d, config).ValueOrDie();
    auto fit = [&](bool soft) {
      EmOptions options;
      options.soft = soft;
      options.max_iterations = 1;
      SlimFastModel model(instance);
      Rng rng(4);
      SLIMFAST_CHECK_OK(EmLearner(options)
                            .Fit({0, 1, 2, 3}, &model, &rng, nullptr)
                            .status());
      return model.weights();
    };
    EXPECT_EQ(fit(false), fit(true));
  }
}

TEST(EmTest, SoftEmAlsoConverges) {
  std::vector<double> accuracies(12, 0.75);
  Dataset d = testutil::MakePlantedDataset(accuracies, 200, 1.0, 109);
  ModelConfig config;
  config.use_feature_weights = false;
  auto instance = CompileInstance(d, config).ValueOrDie();
  SlimFastModel model(instance);
  EmOptions options;
  options.soft = true;
  EmLearner learner(options);
  Rng rng(9);
  auto stats =
      learner.Fit({}, &model, &rng, nullptr).ValueOrDie();
  EXPECT_GE(stats.iterations, 1);
  auto predictions = model.PredictAll();
  double accuracy =
      ObjectValueAccuracy(d, predictions, d.ObjectsWithTruth()).ValueOrDie();
  EXPECT_GT(accuracy, 0.9);
}

TEST(EmTest, InitAccuracySeedsMajorityVote) {
  // One iteration of hard EM from the prior init must reproduce majority
  // voting on a symmetric instance (all sources share the same weight).
  std::vector<double> accuracies(15, 0.7);
  Dataset d = testutil::MakePlantedDataset(accuracies, 150, 1.0, 113);
  ModelConfig config;
  config.use_feature_weights = false;
  auto instance = CompileInstance(d, config).ValueOrDie();
  SlimFastModel model(instance);
  EmOptions options;
  options.max_iterations = 1;
  options.m_step.epochs = 0;  // E-step only: pure majority vote
  EmLearner learner(options);
  Rng rng(10);
  ASSERT_TRUE(
      learner.Fit({}, &model, &rng, nullptr).ok());
  // With init logit(0.7) on every source, MAP = majority value.
  auto predictions = model.PredictAll();
  int64_t majority_matches = 0;
  int64_t total = 0;
  for (ObjectId o = 0; o < d.num_objects(); ++o) {
    const auto& claims = d.ClaimsOnObject(o);
    if (claims.empty()) continue;
    int64_t zeros = 0;
    for (const auto& claim : claims) {
      if (claim.value == 0) ++zeros;
    }
    ValueId majority =
        zeros * 2 >= static_cast<int64_t>(claims.size()) ? 0 : 1;
    ++total;
    if (predictions[static_cast<size_t>(o)] == majority) ++majority_matches;
  }
  // Ties can break either way; expect near-perfect agreement.
  EXPECT_GT(static_cast<double>(majority_matches) /
                static_cast<double>(total),
            0.95);
}

TEST(EmTest, DensityImprovesEmQuality) {
  // Theorem 3 shape: higher density -> lower source-accuracy error.
  std::vector<double> accuracies(40);
  Rng acc_rng(7);
  for (auto& a : accuracies) a = 0.55 + 0.35 * acc_rng.Uniform();

  auto run = [&](double density) {
    Dataset d =
        testutil::MakePlantedDataset(accuracies, 500, density, 211);
    ModelConfig config;
    config.use_feature_weights = false;
    auto instance = CompileInstance(d, config).ValueOrDie();
    SlimFastModel model(instance);
    EmLearner learner(EmOptions{});
    Rng rng(3);
    SLIMFAST_CHECK_OK(
        learner.Fit({}, &model, &rng, nullptr).status());
    double error = 0.0;
    int64_t count = 0;
    for (SourceId s = 0; s < d.num_sources(); ++s) {
      auto empirical = d.EmpiricalSourceAccuracy(s);
      if (!empirical.ok()) continue;
      error += std::fabs(model.SourceAccuracy(s) - empirical.ValueOrDie());
      ++count;
    }
    return error / static_cast<double>(count);
  };

  double sparse_error = run(0.05);
  double dense_error = run(0.8);
  EXPECT_LT(dense_error, sparse_error);
  EXPECT_LT(dense_error, 0.1);
}

TEST(EmTest, ExpectedNllDecreasesOrConverges) {
  std::vector<double> accuracies(10, 0.7);
  Dataset d = testutil::MakePlantedDataset(accuracies, 100, 1.0, 301);
  ModelConfig config;
  config.use_feature_weights = false;

  auto instance = CompileInstance(d, config).ValueOrDie();

  EmOptions few;
  few.max_iterations = 2;
  SlimFastModel model_few(instance);
  Rng rng1(1);
  auto stats_few = EmLearner(few)
                       .Fit({}, &model_few, &rng1, nullptr)
                       .ValueOrDie();

  EmOptions many;
  many.max_iterations = 15;
  SlimFastModel model_many(instance);
  Rng rng2(1);
  auto stats_many =
      EmLearner(many)
          .Fit({}, &model_many, &rng2, nullptr)
          .ValueOrDie();

  EXPECT_LE(stats_many.final_expected_nll,
            stats_few.final_expected_nll + 1e-6);
}

/// A small instance with domain features, so every trust score is a
/// several-term sum (source weight + one feature weight per group).
Dataset MakeFeaturedDataset(int32_t num_sources, int32_t num_objects,
                            double density, uint64_t seed) {
  SyntheticConfig config;
  config.num_sources = num_sources;
  config.num_objects = num_objects;
  config.density = density;
  config.num_feature_groups = 4;
  config.values_per_group = 8;
  config.feature_effect = 0.1;
  return GenerateSynthetic(config, seed).ValueOrDie().dataset;
}

/// The per-example full-batch accuracy-loss fit, written out directly: a
/// trust score per source, then per example sigmoid/softplus, loss and
/// gradient, then one AdaGrad (or plain) proximal step per parameter.
/// Returns the last epoch's mean loss.
double PerExampleBatchFit(const ErmOptions& options,
                          const std::vector<ObservationExample>& examples,
                          SlimFastModel* model) {
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();
  const CompiledModel& compiled = model->compiled();
  const std::set<ParamId> params(compiled.sigma_param.begin(),
                                 compiled.sigma_param.end());
  // Visits (param, coeff) of every term of σ_s.
  auto for_each_term = [&](size_t s, auto&& fn) {
    for (int64_t t = compiled.sigma_begin[s]; t < compiled.sigma_begin[s + 1];
         ++t) {
      fn(compiled.sigma_param[static_cast<size_t>(t)],
         compiled.sigma_coeff[static_cast<size_t>(t)]);
    }
  };
  const size_t num_sources = static_cast<size_t>(compiled.num_sources);
  double total_weight = 0.0;
  for (const ObservationExample& ex : examples) total_weight += ex.weight;
  LearningRateSchedule schedule(options.learning_rate, options.decay);
  std::vector<double> accum(w.size(), 0.0);
  double loss = 0.0;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<double> sigma(num_sources, 0.0);
    for (size_t s = 0; s < num_sources; ++s) {
      for_each_term(s, [&](ParamId p, double coeff) {
        sigma[s] += coeff * w[static_cast<size_t>(p)];
      });
    }
    std::vector<double> grad(w.size(), 0.0);
    loss = 0.0;
    for (const ObservationExample& ex : examples) {
      const double z = sigma[static_cast<size_t>(ex.source)];
      loss += ex.weight * (std::log1p(std::exp(-z)) + (1.0 - ex.label) * z);
      const double g = ex.weight * (Sigmoid(z) - ex.label);
      for_each_term(static_cast<size_t>(ex.source), [&](ParamId p, double coeff) {
        grad[static_cast<size_t>(p)] += g * coeff;
      });
    }
    const double eta = schedule.At(epoch);
    for (ParamId p : params) {
      const size_t pi = static_cast<size_t>(p);
      const double g = grad[pi] / total_weight + options.l2 * w[pi];
      double step = eta;
      if (options.use_adagrad) {
        accum[pi] += g * g;
        step = eta / std::sqrt(accum[pi] + 1e-8);
      }
      const bool shrink = layout.IsFeatureParam(p) || layout.IsCopyParam(p);
      w[pi] = SoftThreshold(w[pi] - step * g,
                            shrink ? step * options.l1 : 0.0);
    }
  }
  return loss / total_weight;
}

TEST(EmStatsTest, CollapsedFitMatchesPerExampleBatchFit) {
  Dataset d = MakeFeaturedDataset(12, 40, 0.5, 17);
  auto compiled = CompileInstance(d, ModelConfig{}).ValueOrDie();
  // Mixed labels (0, 1, fractional) and weights, sources repeated in an
  // interleaved order, one source never observed.
  std::vector<ObservationExample> examples;
  const double labels[] = {1.0, 0.0, 0.3, 1.0, 0.85};
  const double weights[] = {1.0, 0.5, 2.0, 1.0};
  for (int32_t i = 0; i < 97; ++i) {
    examples.push_back(ObservationExample{(i * 7) % 11, labels[i % 5],
                                          weights[i % 4]});
  }
  for (bool adagrad : {true, false}) {
    SCOPED_TRACE(adagrad ? "adagrad" : "plain");
    ErmOptions options = EmOptions{}.m_step;
    options.loss = ErmLoss::kAccuracyLogLoss;
    options.batch = true;
    options.use_adagrad = adagrad;
    options.tolerance = 0.0;  // run every epoch in both fits
    options.l1 = 0.01;

    SlimFastModel collapsed(compiled);
    SlimFastModel reference(compiled);
    std::vector<double> start(collapsed.weights().size());
    for (size_t i = 0; i < start.size(); ++i) {
      start[i] = 0.1 * static_cast<double>(i % 5) - 0.2;
    }
    collapsed.SetWeights(start);
    reference.SetWeights(start);

    Rng rng(1);
    ErmLearner learner(options);
    FitStats stats =
        learner.FitAccuracyLoss(examples, &collapsed, &rng).ValueOrDie();
    const double reference_loss =
        PerExampleBatchFit(options, examples, &reference);
    EXPECT_EQ(stats.epochs, options.epochs);
    EXPECT_NEAR(stats.final_loss, reference_loss,
                1e-12 * std::fabs(reference_loss));
    for (size_t i = 0; i < start.size(); ++i) {
      const double r = reference.weights()[i];
      EXPECT_NEAR(collapsed.weights()[i], r,
                  1e-12 * std::max(1.0, std::fabs(r)))
          << "param " << i;
    }
  }
}

TEST(EmStatsTest, FitSourceStatsRejectsMismatchedOrEmptyStats) {
  Dataset d = MakeFeaturedDataset(6, 10, 0.5, 3);
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  ErmLearner learner(EmOptions{}.m_step);
  Status mismatched = learner.FitSourceStats(SourceStats(5), &model).status();
  EXPECT_TRUE(mismatched.IsInvalidArgument());
  Status empty = learner.FitSourceStats(SourceStats(6), &model).status();
  EXPECT_TRUE(empty.IsFailedPrecondition());
}

/// Hard and soft EM fit identical weights, to the bit, whatever the
/// thread count or kernel table.
TEST(EmStatsTest, HardAndSoftEmBitIdenticalAcrossThreadsAndSimd) {
  Dataset d = MakeFeaturedDataset(40, 300, 0.15, 23);
  Rng split_rng(5);
  TrainTestSplit split = MakeSplit(d, 0.05, &split_rng).ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  const bool wide_default = simd::WideEnabled();
  for (bool soft : {false, true}) {
    SCOPED_TRACE(soft ? "soft" : "hard");
    EmOptions options;
    options.soft = soft;
    auto fit = [&](int32_t threads, bool wide) {
      ExecOptions exec_options;
      exec_options.threads = threads;
      Executor exec(exec_options);
      simd::SetWideEnabledForTest(wide);
      SlimFastModel model(instance);
      Rng rng(9);
      EmLearner learner(options);
      auto stats = learner.Fit(split.train_objects, &model, &rng, &exec);
      simd::SetWideEnabledForTest(wide_default);
      EXPECT_TRUE(stats.ok()) << stats.status();
      return model.weights();
    };
    const std::vector<double> baseline = fit(1, wide_default);
    EXPECT_EQ(fit(4, wide_default), baseline);
    EXPECT_EQ(fit(1, false), baseline);
    EXPECT_EQ(fit(4, false), baseline);
  }
}

/// The same contract on an instance whose E-step work is above the exec
/// minimum-work constant, so the 4-thread fits really run on the pool
/// (the instance above is small enough to run inline).
TEST(EmStatsTest, HardAndSoftEmBitIdenticalWhenTheEStepDispatches) {
  Dataset d = MakeFeaturedDataset(150, 30000, 0.05, 29);
  Rng split_rng(6);
  TrainTestSplit split = MakeSplit(d, 0.01, &split_rng).ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  // EmLearner's work estimate: σ terms + claims + candidates.
  ASSERT_GE(static_cast<int64_t>(instance->model->sigma_param.size()) +
                instance->store.num_observations() +
                static_cast<int64_t>(instance->store.domain_values().size()),
            kMinParallelWork);
  for (bool soft : {false, true}) {
    SCOPED_TRACE(soft ? "soft" : "hard");
    EmOptions options;
    options.soft = soft;
    auto fit = [&](int32_t threads) {
      Executor exec(ExecOptions{threads});
      SlimFastModel model(instance);
      Rng rng(9);
      auto stats =
          EmLearner(options).Fit(split.train_objects, &model, &rng, &exec);
      EXPECT_TRUE(stats.ok()) << stats.status();
      EXPECT_EQ(exec.pool_started(), threads > 1);
      return model.weights();
    };
    EXPECT_EQ(fit(4), fit(1));
  }
}

/// Hard EM stops once an E-step repeats the previous one's per-source
/// sums after an M-step run to its tolerance, well inside the 30-round
/// cap, on the benchmark's EM shape.
TEST(EmStopRuleTest, HardEmReachesItsFixedPointOnTheFuseEmShape) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    Dataset d = MakeFeaturedDataset(150, 1000, 0.05, seed);
    Rng split_rng(seed);
    TrainTestSplit split = MakeSplit(d, 0.01, &split_rng).ValueOrDie();
    auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
    SlimFastModel model(instance);
    Rng rng(seed);
    const EmOptions options;
    EmStats stats = EmLearner(options)
                        .Fit(split.train_objects, &model, &rng, nullptr)
                        .ValueOrDie();
    EXPECT_TRUE(stats.converged);
    EXPECT_LT(stats.iterations, options.max_iterations);
  }
}

/// A warm-started refit from the stopped weights is already at the fixed
/// point: it predicts the same values and stops within three rounds (the
/// first round has no previous sums to compare, the second runs the
/// M-step to its tolerance, the third confirms).
TEST(EmStopRuleTest, WarmRefitFromTheFixedPointStopsAtOnce) {
  Dataset d = MakeFeaturedDataset(150, 1000, 0.05, 3);
  Rng split_rng(3);
  TrainTestSplit split = MakeSplit(d, 0.01, &split_rng).ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  SlimFastModel model(instance);
  Rng rng(3);
  EmLearner learner{EmOptions{}};
  ASSERT_TRUE(learner
                  .Fit(split.train_objects, &model, &rng, nullptr)
                  .ValueOrDie()
                  .converged);
  const std::vector<ValueId> stopped = model.PredictAll();
  EmStats refit = learner
                      .Fit(split.train_objects, &model, &rng, nullptr,
                           /*warm_start=*/true)
                      .ValueOrDie();
  EXPECT_TRUE(refit.converged);
  EXPECT_LE(refit.iterations, 3);
  EXPECT_EQ(model.PredictAll(), stopped);
}

/// The inversion guard still restarts a run that ends anti-predicting its
/// own labels. A prior of 5% accuracy on every source, which one labeled
/// object cannot overturn, makes the first run converge to the flipped
/// fixed point; the retry shows up as E-steps beyond the returned run's.
TEST(EmStopRuleTest, InversionGuardRetryStillRuns) {
  std::vector<double> accuracies(10, 0.8);
  Dataset d = testutil::MakePlantedDataset(accuracies, 200, 1.0, 307);
  ModelConfig config;
  config.use_feature_weights = false;
  auto instance = CompileInstance(d, config).ValueOrDie();
  SlimFastModel model(instance);
  EmOptions options;
  options.init_accuracy = 0.05;
  Rng rng(4);
  obs::TraceRecorder& trace = obs::TraceRecorder::Global();
  trace.Clear();
  trace.Enable();
  EmStats stats = EmLearner(options)
                      .Fit({0}, &model, &rng, nullptr)
                      .ValueOrDie();
  trace.Disable();
  const std::string json = trace.ToChromeJson();
  trace.Clear();
  int32_t esteps = 0;
  for (size_t at = json.find("\"core.em.estep\""); at != std::string::npos;
       at = json.find("\"core.em.estep\"", at + 1)) {
    ++esteps;
  }
  EXPECT_GT(esteps, stats.iterations);
}

/// Sums that repeat, change and repeat again cannot grant long M-steps
/// past one budget: all M-steps of a run share the epochs of
/// max_iterations ordinary ones. With the M-step's tolerance at 0 no
/// M-step stops early, so the first long one spends the whole remainder;
/// on this instance the next E-step's sums change, and the run stops
/// there, unconverged, instead of granting a second long M-step.
TEST(EmStopRuleTest, MStepsShareOneEpochBudget) {
  Dataset d = MakeFeaturedDataset(6, 8, 0.6, 23);
  Rng split_rng(23);
  TrainTestSplit split = MakeSplit(d, 0.0, &split_rng).ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  SlimFastModel model(instance);
  EmOptions options;
  options.m_step.tolerance = 0.0;
  Rng rng(23);
  EmStats stats = EmLearner(options)
                      .Fit(split.train_objects, &model, &rng, nullptr)
                      .ValueOrDie();
  EXPECT_EQ(stats.mstep_epochs,
            options.m_step.epochs * options.max_iterations);
  EXPECT_FALSE(stats.converged);
  EXPECT_LT(stats.iterations, options.max_iterations);
}

/// The benchmark's EM shape — 150 sources, density 0.05, 1% labels, four
/// weakly predictive feature groups — where the optimizer picks EM:
/// held-out accuracy reaches MajorityVote's on the same splits.
TEST(EmStatsTest, FuseEmShapeHeldOutAccuracyAtLeastMajority) {
  double em_sum = 0.0;
  double majority_sum = 0.0;
  const int kDatasets = 4;
  for (uint64_t seed = 1; seed <= kDatasets; ++seed) {
    Dataset d = MakeFeaturedDataset(150, 1000, 0.05, seed);
    Rng rng(seed);
    TrainTestSplit split = MakeSplit(d, 0.01, &rng).ValueOrDie();
    auto em = MakeSlimFastEm();
    MajorityVote majority;
    em_sum += testutil::RunHeldOutAccuracy(em.get(), d, split, seed);
    majority_sum += testutil::RunHeldOutAccuracy(&majority, d, split, seed);
  }
  EXPECT_GE(em_sum / kDatasets, majority_sum / kDatasets);
}

}  // namespace
}  // namespace slimfast
