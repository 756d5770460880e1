#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/split.h"
#include "models/gru4rec.h"
#include "nn/serialization.h"

namespace causer {
namespace {

namespace fs = std::filesystem;

/// End-to-end fault tolerance: a training run killed at a fault point and
/// resumed from its checkpoints must converge to the byte-identical model
/// an uninterrupted run produces (docs/ROBUSTNESS.md).
class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("ft_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
    dataset_ = data::MakeDataset(data::TinySpec());
    split_ = data::LeaveLastOut(dataset_);
  }

  void TearDown() override {
    fault::DisarmAll();
    SetDefaultThreads(1);
    metrics::SetEnabled(false);
    fs::remove_all(root_);
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  models::TrainConfig BaseConfig() {
    models::TrainConfig tc;
    tc.max_epochs = 6;
    tc.min_epochs = 2;
    tc.patience = 100;  // fixed-length run: no early-stop variance
    return tc;
  }

  models::TrainConfig WithCheckpoints(const std::string& dir,
                                      models::SequentialRecommender& model,
                                      bool resume) {
    models::TrainConfig tc = BaseConfig();
    core::CheckpointOptions opts;
    opts.dir = dir;
    opts.resume = resume;
    EXPECT_TRUE(core::InstallCheckpointHooks(opts, model, &tc));
    return tc;
  }

  /// The reference: an uninterrupted checkpointing run. Returns the path
  /// of the saved final model.
  std::string UninterruptedRun(const core::CauserConfig& cfg,
                               models::FitResult* result) {
    core::CauserModel model(cfg);
    auto tc = WithCheckpoints((root_ / "ref_ckpt").string(), model,
                              /*resume=*/false);
    *result = models::Fit(model, split_, tc);
    std::string out = (root_ / "ref_model.bin").string();
    EXPECT_TRUE(nn::SaveParameters(model, out));
    return out;
  }

  /// Kill training right after the `crash_after`-th checkpoint write, then
  /// resume in a fresh model (as a restarted process would). Returns the
  /// path of the saved final model.
  std::string CrashAndResumeRun(const core::CauserConfig& cfg,
                                int crash_after,
                                models::FitResult* result) {
    const std::string ckpt_dir = (root_ / "crash_ckpt").string();
    {
      core::CauserModel model(cfg);
      auto tc = WithCheckpoints(ckpt_dir, model, /*resume=*/false);
      fault::Arm("trainer.crash_after_checkpoint", crash_after);
      auto crashed = models::Fit(model, split_, tc);
      fault::DisarmAll();
      // The simulated kill abandoned the run early.
      EXPECT_LT(crashed.epochs_run, BaseConfig().max_epochs);
      // `model` dies here without its best snapshot restored — exactly
      // what SIGKILL leaves behind.
    }
    core::CauserModel resumed(cfg);
    auto tc = WithCheckpoints(ckpt_dir, resumed, /*resume=*/true);
    *result = models::Fit(resumed, split_, tc);
    std::string out = (root_ / "resumed_model.bin").string();
    EXPECT_TRUE(nn::SaveParameters(resumed, out));
    return out;
  }

  void ExpectCrashResumeBitExact(int threads) {
    SetDefaultThreads(threads);
    auto cfg = core::DefaultCauserConfig(dataset_, core::Backbone::kGru);
    models::FitResult ref_result, resumed_result;
    std::string ref = UninterruptedRun(cfg, &ref_result);
    std::string resumed = CrashAndResumeRun(cfg, /*crash_after=*/3,
                                            &resumed_result);
    std::string ref_bytes = ReadFile(ref);
    ASSERT_FALSE(ref_bytes.empty());
    // The acid test: the resumed model file is memcmp-identical to the
    // uninterrupted one.
    EXPECT_EQ(ref_bytes, ReadFile(resumed)) << "at " << threads << " threads";
    EXPECT_EQ(ref_result.epochs_run, resumed_result.epochs_run);
    EXPECT_EQ(ref_result.best_validation_ndcg,
              resumed_result.best_validation_ndcg);
    EXPECT_EQ(ref_result.epoch_losses, resumed_result.epoch_losses);
  }

  fs::path root_;
  data::Dataset dataset_;
  data::Split split_;
};

TEST_F(FaultToleranceTest, CrashResumeIsBitExactSingleThread) {
  ExpectCrashResumeBitExact(1);
}

TEST_F(FaultToleranceTest, CrashResumeIsBitExactEightThreads) {
  ExpectCrashResumeBitExact(8);
}

TEST_F(FaultToleranceTest, NanGradientRollsBackAndRecovers) {
  metrics::SetEnabled(true);
  const uint64_t rollbacks_before =
      models::HealthMetrics().rollbacks.Value();
  const uint64_t nonfinite_before =
      models::HealthMetrics().nonfinite.Value();

  models::ModelConfig cfg;
  cfg.num_users = dataset_.num_users;
  cfg.num_items = dataset_.num_items;
  cfg.embedding_dim = 4;
  cfg.hidden_dim = 4;
  cfg.item_features = &dataset_.item_features;

  // Measure optimizer steps per epoch on a twin model (same seed, same
  // stream) by arming the point beyond reach and reading the hit count.
  int steps_per_epoch = 0;
  {
    models::Gru4Rec twin(cfg);
    fault::Arm("optimizer.nan_grad", /*fire_on_hit=*/1 << 30);
    twin.TrainEpoch(split_.train);
    steps_per_epoch = fault::HitCount("optimizer.nan_grad");
    fault::DisarmAll();
  }
  ASSERT_GT(steps_per_epoch, 2);

  models::Gru4Rec model(cfg);
  auto tc = BaseConfig();
  tc.max_epochs = 4;
  core::CheckpointOptions opts;
  opts.dir = (root_ / "nan_ckpt").string();
  ASSERT_TRUE(core::InstallCheckpointHooks(opts, model, &tc));

  // Fire a NaN into a gradient mid-epoch-2: the per-step sentinel bails
  // out of the epoch, Fit rolls back to the epoch-1 checkpoint at half
  // the learning rate, and training completes.
  fault::Arm("optimizer.nan_grad", steps_per_epoch + 2);
  auto result = models::Fit(model, split_, tc);
  fault::DisarmAll();

  EXPECT_EQ(result.health_rollbacks, 1);
  EXPECT_FALSE(result.stopped_unhealthy);
  EXPECT_EQ(result.epochs_run, 4);
  for (double loss : result.epoch_losses) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  for (const auto& p : model.Parameters()) {
    for (float v : p.data()) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(models::HealthMetrics().rollbacks.Value() - rollbacks_before, 1u);
  EXPECT_EQ(models::HealthMetrics().nonfinite.Value() - nonfinite_before, 1u);
  EXPECT_EQ(models::HealthMetrics().lr_scale.Value(), 0.5);
}

TEST_F(FaultToleranceTest, NanWithoutCheckpointsStopsCleanly) {
  models::ModelConfig cfg;
  cfg.num_users = dataset_.num_users;
  cfg.num_items = dataset_.num_items;
  cfg.embedding_dim = 4;
  cfg.hidden_dim = 4;
  cfg.item_features = &dataset_.item_features;
  models::Gru4Rec model(cfg);
  auto tc = BaseConfig();  // no checkpoint hooks installed

  fault::Arm("optimizer.nan_grad");  // first step of the first epoch
  auto result = models::Fit(model, split_, tc);
  fault::DisarmAll();

  EXPECT_TRUE(result.stopped_unhealthy);
  EXPECT_EQ(result.epochs_run, 0);  // the poisoned epoch was voided
  EXPECT_TRUE(result.epoch_losses.empty());
  // The per-step sentinel bailed before Step(): parameters stayed finite.
  for (const auto& p : model.Parameters()) {
    for (float v : p.data()) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_F(FaultToleranceTest, CauserNanGradientIsNeverStepped) {
  core::CauserModel model(
      core::DefaultCauserConfig(dataset_, core::Backbone::kGru));

  // The first hit lands on whichever optimizer steps first (an auxiliary
  // clustering step or the main step); every one of them is guarded.
  fault::Arm("optimizer.nan_grad");
  const double loss = model.TrainEpoch(split_.train);
  fault::DisarmAll();

  EXPECT_TRUE(std::isnan(loss));
  for (const auto& p : model.Parameters()) {
    for (float v : p.data()) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_F(FaultToleranceTest, RetriesExhaustedStopsUnhealthy) {
  models::ModelConfig cfg;
  cfg.num_users = dataset_.num_users;
  cfg.num_items = dataset_.num_items;
  cfg.embedding_dim = 4;
  cfg.hidden_dim = 4;
  cfg.item_features = &dataset_.item_features;
  models::Gru4Rec model(cfg);
  auto tc = BaseConfig();
  tc.max_epochs = 12;
  tc.health_max_retries = 2;
  core::CheckpointOptions opts;
  opts.dir = (root_ / "retry_ckpt").string();
  ASSERT_TRUE(core::InstallCheckpointHooks(opts, model, &tc));

  // Every optimizer step from epoch 2 on is poisoned: the sentinel burns
  // through its retries and gives up instead of looping forever.
  int steps_per_epoch = 0;
  {
    models::Gru4Rec twin(cfg);
    fault::Arm("optimizer.nan_grad", /*fire_on_hit=*/1 << 30);
    twin.TrainEpoch(split_.train);
    steps_per_epoch = fault::HitCount("optimizer.nan_grad");
    fault::DisarmAll();
  }
  fault::Arm("optimizer.nan_grad", steps_per_epoch + 1, /*times=*/1 << 30);
  auto result = models::Fit(model, split_, tc);
  fault::DisarmAll();

  EXPECT_TRUE(result.stopped_unhealthy);
  EXPECT_EQ(result.health_rollbacks, 2);
  EXPECT_EQ(result.epochs_run, 1);  // only the clean first epoch counts
}

TEST_F(FaultToleranceTest, FailedCheckpointWriteDoesNotStopTraining) {
  models::ModelConfig cfg;
  cfg.num_users = dataset_.num_users;
  cfg.num_items = dataset_.num_items;
  cfg.embedding_dim = 4;
  cfg.hidden_dim = 4;
  cfg.item_features = &dataset_.item_features;
  models::Gru4Rec model(cfg);
  auto tc = BaseConfig();
  tc.max_epochs = 3;
  core::CheckpointOptions opts;
  opts.dir = (root_ / "flaky_ckpt").string();
  ASSERT_TRUE(core::InstallCheckpointHooks(opts, model, &tc));

  fault::Arm("ckpt.rename_fail", /*fire_on_hit=*/1, /*times=*/1 << 30);
  auto result = models::Fit(model, split_, tc);
  fault::DisarmAll();

  // Availability over durability: every save failed, training finished.
  EXPECT_EQ(result.epochs_run, 3);
  EXPECT_FALSE(result.stopped_unhealthy);
  EXPECT_TRUE(core::ListCheckpoints(opts.dir).empty());
}

}  // namespace
}  // namespace causer
