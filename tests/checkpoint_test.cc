#include "core/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/serial.h"
#include "data/generator.h"
#include "data/split.h"
#include "models/gru4rec.h"
#include "models/narm.h"

namespace causer::core {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ckpt_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    fault::DisarmAll();
    fs::remove_all(dir_);
  }

  models::ModelConfig SmallConfig() {
    dataset_ = data::MakeDataset(data::TinySpec());
    split_ = data::LeaveLastOut(dataset_);
    models::ModelConfig cfg;
    cfg.num_users = dataset_.num_users;
    cfg.num_items = dataset_.num_items;
    cfg.embedding_dim = 4;
    cfg.hidden_dim = 4;
    cfg.item_features = &dataset_.item_features;
    return cfg;
  }

  /// One short trained state so the checkpoint carries non-trivial
  /// optimizer moments and RNG progress.
  void TrainBriefly(models::SequentialRecommender& model) {
    model.TrainEpoch(split_.train);
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Full observable state of a model: parameters + training-state blob.
  static std::pair<std::vector<std::vector<float>>, std::string> StateOf(
      const models::SequentialRecommender& model) {
    std::vector<std::vector<float>> params;
    for (const auto& p : model.Parameters()) {
      params.emplace_back(p.data().begin(), p.data().end());
    }
    std::string blob;
    model.SaveTrainingState(&blob);
    return {std::move(params), std::move(blob)};
  }

  models::FitResumeState SomeFitState() {
    models::FitResumeState st;
    st.next_epoch = 3;
    st.best_ndcg = 0.625;
    st.stale = 1;
    st.epoch_losses = {0.9, 0.7, 0.55};
    st.best_snapshot = {{1.0f, 2.0f}, {3.0f}};
    return st;
  }

  fs::path dir_;
  data::Dataset dataset_;
  data::Split split_;
};

TEST_F(CheckpointTest, PathAndListOrdering) {
  std::string p0 = CheckpointPath(dir_.string(), 2);
  std::string p1 = CheckpointPath(dir_.string(), 10);
  EXPECT_NE(p0.find("ckpt-000002.causer"), std::string::npos);
  WriteFile(p1, "x");
  WriteFile(p0, "x");
  WriteFile((dir_ / "not-a-checkpoint.txt").string(), "x");
  WriteFile((dir_ / "ckpt-junk.causer").string(), "x");
  auto listed = ListCheckpoints(dir_.string());
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], p0);
  EXPECT_EQ(listed[1], p1);
  EXPECT_TRUE(ListCheckpoints((dir_ / "missing").string()).empty());
}

TEST_F(CheckpointTest, RoundTripRestoresEverything) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  auto st = SomeFitState();
  std::string path = CheckpointPath(dir_.string(), st.next_epoch);
  ASSERT_TRUE(SaveTrainingCheckpoint(a, st, path));

  models::ModelConfig cfg2 = cfg;
  cfg2.seed = 99;  // different init + rng
  models::Gru4Rec b(cfg2);
  models::FitResumeState restored;
  ASSERT_TRUE(LoadTrainingCheckpoint(b, &restored, path));

  EXPECT_EQ(StateOf(a), StateOf(b));
  EXPECT_EQ(restored.next_epoch, st.next_epoch);
  EXPECT_EQ(restored.best_ndcg, st.best_ndcg);
  EXPECT_EQ(restored.stale, st.stale);
  EXPECT_EQ(restored.epoch_losses, st.epoch_losses);
  EXPECT_EQ(restored.best_snapshot, st.best_snapshot);

  // The restored model trains on in lockstep with the original.
  EXPECT_EQ(a.TrainEpoch(split_.train), b.TrainEpoch(split_.train));
}

TEST_F(CheckpointTest, ModelNameMismatchRejected) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  auto st = SomeFitState();
  std::string path = CheckpointPath(dir_.string(), 0);
  ASSERT_TRUE(SaveTrainingCheckpoint(a, st, path));
  models::Narm other(cfg);
  auto before = StateOf(other);
  models::FitResumeState restored;
  EXPECT_FALSE(LoadTrainingCheckpoint(other, &restored, path));
  EXPECT_EQ(StateOf(other), before);
}

TEST_F(CheckpointTest, MissingFileFails) {
  auto cfg = SmallConfig();
  models::Gru4Rec m(cfg);
  models::FitResumeState st;
  EXPECT_FALSE(
      LoadTrainingCheckpoint(m, &st, (dir_ / "nope.causer").string()));
}

TEST_F(CheckpointTest, EveryBitFlipInHeadersRejectedWithoutMutation) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  std::string path = CheckpointPath(dir_.string(), 0);
  ASSERT_TRUE(SaveTrainingCheckpoint(a, SomeFitState(), path));
  const std::string good = ReadFile(path);
  ASSERT_GT(good.size(), 64u);

  models::Gru4Rec victim(cfg);
  TrainBriefly(victim);
  const auto before = StateOf(victim);
  // Flip one bit at a spread of offsets covering the header, every
  // section, and the trailing checksum.
  const size_t step = std::max<size_t>(1, good.size() / 97);
  for (size_t off = 0; off < good.size(); off += step) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0x10);
    WriteFile(path, bad);
    models::FitResumeState st;
    EXPECT_FALSE(LoadTrainingCheckpoint(victim, &st, path))
        << "bit flip at offset " << off << " was not detected";
    EXPECT_EQ(StateOf(victim), before) << "mutated at offset " << off;
  }
}

TEST_F(CheckpointTest, TruncationAtEveryBoundaryRejectedWithoutMutation) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  std::string path = CheckpointPath(dir_.string(), 0);
  ASSERT_TRUE(SaveTrainingCheckpoint(a, SomeFitState(), path));
  const std::string good = ReadFile(path);

  // Recover the section layout from the file itself so the sweep hits
  // every section boundary exactly, plus interior offsets.
  std::vector<size_t> cuts = {0, 4, 8, 12};  // inside the header
  {
    size_t pos = 12;
    uint32_t section_count = 0;
    std::memcpy(&section_count, good.data() + 8, 4);
    for (uint32_t s = 0; s < section_count; ++s) {
      uint64_t size = 0;
      std::memcpy(&size, good.data() + pos + 4, 8);
      cuts.push_back(pos + 8);           // inside the section header
      pos += 16;                         // tag + size + crc
      cuts.push_back(pos);               // payload start
      cuts.push_back(pos + size / 2);    // mid-payload
      pos += size;
      cuts.push_back(pos);               // section boundary
    }
    ASSERT_EQ(pos + 4, good.size());  // trailing file CRC
  }

  models::Gru4Rec victim(cfg);
  TrainBriefly(victim);
  const auto before = StateOf(victim);
  for (size_t cut : cuts) {
    ASSERT_LT(cut, good.size());
    WriteFile(path, good.substr(0, cut));
    models::FitResumeState st;
    EXPECT_FALSE(LoadTrainingCheckpoint(victim, &st, path))
        << "truncation at " << cut << "/" << good.size()
        << " was not detected";
    EXPECT_EQ(StateOf(victim), before) << "mutated at cut " << cut;
  }
  // The untruncated file still loads (the sweep harness itself is sound).
  WriteFile(path, good);
  models::FitResumeState st;
  EXPECT_TRUE(LoadTrainingCheckpoint(victim, &st, path));
}

TEST_F(CheckpointTest, WeightsOnlyLoadStillChecksOptimizerSectionCrc) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  std::string path = CheckpointPath(dir_.string(), 0);
  ASSERT_TRUE(SaveTrainingCheckpoint(a, SomeFitState(), path));
  std::string bad = ReadFile(path);

  // Corrupt one byte of the training-state section (tag 3, which holds
  // the optimizer moments), then reseal the whole-file checksum so that
  // only the section's own CRC can catch it.
  size_t pos = 12;
  uint32_t section_count = 0;
  std::memcpy(&section_count, bad.data() + 8, 4);
  bool corrupted = false;
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0;
    uint64_t size = 0;
    std::memcpy(&tag, bad.data() + pos, 4);
    std::memcpy(&size, bad.data() + pos + 4, 8);
    pos += 16;
    if (tag == 3 && size > 0) {
      bad[pos + size / 2] = static_cast<char>(bad[pos + size / 2] ^ 0x01);
      corrupted = true;
    }
    pos += size;
  }
  ASSERT_TRUE(corrupted);
  const uint32_t file_crc = serial::Crc32(bad.data(), pos);
  std::memcpy(bad.data() + pos, &file_crc, 4);
  WriteFile(path, bad);

  models::Gru4Rec victim(cfg);
  const auto before = StateOf(victim);
  EXPECT_FALSE(LoadCheckpointParameters(victim, path));
  EXPECT_EQ(StateOf(victim), before);
}

TEST_F(CheckpointTest, ShortWriteFailsAndPreservesPreviousCheckpoint) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  std::string path = CheckpointPath(dir_.string(), 0);
  ASSERT_TRUE(SaveTrainingCheckpoint(a, SomeFitState(), path));
  const std::string good = ReadFile(path);

  TrainBriefly(a);
  fault::Arm("ckpt.short_write");
  EXPECT_FALSE(SaveTrainingCheckpoint(a, SomeFitState(), path));
  fault::DisarmAll();
  EXPECT_EQ(ReadFile(path), good);  // old file untouched
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(CheckpointTest, RenameFailFailsAndPreservesPreviousCheckpoint) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  std::string path = CheckpointPath(dir_.string(), 0);
  ASSERT_TRUE(SaveTrainingCheckpoint(a, SomeFitState(), path));
  const std::string good = ReadFile(path);

  TrainBriefly(a);
  fault::Arm("ckpt.rename_fail");
  EXPECT_FALSE(SaveTrainingCheckpoint(a, SomeFitState(), path));
  fault::DisarmAll();
  EXPECT_EQ(ReadFile(path), good);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(CheckpointTest, TornFileReportsSuccessButIsRejectedOnLoad) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  std::string path = CheckpointPath(dir_.string(), 0);
  fault::Arm("ckpt.torn_file");
  // The torn write completes the whole protocol — the caller cannot tell.
  EXPECT_TRUE(SaveTrainingCheckpoint(a, SomeFitState(), path));
  fault::DisarmAll();
  models::Gru4Rec b(cfg);
  models::FitResumeState st;
  EXPECT_FALSE(LoadTrainingCheckpoint(b, &st, path));
}

TEST_F(CheckpointTest, PruneKeepsNewest) {
  for (int e = 0; e < 5; ++e) {
    WriteFile(CheckpointPath(dir_.string(), e), "x");
  }
  PruneCheckpoints(dir_.string(), 2);
  auto listed = ListCheckpoints(dir_.string());
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], CheckpointPath(dir_.string(), 3));
  EXPECT_EQ(listed[1], CheckpointPath(dir_.string(), 4));
}

TEST_F(CheckpointTest, InstallHooksSaveAndRestore) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  CheckpointOptions opts;
  opts.dir = dir_.string();
  opts.every = 2;
  models::TrainConfig tc;
  ASSERT_TRUE(InstallCheckpointHooks(opts, a, &tc));
  EXPECT_EQ(tc.checkpoint_every, 2);
  ASSERT_TRUE(tc.checkpoint_save != nullptr);
  ASSERT_TRUE(tc.checkpoint_restore != nullptr);

  auto st = SomeFitState();
  ASSERT_TRUE(tc.checkpoint_save(st));
  auto saved = StateOf(a);

  TrainBriefly(a);  // drift away from the checkpoint
  models::FitResumeState restored;
  ASSERT_TRUE(tc.checkpoint_restore(&restored));
  EXPECT_EQ(StateOf(a), saved);
  EXPECT_EQ(restored.next_epoch, st.next_epoch);
}

TEST_F(CheckpointTest, RestoreFallsBackPastTornNewestCheckpoint) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  TrainBriefly(a);
  CheckpointOptions opts;
  opts.dir = dir_.string();
  models::TrainConfig tc;
  ASSERT_TRUE(InstallCheckpointHooks(opts, a, &tc));

  auto st = SomeFitState();
  st.next_epoch = 1;
  ASSERT_TRUE(tc.checkpoint_save(st));
  auto good_state = StateOf(a);

  TrainBriefly(a);
  st.next_epoch = 2;
  fault::Arm("ckpt.torn_file");
  ASSERT_TRUE(tc.checkpoint_save(st));  // "succeeds", file is torn
  fault::DisarmAll();

  TrainBriefly(a);  // drift further
  models::FitResumeState restored;
  ASSERT_TRUE(tc.checkpoint_restore(&restored));
  // The torn epoch-2 file was skipped; epoch 1 state came back.
  EXPECT_EQ(restored.next_epoch, 1);
  EXPECT_EQ(StateOf(a), good_state);
}

TEST_F(CheckpointTest, HooksRetainTwoCheckpoints) {
  auto cfg = SmallConfig();
  models::Gru4Rec a(cfg);
  CheckpointOptions opts;
  opts.dir = dir_.string();
  models::TrainConfig tc;
  ASSERT_TRUE(InstallCheckpointHooks(opts, a, &tc));
  models::FitResumeState st;
  for (int e = 1; e <= 4; ++e) {
    st.next_epoch = e;
    ASSERT_TRUE(tc.checkpoint_save(st));
  }
  auto listed = ListCheckpoints(dir_.string());
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], CheckpointPath(dir_.string(), 3));
  EXPECT_EQ(listed[1], CheckpointPath(dir_.string(), 4));
}

}  // namespace
}  // namespace causer::core
