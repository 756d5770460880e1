#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/fault.h"
#include "common/serial.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/split.h"
#include "models/gru4rec.h"
#include "nn/linear.h"
#include "nn/serialization.h"

namespace causer::nn {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SerializationTest, RoundTripRestoresValues) {
  Rng rng(1);
  Linear a(4, 3, rng);
  std::string path = TempPath("linear.bin");
  ASSERT_TRUE(SaveParameters(a, path));

  Rng rng2(99);  // different init
  Linear b(4, 3, rng2);
  ASSERT_TRUE(LoadParameters(b, path));
  for (int i = 0; i < a.weight().size(); ++i)
    EXPECT_EQ(a.weight().data()[i], b.weight().data()[i]);
  for (int i = 0; i < a.bias().size(); ++i)
    EXPECT_EQ(a.bias().data()[i], b.bias().data()[i]);
  std::remove(path.c_str());

  // The raw serial framing round-trips too, including empty vectors, whose
  // data() may be null when the reader fills them.
  for (const std::vector<float>& v :
       {std::vector<float>{}, std::vector<float>{1.5f, -2.0f}}) {
    const std::vector<double> vd(v.begin(), v.end());
    std::string blob;
    serial::AppendFloats(&blob, v);
    serial::AppendDoubles(&blob, vd);
    serial::Reader in(blob);
    std::vector<float> f;
    std::vector<double> d;
    ASSERT_TRUE(in.ReadFloats(&f));
    ASSERT_TRUE(in.ReadDoubles(&d));
    EXPECT_TRUE(in.AtEnd());
    EXPECT_EQ(f, v);
    EXPECT_EQ(d, vd);
  }
}

TEST(SerializationTest, ShapeMismatchRejectedAtomically) {
  Rng rng(2);
  Linear small(2, 2, rng);
  Linear big(3, 3, rng);
  std::string path = TempPath("mismatch.bin");
  ASSERT_TRUE(SaveParameters(small, path));
  auto before = big.weight().data();
  EXPECT_FALSE(LoadParameters(big, path));
  EXPECT_EQ(big.weight().data(), before);  // untouched on failure
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileFails) {
  Rng rng(3);
  Linear lin(2, 2, rng);
  EXPECT_FALSE(LoadParameters(lin, TempPath("does_not_exist.bin")));
}

TEST(SerializationTest, CorruptMagicRejected) {
  std::string path = TempPath("corrupt.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  uint32_t junk = 0xDEADBEEF;
  std::fwrite(&junk, sizeof(junk), 1, f);
  std::fclose(f);
  Rng rng(4);
  Linear lin(2, 2, rng);
  EXPECT_FALSE(LoadParameters(lin, path));
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileRejected) {
  Rng rng(5);
  Linear lin(8, 8, rng);
  std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(SaveParameters(lin, path));
  // Truncate the file to half its size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  Linear other(8, 8, rng);
  EXPECT_FALSE(LoadParameters(other, path));
  std::remove(path.c_str());
}

TEST(SerializationTest, TrailingBytesRejected) {
  Rng rng(6);
  Linear lin(4, 4, rng);
  std::string path = TempPath("trailing.bin");
  ASSERT_TRUE(SaveParameters(lin, path));
  // A checkpoint with extra bytes after the last tensor is not a checkpoint
  // for this architecture (e.g. a bigger model whose prefix happens to
  // match); loading it must fail rather than silently use the prefix.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char junk[] = "extra";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  Linear other(4, 4, rng);
  auto before = other.weight().data();
  EXPECT_FALSE(LoadParameters(other, path));
  EXPECT_EQ(other.weight().data(), before);
  std::remove(path.c_str());
}

TEST(SerializationTest, VersionMismatchRejected) {
  Rng rng(7);
  Linear lin(2, 2, rng);
  std::string path = TempPath("version.bin");
  ASSERT_TRUE(SaveParameters(lin, path));
  // Bump the version field (second u32) to a future value.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 4, SEEK_SET);
  uint32_t future_version = 999;
  std::fwrite(&future_version, sizeof(future_version), 1, f);
  std::fclose(f);
  Linear other(2, 2, rng);
  EXPECT_FALSE(LoadParameters(other, path));
  std::remove(path.c_str());
}

TEST(SerializationTest, FlushFailureReportedAsSaveFailure) {
  // Regression for the fflush/fclose-ignored bug: a flush-time error
  // (e.g. ENOSPC surfacing only when stdio drains its buffer) must turn
  // into a failed save, not a silently truncated file.
  Rng rng(8);
  Linear lin(4, 4, rng);
  std::string path = TempPath("flushfail.bin");
  fault::Arm("params.flush_fail");
  EXPECT_FALSE(SaveParameters(lin, path));
  fault::DisarmAll();
  std::remove(path.c_str());
  // Disarmed, the same save succeeds.
  EXPECT_TRUE(SaveParameters(lin, path));
  std::remove(path.c_str());
}

TEST(SerializationTest, NonFinitePayloadRejectedWithoutMutation) {
  Rng rng(9);
  Linear lin(3, 3, rng);
  std::string path = TempPath("nanpayload.bin");
  ASSERT_TRUE(SaveParameters(lin, path));
  // Patch a NaN into the first weight payload float (after magic, version,
  // param count, rows, cols = 5 * u32).
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 20, SEEK_SET);
  float nan = std::nanf("");
  std::fwrite(&nan, sizeof(nan), 1, f);
  std::fclose(f);

  Linear other(3, 3, rng);
  auto before = other.weight().data();
  EXPECT_FALSE(LoadParameters(other, path));
  EXPECT_EQ(other.weight().data(), before);
  std::remove(path.c_str());
}

TEST(SerializationTest, TrainedModelRoundTripPreservesScores) {
  data::Dataset dataset = data::MakeDataset(data::TinySpec());
  data::Split split = data::LeaveLastOut(dataset);
  models::ModelConfig cfg;
  cfg.num_users = dataset.num_users;
  cfg.num_items = dataset.num_items;
  cfg.item_features = &dataset.item_features;
  models::Gru4Rec trained(cfg);
  trained.TrainEpoch(split.train);
  std::string path = TempPath("gru4rec.bin");
  ASSERT_TRUE(SaveParameters(trained, path));

  models::Gru4Rec restored(cfg);
  ASSERT_TRUE(LoadParameters(restored, path));
  const auto& inst = split.test[0];
  EXPECT_EQ(trained.ScoreAll(inst.user, inst.history),
            restored.ScoreAll(inst.user, inst.history));
  std::remove(path.c_str());
}

TEST(SerializationTest, CauserRoundTripPreservesScoresAndGraph) {
  data::Dataset dataset = data::MakeDataset(data::TinySpec());
  data::Split split = data::LeaveLastOut(dataset);
  auto cfg = core::DefaultCauserConfig(dataset, core::Backbone::kGru);
  core::CauserModel trained(cfg);
  trained.TrainEpoch(split.train);
  trained.TrainEpoch(split.train);
  std::string path = TempPath("causer.bin");
  ASSERT_TRUE(SaveParameters(trained, path));

  core::CauserModel restored(cfg);
  ASSERT_TRUE(LoadParameters(restored, path));
  restored.OnParametersRestored();
  const auto& inst = split.test[0];
  EXPECT_EQ(trained.ScoreAll(inst.user, inst.history),
            restored.ScoreAll(inst.user, inst.history));
  EXPECT_TRUE(restored.LearnedClusterGraph() ==
              trained.LearnedClusterGraph());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace causer::nn
