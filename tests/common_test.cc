#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/log.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace causer {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.Uniform();
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, CategoricalAllZeroUniform) {
  Rng rng(23);
  std::vector<double> w = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 9000; ++i) ++counts[rng.Categorical(w)];
  for (int c : counts) EXPECT_GT(c, 2500);
}

TEST(RngTest, TruncatedGeometricBounds) {
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    int v = rng.TruncatedGeometric(0.4, 6);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 6);
  }
}

TEST(RngTest, TruncatedGeometricZeroProbHitsMax) {
  Rng rng(31);
  EXPECT_EQ(rng.TruncatedGeometric(0.0, 5), 5);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"Model", "NDCG"});
  t.AddRow({"BPR", "1.28"});
  t.AddRow({"LongModelName", "12.34"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| Model"), std::string::npos);
  EXPECT_NE(s.find("LongModelName"), std::string::npos);
  EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(TableTest, PadsShortRows) {
  Table t({"A", "B", "C"});
  t.AddRow({"x"});
  EXPECT_EQ(t.num_rows(), 1);
  EXPECT_NE(t.ToString().find("x"), std::string::npos);
}

TEST(TableTest, SeparatorNotCountedAsRow) {
  Table t({"A"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2"});
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(TableTest, FmtRounds) {
  EXPECT_EQ(Table::Fmt(1.2345, 2), "1.23");
  EXPECT_EQ(Table::Fmt(1.2355, 3), "1.236");
  EXPECT_EQ(Table::Fmt(-0.5, 1), "-0.5");
}

TEST(StopwatchTest, ElapsedNonNegativeAndMonotone) {
  Stopwatch sw;
  double a = sw.ElapsedSeconds();
  double b = sw.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 0.5);
}

TEST(LogTest, DebugIsFilteredInfoIsEmitted) {
  testing::internal::CaptureStderr();
  LogMessage(LogLevel::kDebug, "should be suppressed");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  testing::internal::CaptureStderr();
  CAUSER_LOG(Info) << "value " << 42;
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[INFO] value 42\n");
}

}  // namespace
}  // namespace causer
