#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/generator.h"
#include "data/sampler.h"
#include "data/split.h"
#include "data/stats.h"

namespace causer::data {
namespace {

Dataset TinyData() {
  static Dataset d = MakeDataset(TinySpec());
  return d;
}

TEST(GeneratorTest, DeterministicFromSeed) {
  Dataset a = MakeDataset(TinySpec());
  Dataset b = MakeDataset(TinySpec());
  ASSERT_EQ(a.sequences.size(), b.sequences.size());
  for (size_t i = 0; i < a.sequences.size(); ++i) {
    ASSERT_EQ(a.sequences[i].steps.size(), b.sequences[i].steps.size());
    for (size_t t = 0; t < a.sequences[i].steps.size(); ++t) {
      EXPECT_EQ(a.sequences[i].steps[t].items, b.sequences[i].steps[t].items);
    }
  }
  EXPECT_EQ(a.item_true_cluster, b.item_true_cluster);
  EXPECT_TRUE(a.true_cluster_graph == b.true_cluster_graph);
}

TEST(GeneratorTest, BasicShapes) {
  Dataset d = TinyData();
  auto spec = TinySpec();
  EXPECT_EQ(d.num_users, spec.num_users);
  EXPECT_EQ(d.num_items, spec.num_items);
  EXPECT_EQ(static_cast<int>(d.sequences.size()), spec.num_users);
  EXPECT_EQ(static_cast<int>(d.item_features.size()), spec.num_items);
  EXPECT_EQ(static_cast<int>(d.item_features[0].size()), spec.feature_dim);
  EXPECT_EQ(static_cast<int>(d.item_true_cluster.size()), spec.num_items);
}

TEST(GeneratorTest, SequenceLengthsWithinSpec) {
  Dataset d = TinyData();
  auto spec = TinySpec();
  for (const auto& seq : d.sequences) {
    EXPECT_GE(static_cast<int>(seq.steps.size()), spec.min_len);
    EXPECT_LE(static_cast<int>(seq.steps.size()), spec.max_len);
  }
}

TEST(GeneratorTest, ItemIdsValid) {
  Dataset d = TinyData();
  for (const auto& seq : d.sequences) {
    for (const auto& step : seq.steps) {
      EXPECT_FALSE(step.items.empty());
      for (int item : step.items) {
        EXPECT_GE(item, 0);
        EXPECT_LT(item, d.num_items);
      }
    }
  }
}

TEST(GeneratorTest, TrueClusterGraphIsDagWithEdges) {
  Dataset d = TinyData();
  EXPECT_TRUE(d.true_cluster_graph.IsDag());
  EXPECT_GE(d.true_cluster_graph.NumEdges(), 1);
}

TEST(GeneratorTest, EveryClusterNonEmpty) {
  Dataset d = TinyData();
  std::set<int> used(d.item_true_cluster.begin(), d.item_true_cluster.end());
  EXPECT_EQ(static_cast<int>(used.size()), TinySpec().num_clusters);
}

TEST(GeneratorTest, CauseLabelsAreConsistent) {
  // Every recorded cause must (a) point to an earlier step, (b) name an
  // item that is actually in that step, and (c) respect the true cluster
  // DAG: cluster(cause) -> cluster(effect).
  Dataset d = TinyData();
  int checked = 0;
  for (const auto& seq : d.sequences) {
    for (size_t t = 0; t < seq.steps.size(); ++t) {
      const Step& step = seq.steps[t];
      ASSERT_EQ(step.items.size(), step.cause_step.size());
      ASSERT_EQ(step.items.size(), step.cause_item.size());
      for (size_t k = 0; k < step.items.size(); ++k) {
        if (step.cause_step[k] < 0) continue;
        ++checked;
        int cs = step.cause_step[k];
        int ci = step.cause_item[k];
        EXPECT_LT(cs, static_cast<int>(t));
        const auto& cause_items = seq.steps[cs].items;
        EXPECT_TRUE(std::find(cause_items.begin(), cause_items.end(), ci) !=
                    cause_items.end());
        int c_from = d.item_true_cluster[ci];
        int c_to = d.item_true_cluster[step.items[k]];
        EXPECT_TRUE(d.true_cluster_graph.Edge(c_from, c_to))
            << c_from << "->" << c_to;
      }
    }
  }
  EXPECT_GT(checked, 20);  // the causal mechanism fired often
}

TEST(GeneratorTest, CausalInteractionsFrequent) {
  Dataset d = TinyData();
  int causal = 0, total = 0;
  for (const auto& seq : d.sequences) {
    for (const auto& step : seq.steps) {
      for (int cs : step.cause_step) {
        ++total;
        if (cs >= 0) ++causal;
      }
    }
  }
  // causal_prob is 0.75, but the first step can never be causal and a
  // picked cause whose cluster has no children falls through to noise.
  EXPECT_GT(static_cast<double>(causal) / total, 0.1);
}

TEST(GeneratorTest, FeaturesClusterSeparable) {
  // Items in the same cluster must be closer in feature space on average
  // than items in different clusters.
  Dataset d = TinyData();
  auto dist2 = [&](int a, int b) {
    double s = 0;
    for (size_t f = 0; f < d.item_features[a].size(); ++f) {
      double diff = d.item_features[a][f] - d.item_features[b][f];
      s += diff * diff;
    }
    return s;
  };
  double same = 0, cross = 0;
  int same_n = 0, cross_n = 0;
  for (int a = 0; a < d.num_items; ++a) {
    for (int b = a + 1; b < d.num_items; ++b) {
      if (d.item_true_cluster[a] == d.item_true_cluster[b]) {
        same += dist2(a, b);
        ++same_n;
      } else {
        cross += dist2(a, b);
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(cross_n, 0);
  EXPECT_LT(same / same_n, cross / cross_n);
}

TEST(GeneratorTest, BasketModeProducesMultiItemSteps) {
  DatasetSpec spec = TinySpec();
  spec.basket_extend_prob = 0.5;
  Dataset d = MakeDataset(spec);
  EXPECT_TRUE(d.basket_mode);
  int multi = 0;
  for (const auto& seq : d.sequences) {
    for (const auto& step : seq.steps) {
      EXPECT_LE(step.items.size(), 4u);
      if (step.items.size() > 1) ++multi;
      std::set<int> unique(step.items.begin(), step.items.end());
      EXPECT_EQ(unique.size(), step.items.size());  // no duplicates
    }
  }
  EXPECT_GT(multi, 10);
}

TEST(GeneratorTest, PaperSpecsAllGenerate) {
  for (const auto& spec : AllPaperSpecs()) {
    Dataset d = MakeDataset(spec);
    EXPECT_EQ(d.name, spec.name);
    EXPECT_GT(d.NumInteractions(), 0);
    EXPECT_TRUE(d.true_cluster_graph.IsDag());
  }
}

TEST(SpecsTest, NamesMatchPaper) {
  EXPECT_EQ(SpecFor(PaperDataset::kEpinions).name, "Epinions");
  EXPECT_EQ(SpecFor(PaperDataset::kFoursquare).name, "Foursquare");
  EXPECT_EQ(SpecFor(PaperDataset::kPatio).name, "Patio");
  EXPECT_EQ(SpecFor(PaperDataset::kBaby).name, "Baby");
  EXPECT_EQ(SpecFor(PaperDataset::kVideo).name, "Video");
}

TEST(SpecsTest, RelativeShapesPreserved) {
  // Foursquare has the longest sequences; Epinions the fewest items.
  auto four = MakeDataset(SpecFor(PaperDataset::kFoursquare));
  auto epin = MakeDataset(SpecFor(PaperDataset::kEpinions));
  auto baby = MakeDataset(SpecFor(PaperDataset::kBaby));
  EXPECT_GT(four.AvgSequenceLength(), 2 * baby.AvgSequenceLength());
  EXPECT_LT(epin.num_items, four.num_items);
  // Baby is homogeneous: fewer clusters than Epinions (paper V-C1).
  EXPECT_LT(baby.true_cluster_graph.n(), epin.true_cluster_graph.n());
}

TEST(StatsTest, CountsConsistent) {
  Dataset d = TinyData();
  DatasetStats s = ComputeStats(d);
  EXPECT_EQ(s.num_users, d.num_users);
  EXPECT_EQ(s.num_interactions, d.NumInteractions());
  EXPECT_NEAR(s.avg_seq_len,
              static_cast<double>(s.num_interactions) / s.num_users, 1e-9);
  EXPECT_NEAR(s.sparsity,
              1.0 - static_cast<double>(s.num_interactions) /
                        (d.num_users * d.num_items),
              1e-9);
  EXPECT_GT(s.sparsity, 0.5);
}

TEST(StatsTest, HistogramPartitionsUsers) {
  Dataset d = TinyData();
  auto h = SequenceLengthHistogram(d, {0, 3, 5, 10});
  int total = 0;
  for (int c : h) total += c;
  EXPECT_EQ(total, d.num_users);
  EXPECT_EQ(h.size(), 4u);  // 3 buckets + overflow
}

TEST(SplitTest, ProtocolSizes) {
  Dataset d = TinyData();  // min_len = 3, so every user has test + val
  Split s = LeaveLastOut(d);
  EXPECT_EQ(static_cast<int>(s.test.size()), d.num_users);
  EXPECT_EQ(static_cast<int>(s.validation.size()), d.num_users);
  EXPECT_LE(s.train.size(), d.sequences.size());
}

TEST(SplitTest, HistoryPrecedesTarget) {
  Dataset d = TinyData();
  Split s = LeaveLastOut(d);
  for (const auto& inst : s.test) {
    const auto& seq = d.sequences[inst.user];
    EXPECT_EQ(inst.history.size(), seq.steps.size() - 1);
    EXPECT_EQ(inst.target_items, seq.steps.back().items);
  }
  for (const auto& inst : s.validation) {
    const auto& seq = d.sequences[inst.user];
    EXPECT_EQ(inst.history.size(), seq.steps.size() - 2);
  }
}

TEST(SplitTest, TrainPrefixExcludesHeldOut) {
  Dataset d = TinyData();
  Split s = LeaveLastOut(d);
  for (const auto& seq : s.train) {
    const auto& full = d.sequences[seq.user];
    EXPECT_EQ(seq.steps.size(), full.steps.size() - 2);
    EXPECT_GE(seq.steps.size(), 2u);
  }
}

TEST(SplitTest, ShortSequencesHandled) {
  Dataset d;
  d.num_users = 3;
  d.num_items = 5;
  Sequence one;
  one.user = 0;
  one.steps.push_back({{1}, {-1}, {-1}});
  Sequence two;
  two.user = 1;
  two.steps.push_back({{1}, {-1}, {-1}});
  two.steps.push_back({{2}, {0}, {1}});
  d.sequences = {one, two};
  Split s = LeaveLastOut(d);
  EXPECT_EQ(s.test.size(), 1u);       // only the 2-step user
  EXPECT_TRUE(s.validation.empty());
  EXPECT_TRUE(s.train.empty());
}

TEST(SamplerTest, NegativesExcludePositives) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    auto negs = SampleNegatives(20, {3, 7}, 5, rng);
    EXPECT_EQ(negs.size(), 5u);
    std::set<int> unique(negs.begin(), negs.end());
    EXPECT_EQ(unique.size(), 5u);
    for (int n : negs) {
      EXPECT_NE(n, 3);
      EXPECT_NE(n, 7);
      EXPECT_GE(n, 0);
      EXPECT_LT(n, 20);
    }
  }
}

TEST(SamplerTest, ExhaustiveSampling) {
  Rng rng(5);
  auto negs = SampleNegatives(5, {0}, 4, rng);
  std::set<int> unique(negs.begin(), negs.end());
  EXPECT_EQ(unique, (std::set<int>{1, 2, 3, 4}));
}

TEST(SamplerTest, DuplicatedPositivesDoNotShrinkCapacity) {
  // Multi-hot steps can repeat an item, so the positives list may contain
  // duplicates. Capacity is bounded by the number of *distinct* positives:
  // with 2 distinct positives in a 100-item catalog, k = 98 must succeed
  // (a naive size() check would see 5 positives and reject it).
  Rng rng(6);
  auto negs = SampleNegatives(100, {1, 1, 1, 2, 2}, 98, rng);
  ASSERT_EQ(negs.size(), 98u);
  std::set<int> unique(negs.begin(), negs.end());
  EXPECT_EQ(unique.size(), 98u);  // all distinct
  EXPECT_EQ(unique.count(1), 0u);
  EXPECT_EQ(unique.count(2), 0u);
  for (int n : negs) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, 100);
  }
}

TEST(SamplerTest, EnumerateExamplesSkipsFirstStep) {
  Dataset d = TinyData();
  auto examples = EnumerateExamples(d.sequences);
  for (const auto& ex : examples) {
    EXPECT_GE(ex.target_step, 1);
    EXPECT_LT(ex.target_step, static_cast<int>(ex.sequence->steps.size()));
  }
  int expected = 0;
  for (const auto& seq : d.sequences)
    expected += static_cast<int>(seq.steps.size()) - 1;
  EXPECT_EQ(static_cast<int>(examples.size()), expected);
}

}  // namespace
}  // namespace causer::data
