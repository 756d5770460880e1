#include "data/specs.h"

#include "common/log.h"

namespace causer::data {

DatasetSpec SpecFor(PaperDataset which) {
  DatasetSpec s;
  switch (which) {
    case PaperDataset::kEpinions:
      // Paper: 1,530 users / 683 items / 4,600 inter / seqlen 3.01.
      // Diverse catalog -> many true clusters.
      s.name = "Epinions";
      s.seed = 101;
      s.num_users = 360;
      s.num_items = 170;
      s.num_clusters = 16;
      s.min_len = 3;
      s.max_len = 9;
      s.len_stop_prob = 0.5;
      s.causal_prob = 0.7;
      s.sibling_prob = 0.2;
      break;
    case PaperDataset::kFoursquare:
      // Paper: 2,292 users / 5,494 items / 120,736 inter / seqlen 52.68.
      // Long check-in sequences, basket-free.
      s.name = "Foursquare";
      s.seed = 102;
      s.num_users = 240;
      s.num_items = 420;
      s.num_clusters = 12;
      s.min_len = 12;
      s.max_len = 48;
      s.len_stop_prob = 0.08;
      // Check-in behaviour is dominated by where the user just was rather
      // than by stable per-user taste: strong causal chaining, mild
      // affinity.
      s.causal_prob = 0.75;
      s.sibling_prob = 0.15;
      s.user_affinity_concentration = 0.6;
      s.feature_dim = 8;     // GPS-like low-dimensional raw features
      s.feature_noise = 0.1;  // venue coordinates are precise
      break;
    case PaperDataset::kPatio:
      // Paper: 7,153 users / 2,952 items / 29,625 inter / seqlen 4.14.
      s.name = "Patio";
      s.seed = 103;
      s.num_users = 700;
      s.num_items = 260;
      s.num_clusters = 10;
      s.min_len = 2;
      s.max_len = 10;
      s.len_stop_prob = 0.45;
      s.basket_extend_prob = 0.1;
      break;
    case PaperDataset::kBaby:
      // Paper: 16,898 users / 6,178 items / 77,046 inter / seqlen 4.56.
      // Homogeneous catalog -> few true clusters (paper Section V-C1).
      s.name = "Baby";
      s.seed = 104;
      s.num_users = 900;
      s.num_items = 320;
      s.num_clusters = 5;
      s.min_len = 2;
      s.max_len = 12;
      s.len_stop_prob = 0.42;
      s.basket_extend_prob = 0.1;
      break;
    case PaperDataset::kVideo:
      // Paper: 19,939 users / 9,275 items / 142,658 inter / seqlen 7.15.
      s.name = "Video";
      s.seed = 105;
      s.num_users = 1000;
      s.num_items = 380;
      s.num_clusters = 12;
      s.min_len = 3;
      s.max_len = 16;
      s.len_stop_prob = 0.28;
      s.basket_extend_prob = 0.05;
      break;
  }
  return s;
}

std::vector<DatasetSpec> AllPaperSpecs() {
  return {SpecFor(PaperDataset::kEpinions), SpecFor(PaperDataset::kFoursquare),
          SpecFor(PaperDataset::kPatio), SpecFor(PaperDataset::kBaby),
          SpecFor(PaperDataset::kVideo)};
}

DatasetSpec TinySpec() {
  DatasetSpec s;
  s.name = "Tiny";
  s.seed = 42;
  s.num_users = 60;
  s.num_items = 40;
  s.feature_dim = 8;
  s.num_clusters = 4;
  s.cluster_edge_prob = 0.5;
  s.min_len = 3;
  s.max_len = 8;
  s.len_stop_prob = 0.4;
  return s;
}

}  // namespace causer::data
