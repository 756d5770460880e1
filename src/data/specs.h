#ifndef CAUSER_DATA_SPECS_H_
#define CAUSER_DATA_SPECS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace causer::data {

/// Parameters of the synthetic causal interaction generator.
///
/// Sequences are generated from a ground-truth cluster-level causal DAG:
/// with probability `causal_prob` the next interaction is an *effect* of a
/// previously interacted item (its cluster's child in the DAG); otherwise it
/// is exploration noise drawn from a popularity (Zipf) distribution. With
/// probability `sibling_prob` a causal emission is followed by a sibling
/// effect of the same cause from a different child cluster — this plants
/// exactly the confounded co-occurrence pattern of the paper's
/// printer -> {paper, ink box} example, which attention-based models latch
/// onto and causal filtering should reject.
struct DatasetSpec {
  std::string name;
  uint64_t seed = 1;

  int num_users = 100;
  int num_items = 100;
  int feature_dim = 16;

  /// Ground-truth cluster structure.
  int num_clusters = 8;
  double cluster_edge_prob = 0.3;

  /// Sequence length model: min_len + TruncatedGeometric(len_stop_prob).
  int min_len = 3;
  int max_len = 20;
  double len_stop_prob = 0.35;

  /// Behaviour mixture.
  double causal_prob = 0.75;
  double sibling_prob = 0.25;

  /// Zipf exponent for item popularity inside a cluster and globally.
  double zipf_exponent = 1.0;

  /// Item feature noise around the cluster center.
  double feature_noise = 0.35;

  /// Next-basket mode: probability of adding one more item to the current
  /// basket (0 disables baskets; every step then holds one item).
  double basket_extend_prob = 0.0;

  /// Strength of per-user cluster affinity (higher = more personalized).
  double user_affinity_concentration = 1.0;
};

/// The five datasets of the paper's Table II, scaled down so every model in
/// the comparison trains on CPU in seconds. Relative characteristics are
/// preserved: Foursquare-like has long sequences and many items per user;
/// the Amazon-like specs are short and sparse; Epinions is tiny and very
/// sparse; Baby is homogeneous (few clusters); Epinions is diverse (many
/// clusters, matching the paper's Section V-C1 discussion).
enum class PaperDataset { kEpinions, kFoursquare, kPatio, kBaby, kVideo };

/// Spec reproducing the named paper dataset's shape.
DatasetSpec SpecFor(PaperDataset which);

/// All five specs, in the paper's Table II order.
std::vector<DatasetSpec> AllPaperSpecs();

/// A deliberately tiny spec for unit tests (fast to generate and train on).
DatasetSpec TinySpec();

}  // namespace causer::data

#endif  // CAUSER_DATA_SPECS_H_
