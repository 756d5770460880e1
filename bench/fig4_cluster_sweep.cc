// Reproduces Fig. 4: influence of the number of latent clusters K on
// NDCG@5, for Baby and Epinions, with both GRU and LSTM backbones.
// Paper finding: an intermediate K is best; homogeneous Baby prefers a
// small K while diverse Epinions prefers a larger one; very small and very
// large K both hurt.
//
// Each run also scores what Causer discovered against the generator's
// planted truth: the purity of its hard item clusters and the F1 of its
// learned cluster graph's edges after majority mapping to the true
// clusters.

#include <cstdio>

#include "bench_util.h"
#include "eval/analysis.h"

int main() {
  using causer::Table;
  using namespace causer;
  bench::PrintHeader("Fig. 4: influence of the cluster count K (NDCG@5, %)",
                     "paper Fig. 4");

  const std::vector<int> ks = {2, 4, 6, 8, 12, 16, 24, 32};
  for (auto which : {data::PaperDataset::kBaby, data::PaperDataset::kEpinions}) {
    auto dataset = data::MakeDataset(data::SpecFor(which));
    auto split = data::LeaveLastOut(dataset);
    std::printf("\n%s (generator truth: %d clusters)\n", dataset.name.c_str(),
                dataset.true_cluster_graph.n());
    Table t({"K", "Causer (GRU)", "purity", "edge F1", "Causer (LSTM)",
             "purity", "edge F1"});
    for (int k : ks) {
      std::vector<std::string> row = {std::to_string(k)};
      for (auto backbone : {core::Backbone::kGru, core::Backbone::kLstm}) {
        auto cfg = bench::TunedCauserConfig(dataset, backbone);
        cfg.num_clusters = k;
        core::CauserModel model(cfg);
        auto run = bench::RunCauser(model, split, bench::CauserTrainConfig());
        const std::vector<int> clusters = model.clusterer().HardAssignments();
        const double purity =
            eval::ClusterPurity(clusters, dataset.item_true_cluster);
        const double edge_f1 =
            eval::CompareEdgesMapped(model.LearnedClusterGraph(),
                                     dataset.true_cluster_graph, clusters,
                                     dataset.item_true_cluster)
                .f1;
        row.push_back(Table::Fmt(run.ndcg, 2));
        row.push_back(Table::Fmt(purity, 2));
        row.push_back(Table::Fmt(edge_f1, 2));
        std::fprintf(stderr,
                     "[fig4] %s K=%d %s NDCG %.2f purity %.2f edge F1 %.2f "
                     "(%.0fs)\n",
                     dataset.name.c_str(), k, run.name.c_str(), run.ndcg,
                     purity, edge_f1, run.train_seconds);
      }
      t.AddRow(row);
    }
    std::printf("%s", t.ToString().c_str());
  }
  std::printf(
      "Shape check: performance peaks near the generator's true cluster\n"
      "count and degrades for K too small (clusters not expressive) or too\n"
      "large (over-parameterized graph), mirroring the paper's Fig. 4.\n"
      "purity: share of items whose hard cluster's majority true cluster is\n"
      "their own; edge F1: learned cluster-graph edges against the planted\n"
      "graph after mapping each learned cluster to its majority true one.\n");
  return 0;
}
