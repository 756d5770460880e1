// `perfbench train`: the training job of the traced serve-causer-churn run
// — core::TrainCauser on the Foursquare-shaped split for a fixed number of
// epochs, then the full-ranking test eval::Evaluate, repeated for a median.
//
// Epoch wall times come from the trainer's own per-epoch hook
// (TrainConfig::checkpoint_save, used here only as a clock). With --metrics
// the program's registry is on for the whole run, and the per-layer
// counters are read back from it at the end.
#include <cmath>
#include <cstdio>

#include "common.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/causer_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/specs.h"
#include "data/split.h"
#include "eval/evaluator.h"

namespace perfbench {

using namespace causer;

namespace {

const metrics::SnapshotEntry* FindEntry(
    const std::vector<metrics::SnapshotEntry>& snap, const std::string& name) {
  for (const auto& e : snap) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

double HistSum(const std::vector<metrics::SnapshotEntry>& snap,
               const std::string& name) {
  const auto* e = FindEntry(snap, name);
  return e ? e->value : 0.0;
}

double Count(const std::vector<metrics::SnapshotEntry>& snap,
             const std::string& name) {
  const auto* e = FindEntry(snap, name);
  return e ? static_cast<double>(e->count) : 0.0;
}

}  // namespace

int CmdTrain(const Flags& flags) {
  const bool toy = flags.GetBool("toy", false);
  const WorkloadSpec* spec = FindWorkload(flags.GetString("workload"), toy);
  const std::string out_path = flags.GetString("out");
  if (spec == nullptr || spec->serve || out_path.empty()) {
    std::fprintf(stderr, "perfbench train: bad arguments\n");
    return 2;
  }
  const int threads = std::clamp(flags.GetInt("threads", kThreads), 1,
                                 kThreads);
  const bool measure = flags.GetBool("metrics", false);
  // Training runs its per-example steps on one thread: a second pool thread
  // only adds a fork/join per small matmul and makes the epoch slower and
  // noisier. The evaluation shards users across `threads`.
  SetDefaultThreads(1);

  // -- set-up --------------------------------------------------------------
  const data::DatasetSpec dspec =
      toy ? data::TinySpec() : data::SpecFor(data::PaperDataset::kFoursquare);
  const data::Dataset dataset = data::MakeDataset(dspec);
  const data::Split split = data::LeaveLastOut(dataset);
  core::CauserModel model(
      core::DefaultCauserConfig(dataset, core::Backbone::kGru, 7));
  long interactions = 0;
  for (const data::Sequence& seq : split.train) {
    interactions += static_cast<long>(seq.steps.size());
  }

  // -- training ------------------------------------------------------------
  if (measure) metrics::SetEnabled(true);
  std::vector<double> epoch_s;
  Clock::time_point mark = Clock::now();
  models::TrainConfig tc;
  tc.max_epochs = spec->train_epochs;
  tc.patience = spec->train_epochs;
  tc.checkpoint_every = 1;
  tc.checkpoint_save = [&](const models::FitResumeState&) {
    epoch_s.push_back(SecondsSince(mark));
    mark = Clock::now();
    return true;
  };
  const Clock::time_point train0 = Clock::now();
  core::CauserTrainResult result = core::TrainCauser(model, split, tc);
  const double train_s = SecondsSince(train0);
  bool finite = !result.fit.epoch_losses.empty() &&
                !result.fit.stopped_unhealthy;
  for (double loss : result.fit.epoch_losses) {
    finite = finite && std::isfinite(loss);
  }
  const std::vector<metrics::SnapshotEntry> train_snap =
      measure ? metrics::Snapshot() : std::vector<metrics::SnapshotEntry>{};

  // -- evaluation ----------------------------------------------------------
  SetDefaultThreads(threads);
  const eval::Scorer scorer = models::MakeScorer(model);
  std::vector<double> eval_s;
  double ndcg = -1;
  bool reproducible = true;
  // Registry deltas around the evaluations only (pool busy share).
  const double shard_before =
      measure ? HistSum(metrics::Snapshot(), "threadpool.shard_seconds") : 0;
  const double inst_before =
      measure ? Count(metrics::Snapshot(), "eval.instances_total") : 0;
  for (int r = 0; r < std::max(1, spec->eval_repeats); ++r) {
    const Clock::time_point e0 = Clock::now();
    eval::EvalResult ev = eval::Evaluate(scorer, split.test, 5, threads);
    eval_s.push_back(SecondsSince(e0));
    if (r > 0 && ev.ndcg != ndcg) reproducible = false;
    ndcg = ev.ndcg;
  }
  const std::vector<metrics::SnapshotEntry> snap =
      measure ? metrics::Snapshot() : std::vector<metrics::SnapshotEntry>{};
  double eval_total = 0;
  for (double s : eval_s) eval_total += s;

  if (flags.GetBool("corrupt", false)) ndcg = std::nextafter(ndcg, 2.0);
  char ndcg_hex[64];
  std::snprintf(ndcg_hex, sizeof(ndcg_hex), "%a", ndcg);

  Json out;
  out.Str("workload", spec->name)
      .Int("threads", threads)
      .Raw("epoch_s", JsonArray(epoch_s))
      .Num("train_s", train_s)
      .Raw("epoch_losses", JsonArray(result.fit.epoch_losses))
      .Bool("loss_finite", finite)
      .Int("train_interactions", interactions)
      .Raw("eval_s", JsonArray(eval_s))
      .Int("eval_instances", static_cast<long long>(split.test.size()))
      .Num("ndcg_at_5", ndcg)
      .Str("ndcg_hex", ndcg_hex)
      .Bool("eval_reproducible", reproducible)
      .Num("final_acyclicity", result.final_acyclicity)
      .Raw("provenance", ProvenanceJson());
  if (measure) {
    const double steps = Count(train_snap, "trainer.optimizer_steps_total");
    const double arena_resets = Count(train_snap, "tensor.arena.reset_bytes");
    out.Num("core.steps", steps)
        .Num("core.train_step_ms",
             1e3 * HistSum(train_snap, "trainer.step_seconds") /
                 std::max(1.0, Count(train_snap, "trainer.step_seconds")))
        .Num("tensor.arena.bytes_per_step",
             HistSum(train_snap, "tensor.arena.reset_bytes") /
                 std::max(1.0, arena_resets))
        .Num("causal.matrix_exp_calls",
             Count(train_snap, "causal.matrix_exp_calls_total"))
        .Num("eval.instances_per_s",
             (Count(snap, "eval.instances_total") - inst_before) /
                 std::max(1e-9, eval_total))
        .Num("common.thread_pool.busy_share",
             (HistSum(snap, "threadpool.shard_seconds") - shard_before) /
                 std::max(1e-9, eval_total * threads));
  }
  if (!WriteFile(out_path, out.Done())) return 1;
  return finite && reproducible ? 0 : 3;
}

}  // namespace perfbench
