// Thread-pool scaling benchmark for the parallel training/eval engine.
//
// Sweeps the shared pool over 1/2/4/8 threads on the Table-IV-style
// synthetic workload (the bench_efficiency dataset) and measures:
//   (1) mini-batch training throughput (GRU4Rec, batch_size 8, per-worker
//       gradient buffers, one optimizer step per batch);
//   (2) evaluation throughput (instance-sharded Evaluate).
// It also asserts the engine's determinism contracts while it runs: the
// evaluation metrics must be bit-identical at every thread count, and
// batched training must be reproducible for a fixed thread count.
//
// Epochs and evaluation passes are timed by bench::TimeCalls (one warm-up
// call, then N timed calls); speedups compare medians. Writes a
// BENCH_parallel.json report (path = the one positional argument, default
// ./BENCH_parallel.json; any flag exits 2). Speedups are relative to
// threads=1 on the same machine; on single-core hosts expect ~1x (the
// report records the core count so the numbers can be judged in context).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"

namespace {

using namespace causer;

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kTrainEpochs = 3;  // timed epochs per thread count
constexpr int kEvalRepeats = 3;  // timed Evaluate passes per thread count

const data::Dataset& BenchData() {
  static data::Dataset d = [] {
    data::DatasetSpec spec = data::TinySpec();
    spec.num_users = 200;
    spec.num_items = 120;
    spec.num_clusters = 8;
    spec.min_len = 4;
    spec.max_len = 12;
    return data::MakeDataset(spec);
  }();
  return d;
}

const data::Split& BenchSplit() {
  static data::Split s = data::LeaveLastOut(BenchData());
  return s;
}

models::ModelConfig BatchedConfig() {
  models::ModelConfig cfg = bench::BaseConfig(BenchData());
  cfg.batch_size = 8;
  return cfg;
}

struct ThreadRun {
  int threads = 0;
  bench::Timing epoch_us, eval_us;
  double train_seconds_per_epoch = 0.0;  // at the median epoch
  double train_examples_per_sec = 0.0;
  double eval_seconds = 0.0;  // at the median pass
  double eval_instances_per_sec = 0.0;
  double final_loss = 0.0;
  bool eval_bit_identical = true;
};

int NumExamplesPerEpoch() {
  return static_cast<int>(
      data::EnumerateExamples(BenchSplit().train).size());
}

ThreadRun RunAtThreadCount(int threads) {
  SetDefaultThreads(threads);
  ThreadRun run;
  run.threads = threads;

  // --- training ---
  models::Gru4Rec model(BatchedConfig());
  run.epoch_us = bench::TimeCalls(
      [&] { run.final_loss = model.TrainEpoch(BenchSplit().train); },
      kTrainEpochs);
  run.train_seconds_per_epoch = run.epoch_us.median * 1e-6;
  run.train_examples_per_sec =
      NumExamplesPerEpoch() / run.train_seconds_per_epoch;

  // --- evaluation ---
  auto scorer = models::MakeScorer(model);
  eval::EvalResult result;
  run.eval_us = bench::TimeCalls(
      [&] { result = eval::Evaluate(scorer, BenchSplit().test, 5, threads); },
      kEvalRepeats);
  run.eval_seconds = run.eval_us.median * 1e-6;
  run.eval_instances_per_sec = BenchSplit().test.size() / run.eval_seconds;

  // Contract: Evaluate's instance-order merge makes metrics bit-identical
  // at every thread count. (Models differ across thread counts — gradient
  // reduce order — so compare against a fixed-model reference instead.)
  eval::EvalResult sequential =
      eval::Evaluate(scorer, BenchSplit().test, 5, /*threads=*/1);
  run.eval_bit_identical = result.f1 == sequential.f1 &&
                           result.ndcg == sequential.ndcg &&
                           result.per_instance_ndcg ==
                               sequential.per_instance_ndcg;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      bench::ParseBenchArgs(argc, argv, "BENCH_parallel.json",
                            /*has_smoke=*/false)
          .report;
  bench::PrintHeader(
      "Thread-pool scaling: mini-batch training + sharded evaluation",
      "Wang et al., ICDE 2023 (Table IV workload; engine addition)");

  const int cores =
      static_cast<int>(std::thread::hardware_concurrency());
  std::printf("hardware threads: %d, workload: %d train examples, "
              "%zu test instances\n\n",
              cores, NumExamplesPerEpoch(), BenchSplit().test.size());

  // Fixed-thread-count determinism spot check before timing anything.
  {
    SetDefaultThreads(4);
    models::Gru4Rec a(BatchedConfig());
    models::Gru4Rec b(BatchedConfig());
    double la = a.TrainEpoch(BenchSplit().train);
    double lb = b.TrainEpoch(BenchSplit().train);
    if (la != lb) {
      std::fprintf(stderr,
                   "FATAL: batched training not reproducible at a fixed "
                   "thread count (%.17g vs %.17g)\n", la, lb);
      return 1;
    }
    SetDefaultThreads(1);
  }

  std::vector<ThreadRun> runs;
  for (int threads : kThreadCounts) runs.push_back(RunAtThreadCount(threads));
  SetDefaultThreads(1);

  const ThreadRun& base = runs.front();
  std::printf("(median epoch and evaluation pass; the report has p10/p90)\n");
  std::printf("%8s %14s %14s %10s %14s %10s %6s\n", "threads", "s/epoch",
              "train ex/s", "speedup", "eval inst/s", "speedup", "exact");
  std::vector<std::string> rows;
  bool all_identical = true;
  for (const ThreadRun& run : runs) {
    double train_speedup =
        base.train_seconds_per_epoch / run.train_seconds_per_epoch;
    double eval_speedup = run.eval_instances_per_sec /
                          base.eval_instances_per_sec;
    all_identical = all_identical && run.eval_bit_identical;
    std::printf("%8d %14.3f %14.1f %9.2fx %14.1f %9.2fx %6s\n", run.threads,
                run.train_seconds_per_epoch, run.train_examples_per_sec,
                train_speedup, run.eval_instances_per_sec, eval_speedup,
                run.eval_bit_identical ? "yes" : "NO");
    bench::JsonObject row;
    row.Set("threads", run.threads)
        .Set("train_seconds_per_epoch", run.train_seconds_per_epoch)
        .SetRaw("train_epoch_us", bench::TimingJson(run.epoch_us))
        .Set("train_examples_per_sec", run.train_examples_per_sec)
        .Set("train_speedup_vs_1", train_speedup)
        .Set("eval_seconds", run.eval_seconds)
        .SetRaw("eval_pass_us", bench::TimingJson(run.eval_us))
        .Set("eval_instances_per_sec", run.eval_instances_per_sec)
        .Set("eval_speedup_vs_1", eval_speedup)
        .Set("final_epoch_loss", run.final_loss)
        .Set("eval_metrics_bit_identical", run.eval_bit_identical);
    rows.push_back(row.Str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: parallel evaluation metrics diverged from the "
                 "sequential evaluator\n");
    return 1;
  }
  std::printf("\nevaluation metrics bit-identical across all thread "
              "counts: yes\n");

  bench::JsonObject report;
  report.Set("bench", std::string("bench_parallel"))
      .Set("workload",
           std::string("TinySpec scaled to 200 users / 120 items, GRU4Rec, "
                       "batch_size 8, z=5"))
      .Set("hardware_threads", cores)
      .Set("train_examples_per_epoch", NumExamplesPerEpoch())
      .Set("test_instances", static_cast<int>(BenchSplit().test.size()))
      .SetRaw("runs", bench::JsonArray(rows));
  if (!bench::WriteTextFile(out_path, report.Str())) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("report -> %s\n", out_path.c_str());
  return 0;
}
