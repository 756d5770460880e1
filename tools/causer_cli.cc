// causer_cli: command-line front end to the library.
//
// Subcommands:
//   generate  --spec=<tiny|epinions|foursquare|patio|baby|video>
//             --out=<dir> [--seed=N]
//     Generates a synthetic causal dataset and saves it as TSV.
//
//   train     --data=<dir> --model-out=<file>
//             [--backbone=gru|lstm] [--epochs=N] [--clusters=K]
//             [--epsilon=X] [--eta=X] [--lambda=X] [--seed=N]
//     Trains Causer on a saved dataset and writes the weights.
//
//   evaluate  --data=<dir> --model=<file> [--backbone=...] [--clusters=K]
//             [--epsilon=X] [--eta=X] [--z=5]
//     Evaluates a trained model on the leave-last-out test split.
//
//   explain   --data=<dir> --model=<file> --user=U [--top=3] [...]
//     Prints the user's recommendation with per-step causal explanation.
//
//   serve     --data=<dir> --model=<file>
//             [--batch-max=N] [--max-sessions=N]
//             [--serve-port=N] [--deadline-ms=N] [--queue-depth=N]
//             [--quantize=MODE] [--rerank-k=N] [--reload-watch=DIR]
//             [--reload-poll-ms=N] [--conn-idle-timeout-ms=N]
//             [--score-shards=N]
//     Binds the TCP front-end (src/serve/server.h, wire format in
//     src/serve/protocol.h) on --serve-port (default 0 = ephemeral) and
//     serves until SIGINT/SIGTERM, then drains gracefully. SIGHUP (or
//     a kReload control frame) hot-reloads the model with zero downtime —
//     from the newest checkpoint in --reload-watch when set, else by
//     re-reading --model; --reload-watch is also polled so new
//     checkpoints are picked up without a signal.
//
// Model files carry only weights; the architecture flags at evaluate /
// explain time must match those used at training time.
//
// All subcommands accept --threads=N (default 1, or the CAUSER_THREADS
// environment variable) to parallelize evaluation and large matmuls, plus
// the observability flags --metrics-out / --trace-out / --metrics-interval
// (instrumentation stays compiled out of the hot path until one of them
// turns it on). Run `causer_cli --help` for the full flag reference.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/fault.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/net.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/checkpoint.h"
#include "core/explainer.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/split.h"
#include "data/stats.h"
#include "eval/metrics.h"
#include "nn/serialization.h"
#include "serve/engine.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "tensor/arena.h"

namespace {

using namespace causer;

int Usage() {
  std::fprintf(stderr,
               "usage: causer_cli <generate|train|evaluate|explain|serve> "
               "[--flags]\n(run causer_cli --help for the flag reference)\n");
  return 2;
}

// The flag table below is the source of truth for the README's CLI
// reference: tools/check_docs.sh diffs the `--name` tokens printed here
// against the table between the causer-cli-flags markers in README.md.
int PrintHelp() {
  std::printf(
      "usage: causer_cli <generate|train|evaluate|explain|serve> "
      "[flags...]\n"
      "\n"
      "subcommands:\n"
      "  generate   Generate a synthetic causal dataset and save it as TSV.\n"
      "  train      Train Causer on a saved dataset and write the weights.\n"
      "  evaluate   Evaluate a trained model on the leave-last-out split.\n"
      "  explain    Print a recommendation with per-step causal "
      "explanation.\n"
      "  serve      Serve recommendations over TCP until SIGINT/SIGTERM "
      "(hot reload on SIGHUP).\n"
      "\n"
      "generate flags:\n"
      "  --spec=NAME          Dataset spec: tiny, epinions, foursquare, "
      "patio, baby, video (default tiny).\n"
      "  --out=DIR            Output directory for the TSV dataset "
      "(required).\n"
      "\n"
      "train flags:\n"
      "  --data=DIR           Dataset directory (required).\n"
      "  --model-out=FILE     Where to write the trained weights "
      "(required).\n"
      "  --epochs=N           Max training epochs (default 12).\n"
      "  --patience=N         Early-stopping patience in epochs (default "
      "3).\n"
      "  --verbose=BOOL       Log per-epoch loss and validation NDCG.\n"
      "  --checkpoint-dir=DIR Write atomic training checkpoints here and "
      "enable crash recovery (docs/ROBUSTNESS.md).\n"
      "  --checkpoint-every=N Epochs between checkpoints (default 1).\n"
      "  --resume=BOOL        Resume from the newest loadable checkpoint "
      "in --checkpoint-dir before the first epoch.\n"
      "\n"
      "evaluate / explain flags:\n"
      "  --model=FILE         Trained weights to load (required).\n"
      "  --z=N                Ranking cutoff for F1@z / NDCG@z (default "
      "5).\n"
      "  --user=U             explain: user whose test instance to explain "
      "(default 0).\n"
      "  --top=N              explain: number of recommendations to "
      "explain (default 3); serve: recommendations per response (default "
      "10).\n"
      "\n"
      "serve flags (plus --data / --model / --top above):\n"
      "  --batch-max=N        Most queued requests a server worker scores "
      "as one batch (default 32).\n"
      "  --max-sessions=N     Session-store LRU capacity (default 0 = "
      "unbounded).\n"
      "  --serve-port=N       Bind the TCP front-end on this port (default "
      "0 = ephemeral; serves until SIGINT/SIGTERM, then drains "
      "gracefully).\n"
      "  --deadline-ms=N      Default per-request deadline applied when a "
      "frame carries none; expired requests are rejected before scoring "
      "(default 0 = no deadline).\n"
      "  --queue-depth=N      Admission cap across both priority lanes; "
      "arrivals beyond it are rejected with QUEUE_FULL (default 256).\n"
      "  --quantize=MODE      Catalog scoring precision: none (fp32, the "
      "default) or int8 (per-row-quantized item table + exact fp32 re-rank "
      "of the top candidates; see docs/KERNELS.md).\n"
      "  --rerank-k=N         With --quantize=int8: candidates per request "
      "re-scored exactly in fp32 before the final top-k (default 2048; >= "
      "the catalog size makes int8 results identical to fp32).\n"
      "  --reload-watch=DIR   Hot-reload source: on SIGHUP / kReload, load "
      "the newest training checkpoint in DIR (default: re-read --model); "
      "the directory is also polled so new checkpoints are picked up "
      "without a signal. Zero downtime: in-flight requests finish on the "
      "version that admitted them.\n"
      "  --reload-poll-ms=N   How often to poll --reload-watch for new "
      "checkpoints (default 500).\n"
      "  --conn-idle-timeout-ms=N\n"
      "                       Per-connection read deadline (slow-loris "
      "guard): close connections whose peer sends nothing, or stalls "
      "mid-frame, for this long (default 30000; 0 = never).\n"
      "  --score-shards=N     Split the item table into N row shards scored "
      "in parallel on the thread pool and merged exactly — bit-identical "
      "responses, parallel even for a single-request batch (default 1 = "
      "unsharded).\n"
      "\n"
      "model architecture flags (train, evaluate, explain — must match "
      "between training and loading):\n"
      "  --backbone=NAME      Sequence encoder: gru or lstm (default "
      "gru).\n"
      "  --clusters=K         Number of item clusters (default: dataset "
      "truth, else 8).\n"
      "  --epsilon=X          Causal filter threshold on item-level "
      "weights.\n"
      "  --eta=X              Clusterer soft-assignment temperature.\n"
      "  --lambda=X           L1 sparsity weight on the cluster graph "
      "W^c.\n"
      "\n"
      "common flags (all subcommands):\n"
      "  --seed=N             RNG seed (generate: 0 keeps the spec's "
      "seed; models default to 7).\n"
      "  --threads=N          Worker threads for evaluation and large "
      "matmuls (default 1, or CAUSER_THREADS).\n"
      "  --arena=BOOL         Recycle autograd tape memory through "
      "per-step arenas (default on; results are identical either "
      "way).\n"
      "  --cpu-isa=NAME       Compute-primitive ISA tier: auto, scalar, "
      "avx2, avx512 (default auto = strongest the CPU supports; beats the "
      "CAUSER_CPU_ISA env var; unavailable tiers fall back; results are "
      "bit-identical across tiers — docs/KERNELS.md).\n"
      "  --metrics-out=FILE   Enable metrics and write a JSON registry "
      "snapshot on exit.\n"
      "  --trace-out=FILE     Enable tracing and write Chrome "
      "chrome://tracing JSON on exit.\n"
      "  --metrics-interval=SECONDS\n"
      "                       Enable metrics and dump the registry to "
      "stderr every SECONDS while running.\n"
      "  --fault-inject=SPEC  Arm fault-injection points, e.g. "
      "\"ckpt.rename_fail,optimizer.nan_grad@40\" (testing only; also "
      "honors the CAUSER_FAULT env var).\n"
      "  --help               Show this help.\n");
  return 0;
}

/// Turns the observability layer on for the duration of a subcommand when
/// any of --metrics-out / --trace-out / --metrics-interval is present
/// (otherwise every instrument stays a cheap early-return), periodically
/// dumps the registry, and writes the requested files on destruction.
class ObservabilitySession {
 public:
  explicit ObservabilitySession(const Flags& flags)
      : metrics_out_(flags.GetString("metrics-out")),
        trace_out_(flags.GetString("trace-out")),
        interval_seconds_(flags.GetDouble("metrics-interval", 0.0)) {
    if (!metrics_out_.empty() || interval_seconds_ > 0.0) {
      metrics::SetEnabled(true);
    }
    if (!trace_out_.empty()) trace::SetEnabled(true);
    if (interval_seconds_ > 0.0) {
      dumper_ = std::thread([this] { PeriodicDump(); });
    }
  }

  ~ObservabilitySession() {
    if (dumper_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        done_ = true;
      }
      cv_.notify_all();
      dumper_.join();
    }
    if (!metrics_out_.empty() || interval_seconds_ > 0.0) {
      if (!metrics_out_.empty() &&
          !metrics::WriteSnapshotJson(metrics_out_)) {
        std::fprintf(stderr, "failed to write metrics to %s\n",
                     metrics_out_.c_str());
      }
      metrics::SetEnabled(false);
    }
    if (!trace_out_.empty()) {
      trace::SetEnabled(false);
      if (!trace::WriteChromeTrace(trace_out_)) {
        std::fprintf(stderr, "failed to write trace to %s\n",
                     trace_out_.c_str());
      }
    }
  }

 private:
  void PeriodicDump() {
    std::unique_lock<std::mutex> lock(mu_);
    auto period = std::chrono::duration<double>(interval_seconds_);
    while (!cv_.wait_for(lock, period, [this] { return done_; })) {
      std::fputs(metrics::SnapshotText().c_str(), stderr);
    }
  }

  std::string metrics_out_;
  std::string trace_out_;
  double interval_seconds_ = 0.0;
  std::thread dumper_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

data::DatasetSpec SpecByName(const std::string& name, uint64_t seed) {
  data::DatasetSpec spec;
  if (name == "tiny") {
    spec = data::TinySpec();
  } else if (name == "epinions") {
    spec = data::SpecFor(data::PaperDataset::kEpinions);
  } else if (name == "foursquare") {
    spec = data::SpecFor(data::PaperDataset::kFoursquare);
  } else if (name == "patio") {
    spec = data::SpecFor(data::PaperDataset::kPatio);
  } else if (name == "baby") {
    spec = data::SpecFor(data::PaperDataset::kBaby);
  } else if (name == "video") {
    spec = data::SpecFor(data::PaperDataset::kVideo);
  } else {
    std::fprintf(stderr, "unknown spec '%s'\n", name.c_str());
    std::exit(2);
  }
  if (seed != 0) spec.seed = seed;
  return spec;
}

/// Reads the model architecture flags up front (so the unknown-flag check
/// can run before any work); the returned function applies them over a
/// loaded dataset's defaults.
std::function<core::CauserConfig(const data::Dataset&)> ConfigFromFlags(
    const Flags& flags) {
  const auto backbone = flags.GetString("backbone", "gru") == "lstm"
                            ? core::Backbone::kLstm
                            : core::Backbone::kGru;
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  // An absent or empty --clusters keeps the dataset's default K.
  const bool set_clusters = !flags.GetString("clusters").empty();
  const int clusters = flags.GetInt("clusters", 0);
  const core::CauserConfig defaults;
  const auto epsilon =
      static_cast<float>(flags.GetDouble("epsilon", defaults.epsilon));
  const auto eta = static_cast<float>(flags.GetDouble("eta", defaults.eta));
  const auto lambda =
      static_cast<float>(flags.GetDouble("lambda", defaults.lambda));
  return [=](const data::Dataset& dataset) {
    core::CauserConfig config =
        core::DefaultCauserConfig(dataset, backbone, seed);
    if (set_clusters) config.num_clusters = clusters;
    config.epsilon = epsilon;
    config.eta = eta;
    config.lambda = lambda;
    return config;
  };
}

int CmdGenerate(const Flags& flags) {
  std::string out = flags.GetString("out");
  const std::string spec_name = flags.GetString("spec", "tiny");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  flags.ExitOnUnknown();
  if (out.empty()) return Usage();
  auto spec = SpecByName(spec_name, seed);
  data::Dataset dataset = data::MakeDataset(spec);
  if (!data::SaveDataset(dataset, out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  auto stats = data::ComputeStats(dataset);
  std::printf("%s: %d users, %d items, %d interactions -> %s\n",
              stats.name.c_str(), stats.num_users, stats.num_items,
              stats.num_interactions, out.c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  std::string data_dir = flags.GetString("data");
  std::string model_out = flags.GetString("model-out");
  const auto model_config = ConfigFromFlags(flags);
  models::TrainConfig tc;
  tc.max_epochs = flags.GetInt("epochs", 12);
  tc.patience = flags.GetInt("patience", 3);
  tc.verbose = flags.GetBool("verbose", false);
  core::CheckpointOptions copts;
  copts.dir = flags.GetString("checkpoint-dir");
  copts.every = flags.GetInt("checkpoint-every", 1);
  copts.resume = flags.GetBool("resume", false);
  flags.ExitOnUnknown();
  if (data_dir.empty() || model_out.empty()) return Usage();
  if (copts.dir.empty() && copts.resume) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }
  data::Dataset dataset;
  if (!data::LoadDataset(data_dir, &dataset)) {
    std::fprintf(stderr, "failed to load dataset from %s\n",
                 data_dir.c_str());
    return 1;
  }
  data::Split split = data::LeaveLastOut(dataset);
  core::CauserModel model(model_config(dataset));
  if (!copts.dir.empty() && !core::InstallCheckpointHooks(copts, model, &tc)) {
    return 1;
  }
  auto result = core::TrainCauser(model, split, tc);
  std::printf("trained %s for %d epochs, best validation NDCG@5 %.4f\n",
              model.name().c_str(), result.fit.epochs_run,
              result.fit.best_validation_ndcg);
  std::printf("learned cluster graph: %d edges, h(W^c) = %.2e\n",
              result.learned_cluster_graph.NumEdges(),
              result.final_acyclicity);
  if (!nn::SaveParameters(model, model_out)) {
    std::fprintf(stderr, "failed to write %s\n", model_out.c_str());
    return 1;
  }
  std::printf("weights -> %s\n", model_out.c_str());
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  std::string data_dir = flags.GetString("data");
  std::string model_path = flags.GetString("model");
  const auto model_config = ConfigFromFlags(flags);
  const int z = flags.GetInt("z", 5);
  flags.ExitOnUnknown();
  if (data_dir.empty() || model_path.empty()) return Usage();
  data::Dataset dataset;
  if (!data::LoadDataset(data_dir, &dataset)) return 1;
  data::Split split = data::LeaveLastOut(dataset);
  core::CauserModel model(model_config(dataset));
  if (!nn::LoadParameters(model, model_path)) {
    std::fprintf(stderr,
                 "failed to load %s (architecture flags must match "
                 "training)\n",
                 model_path.c_str());
    return 1;
  }
  model.OnParametersRestored();
  auto result = eval::Evaluate(models::MakeScorer(model), split.test, z);
  std::printf("test F1@%d %.4f   NDCG@%d %.4f   (%zu instances)\n", z,
              result.f1, z, result.ndcg, split.test.size());
  return 0;
}

int CmdExplain(const Flags& flags) {
  std::string data_dir = flags.GetString("data");
  std::string model_path = flags.GetString("model");
  const auto model_config = ConfigFromFlags(flags);
  const int user = flags.GetInt("user", 0);
  const int top = flags.GetInt("top", 3);
  flags.ExitOnUnknown();
  if (data_dir.empty() || model_path.empty()) return Usage();
  data::Dataset dataset;
  if (!data::LoadDataset(data_dir, &dataset)) return 1;
  data::Split split = data::LeaveLastOut(dataset);
  core::CauserModel model(model_config(dataset));
  if (!nn::LoadParameters(model, model_path)) return 1;
  model.OnParametersRestored();

  const data::EvalInstance* instance = nullptr;
  for (const auto& inst : split.test) {
    if (inst.user == user) {
      instance = &inst;
      break;
    }
  }
  if (instance == nullptr) {
    std::fprintf(stderr, "user %d has no test instance\n", user);
    return 1;
  }
  auto scores = model.ScoreAll(user, instance->history);
  auto ranked = eval::TopK(scores, top);
  std::printf("user %d history:\n", user);
  for (size_t t = 0; t < instance->history.size(); ++t) {
    std::printf("  step %zu:", t);
    for (int item : instance->history[t].items) std::printf(" %d", item);
    std::printf("\n");
  }
  for (int item : ranked) {
    auto why = model.ExplainScores(*instance, item, core::ExplainMode::kFull);
    int best = 0;
    for (size_t t = 1; t < why.size(); ++t)
      if (why[t] > why[best]) best = static_cast<int>(t);
    std::printf("recommend item %d (score %.3f) because of step %d\n", item,
                scores[item], best);
  }
  return 0;
}

int CmdServe(const Flags& flags) {
  std::string data_dir = flags.GetString("data");
  std::string model_path = flags.GetString("model");
  const auto model_config_for = ConfigFromFlags(flags);
  serve::ServingConfig sc;
  sc.batch_max = flags.GetInt("batch-max", 32);
  sc.top_k = flags.GetInt("top", 10);
  sc.max_sessions = flags.GetInt("max-sessions", 0);
  const std::string quantize = flags.GetString("quantize", "none");
  sc.quantize_int8 = quantize == "int8";
  sc.rerank_k = flags.GetInt("rerank-k", 2048);
  sc.score_shards = flags.GetInt("score-shards", 1);
  const std::string watch_dir = flags.GetString("reload-watch");
  const double poll_seconds =
      std::max(50, flags.GetInt("reload-poll-ms", 500)) * 1e-3;
  serve::ServerConfig server_config;
  server_config.port = flags.GetInt("serve-port", 0);
  server_config.deadline_ms = flags.GetInt("deadline-ms", 0);
  server_config.queue_depth = flags.GetInt("queue-depth", 256);
  server_config.idle_timeout_ms = flags.GetInt("conn-idle-timeout-ms", 30000);
  flags.ExitOnUnknown();
  if (data_dir.empty() || model_path.empty()) return Usage();
  if (quantize != "int8" && quantize != "none") {
    std::fprintf(stderr, "unknown --quantize '%s' (expected none or int8)\n",
                 quantize.c_str());
    return 2;
  }
  data::Dataset dataset;
  if (!data::LoadDataset(data_dir, &dataset)) return 1;
  // The registry owns model loading: it accepts both plain weight files
  // and PR 4 training checkpoints (--reload-watch directories hold the
  // latter), validating before publishing so a bad file never replaces a
  // serving model.
  const core::CauserConfig model_config = model_config_for(dataset);
  serve::ModelRegistry registry([model_config] {
    return std::make_unique<core::CauserModel>(model_config);
  });
  std::shared_ptr<const serve::ModelVersion> initial =
      registry.LoadAndPublish(model_path);
  if (initial == nullptr) {
    std::fprintf(stderr,
                 "failed to load %s (architecture flags must match "
                 "training)\n",
                 model_path.c_str());
    return 1;
  }

  serve::ServingEngine engine(initial->model, sc);
  initial.reset();  // the engine owns version 1 now; a reload can free it

  // One reload at a time, whatever triggered it (SIGHUP on the serve
  // loop, kReload frames on reader threads, the watch-dir poll).
  // `last_loaded` suppresses re-loading a checkpoint the poll already
  // picked up; explicit triggers always reload.
  std::mutex reload_mu;
  std::string last_loaded = model_path;
  auto reload_now = [&]() -> bool {
    std::lock_guard<std::mutex> lock(reload_mu);
    std::string path = model_path;
    if (!watch_dir.empty()) {
      std::vector<std::string> checkpoints = core::ListCheckpoints(watch_dir);
      if (!checkpoints.empty()) path = checkpoints.back();
    }
    std::shared_ptr<const serve::ModelVersion> next =
        registry.LoadAndPublish(path);
    if (next == nullptr) {
      std::fprintf(stderr, "reload failed: could not load %s\n",
                   path.c_str());
      return false;
    }
    const uint64_t version = engine.Reload(next->model, next->source);
    if (version == 0) {
      std::fprintf(stderr, "reload failed: engine rejected %s\n",
                   path.c_str());
      return false;
    }
    last_loaded = path;
    // Parsed by the chaos CI job: keep the format.
    std::printf("reloaded model version %llu from %s\n",
                static_cast<unsigned long long>(version), path.c_str());
    std::fflush(stdout);
    return true;
  };
  auto watch_has_news = [&]() -> bool {
    if (watch_dir.empty()) return false;
    std::vector<std::string> checkpoints = core::ListCheckpoints(watch_dir);
    if (checkpoints.empty()) return false;
    std::lock_guard<std::mutex> lock(reload_mu);
    return checkpoints.back() != last_loaded;
  };

  server_config.workers = std::max(1, DefaultThreads());
  server_config.on_reload = reload_now;
  serve::Server server(engine, server_config);
  if (!server.Start()) {
    std::fprintf(stderr, "failed to bind %s:%d\n",
                 server_config.host.c_str(), server_config.port);
    return 1;
  }
  net::InstallShutdownHandler();
  net::InstallReloadHandler();
  // Parsed by scripts (CI smoke, loadgen wrappers): keep the format.
  std::printf(
      "serving on %s:%d (workers %d, queue-depth %d, deadline %d ms)\n",
      server_config.host.c_str(), server.port(), server_config.workers,
      server_config.queue_depth, server_config.deadline_ms);
  std::fflush(stdout);
  for (;;) {
    const net::SignalKind kind = net::WaitForSignal(poll_seconds);
    if (kind == net::SignalKind::kShutdown) break;
    if (kind == net::SignalKind::kReload || watch_has_news()) reload_now();
  }
  std::printf("shutdown requested, draining\n");
  std::fflush(stdout);
  server.Shutdown();
  engine.Stop();
  std::printf("drained cleanly, %d sessions cached\n",
              engine.store().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  causer::Flags flags = causer::Flags::Parse(argc - 1, argv + 1);
  if (command == "--help" || command == "help" || flags.GetBool("help", false))
    return PrintHelp();
  // --threads=N parallelizes evaluation and the large matmul kernels
  // (default 1 = the bit-exact sequential paths).
  causer::ConfigureThreadsFromFlags(flags);
  // --arena=false falls back to per-op heap allocation for the autograd
  // tape — the A/B knob behind BENCH_kernels.json's steps/sec comparison.
  causer::tensor::SetArenaEnabled(flags.GetBool("arena", true));
  // --cpu-isa pins the compute-primitive tier (precedence: this flag >
  // CAUSER_CPU_ISA > cpuid); installed before any kernel runs so the
  // one-time dispatch resolution sees it.
  std::string cpu_isa = flags.GetString("cpu-isa");
  if (!cpu_isa.empty() && !causer::cpu::SetIsaOverride(cpu_isa)) {
    std::fprintf(stderr,
                 "unknown --cpu-isa '%s' (expected auto, scalar, avx2 or "
                 "avx512)\n",
                 cpu_isa.c_str());
    return 2;
  }
  // Fault injection (testing only): CAUSER_FAULT env var, then the flag.
  causer::fault::ArmFromEnvironment();
  std::string fault_spec = flags.GetString("fault-inject");
  if (!fault_spec.empty() && !causer::fault::ArmFromSpec(fault_spec)) {
    std::fprintf(stderr, "malformed --fault-inject spec '%s'\n",
                 fault_spec.c_str());
    return 2;
  }
  ObservabilitySession observability(flags);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "serve") return CmdServe(flags);
  return Usage();
}
