#ifndef CAUSER_BENCH_BENCH_UTIL_H_
#define CAUSER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/split.h"
#include "data/specs.h"
#include "eval/evaluator.h"
#include "eval/significance.h"
#include "models/bpr.h"
#include "models/fpmc.h"
#include "models/gru4rec.h"
#include "models/mmsarec.h"
#include "models/narm.h"
#include "models/ncf.h"
#include "models/sasrec.h"
#include "models/stamp.h"
#include "models/vtrnn.h"

namespace causer::bench {

/// A bench's command line: `[--smoke] [report.json]`.
struct BenchArgs {
  bool smoke = false;
  std::string report;  ///< JSON report path
};

/// Parses a bench's command line through causer::Flags. `--smoke` is read
/// only when `has_smoke`; the report path is the single optional
/// positional (default `default_report`). Any other flag, such as the typo
/// `--smok`, or a second positional exits 2 before the bench does work.
inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                const std::string& default_report,
                                bool has_smoke = true) {
  const Flags flags = Flags::Parse(argc, argv, {"smoke"});
  BenchArgs args;
  if (has_smoke) args.smoke = flags.GetBool("smoke");
  flags.ExitOnUnknown();
  if (flags.positional().size() > 1) {
    std::fprintf(stderr, "usage: %s%s [report.json]\n", argv[0],
                 has_smoke ? " [--smoke]" : "");
    std::exit(2);
  }
  args.report =
      flags.positional().empty() ? default_report : flags.positional()[0];
  return args;
}

/// Evaluation result of one trained model on a test split.
struct ModelRun {
  std::string name;
  double f1 = 0.0;    // percent
  double ndcg = 0.0;  // percent
  eval::EvalResult raw;
  double train_seconds = 0.0;
};

inline models::TrainConfig BaselineTrainConfig() {
  return {.max_epochs = 8, .patience = 2};
}

inline models::TrainConfig CauserTrainConfig() {
  return {.max_epochs = 12, .patience = 3};
}

/// Times `train` (any callable that trains `model`) and evaluates F1@5 /
/// NDCG@5 on the test split — the shared tail of RunBaseline / RunCauser.
template <typename TrainFn>
ModelRun TimedRun(models::SequentialRecommender& model,
                  const data::Split& split, TrainFn&& train) {
  Stopwatch sw;
  train();
  ModelRun run;
  run.train_seconds = sw.ElapsedSeconds();
  run.name = model.name();
  run.raw = eval::Evaluate(models::MakeScorer(model), split.test, 5);
  run.f1 = run.raw.f1 * 100.0;
  run.ndcg = run.raw.ndcg * 100.0;
  return run;
}

/// Trains `model` on the split and evaluates F1@5 / NDCG@5 on the test set.
inline ModelRun RunBaseline(models::SequentialRecommender& model,
                            const data::Split& split,
                            const models::TrainConfig& config) {
  return TimedRun(model, split, [&] { models::Fit(model, split, config); });
}

/// Trains a Causer model (with the warm-up-aware trainer) and evaluates it.
inline ModelRun RunCauser(core::CauserModel& model, const data::Split& split,
                          const models::TrainConfig& config) {
  return TimedRun(model, split,
                  [&] { core::TrainCauser(model, split, config); });
}

/// The model configuration shared by all baselines for a dataset.
inline models::ModelConfig BaseConfig(const data::Dataset& dataset,
                                      uint64_t seed = 7) {
  models::ModelConfig config;
  config.num_users = dataset.num_users;
  config.num_items = dataset.num_items;
  config.item_features = &dataset.item_features;
  config.seed = seed;
  return config;
}

/// Causer configuration for a dataset with the grid-searched
/// hyper-parameters (the paper tunes per dataset, Table III): the denser
/// Amazon-like catalogs (Patio, Baby) prefer more negative samples.
inline core::CauserConfig TunedCauserConfig(const data::Dataset& dataset,
                                            core::Backbone backbone,
                                            uint64_t seed = 7) {
  core::CauserConfig config =
      core::DefaultCauserConfig(dataset, backbone, seed);
  if (dataset.name == "Patio" || dataset.name == "Baby") {
    config.base.num_negatives = 8;
  }
  if (dataset.name == "Foursquare") {
    // Long check-in sequences prefer a milder filter (Fig. 5's tradeoff).
    config.epsilon = 0.15f;
  }
  return config;
}

/// Builds the paper's eight baselines (Table IV order).
inline std::vector<std::unique_ptr<models::SequentialRecommender>>
MakeBaselines(const data::Dataset& dataset, uint64_t seed = 7) {
  auto cfg = BaseConfig(dataset, seed);
  std::vector<std::unique_ptr<models::SequentialRecommender>> out;
  out.push_back(std::make_unique<models::Bpr>(cfg));
  out.push_back(std::make_unique<models::Ncf>(cfg));
  out.push_back(std::make_unique<models::Gru4Rec>(cfg));
  out.push_back(std::make_unique<models::Stamp>(cfg));
  out.push_back(std::make_unique<models::SasRec>(cfg));
  out.push_back(std::make_unique<models::Narm>(cfg));
  out.push_back(std::make_unique<models::Vtrnn>(cfg));
  out.push_back(std::make_unique<models::MmsaRec>(cfg));
  return out;
}

/// Order statistics of repeated wall-time samples, in microseconds.
struct Timing {
  double p10 = 0.0, median = 0.0, p90 = 0.0;
};

/// Nearest-rank p10/median/p90 of `samples` (sorted in place).
inline Timing OrderStats(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    return samples[static_cast<size_t>(q * (samples.size() - 1) + 0.5)];
  };
  return {at(0.1), at(0.5), at(0.9)};
}

/// Wall time of one call of `fn` in microseconds, divided by `per`.
template <typename Fn>
double TimeOneCall(Fn& fn, int per) {
  Stopwatch sw;
  fn();
  return sw.ElapsedSeconds() * 1e6 / per;
}

/// The benches' one timer. Makes one untimed warm-up call of `fn`
/// (scratch allocations, caches), then times `samples` back-to-back calls
/// and returns the order statistics of each call's wall time divided by
/// `per` (e.g. the events or kernel calls one call handles). Reports give
/// median [p10, p90].
template <typename Fn>
Timing TimeCalls(Fn&& fn, int samples, int per = 1) {
  fn();
  std::vector<double> us(samples);
  for (double& t : us) t = TimeOneCall(fn, per);
  return OrderStats(us);
}

/// The two sides of a gated comparison, timed by TimePair.
struct PairTiming {
  Timing a, b;         // each side's order statistics, as TimeCalls
  double ratio = 0.0;  // median over the pairs of a's time / b's time
};

/// Times `a` and `b` interleaved: one warm-up call of each, then `samples`
/// pairs a, b, a, b, ... A drift in the host's speed lands on both calls
/// of a pair, so a gate compares the median of the per-pair ratios (how
/// many times faster b ran than a) instead of two medians taken seconds
/// apart.
template <typename FnA, typename FnB>
PairTiming TimePair(FnA&& a, FnB&& b, int samples, int per = 1) {
  a();
  b();
  std::vector<double> ta(samples), tb(samples), ratio(samples);
  for (int i = 0; i < samples; ++i) {
    ta[i] = TimeOneCall(a, per);
    tb[i] = TimeOneCall(b, per);
    ratio[i] = ta[i] / tb[i];
  }
  return {OrderStats(ta), OrderStats(tb), OrderStats(ratio).median};
}

/// "median [p10, p90]" of a timing, for the printed tables.
inline std::string Spread(const Timing& t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.1f [%.1f, %.1f]", t.median, t.p10,
                t.p90);
  return buf;
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("\n==================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper reference: %s\n", paper.c_str());
  std::printf("==================================================\n");
}

/// Tiny insertion-ordered JSON object builder for the BENCH_*.json reports.
/// Only what the benches need: flat scalars plus raw nested values.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return SetRaw(key, buf);
  }
  JsonObject& Set(const std::string& key, int v) {
    return SetRaw(key, std::to_string(v));
  }
  JsonObject& Set(const std::string& key, bool v) {
    return SetRaw(key, v ? "true" : "false");
  }
  JsonObject& Set(const std::string& key, const std::string& v) {
    return SetRaw(key, Quote(v));
  }
  /// Inserts `raw` verbatim — pass an already-serialized object or array.
  JsonObject& SetRaw(const std::string& key, const std::string& raw) {
    fields_.push_back({key, raw});
    return *this;
  }
  std::string Str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

inline std::string JsonArray(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) out += ", ";
    out += elements[i];
  }
  return out + "]";
}

/// A timing's p10/median/p90 as a JSON object.
inline std::string TimingJson(const Timing& t) {
  JsonObject o;
  o.Set("p10_us", t.p10).Set("median_us", t.median).Set("p90_us", t.p90);
  return o.Str();
}

inline bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace causer::bench

#endif  // CAUSER_BENCH_BENCH_UTIL_H_
