// Shared pieces of the perfbench binary: the workload table, the model
// fixtures every process rebuilds identically, the seeded traffic model,
// and small statistics / JSON / span-recording helpers.
//
// Everything here sits outside the program under test: it only calls the
// public headers of src/ and adds no instrumentation there.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/dataset.h"
#include "models/recommender.h"

namespace perfbench {

namespace data = causer::data;
namespace models = causer::models;
using causer::Flags;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Budget shared by every workload on a 4-core box: the server runs at most
/// this many pool threads and workers, the generator this many connections,
/// training this many pool threads.
inline constexpr int kThreads = 2;

/// Recommendations per response.
inline constexpr int kTopK = 10;
/// History steps a model scores on (ModelConfig::max_history): the
/// bootstrap every request carries.
inline const int kWindow = models::ModelConfig{}.max_history;
/// Server admission cap, high enough that the rate ladder finds the knee
/// by latency rather than by refusals.
inline constexpr int kQueueDepth = 4096;
/// Zipf exponents of user and item popularity.
inline constexpr double kUserZipf = 1.1;
inline constexpr double kItemZipf = 1.0;
/// Latency limit on a ladder rung's p99 for max_qps_slo: above the
/// scheduling noise of a shared virtual machine, far below the blow-up past
/// each workload's knee.
inline constexpr double kSloP99Ms = 50;
/// Ladder rungs are 10% apart.
inline constexpr double kLadderRatio = 1.1;

enum class ModelKind { kCauser, kGru };

/// One workload's fixed shape. The seed only changes the generated traffic
/// (which users, which items), never the shape below.
struct WorkloadSpec {
  std::string name;
  bool serve = true;
  ModelKind model = ModelKind::kCauser;
  // -- model ---------------------------------------------------------------
  int gru_items = 0;  ///< GRU catalog size (Causer: the dataset's catalog)
  int gru_dim = 0;
  bool quantize_int8 = false;
  int score_shards = 1;
  /// Hot reload between weight sets A and B every this many ms (0 = none).
  int reload_every_ms = 0;
  int max_sessions = 0;
  // -- traffic -------------------------------------------------------------
  long user_space = 0;   ///< distinct user ids drawn from
  /// Users replayed once, closed-loop, before timing (0 = none).
  int warm_users = 0;
  double fixed_qps = 0;  ///< offered rate of the quoted latency phase
  /// Rate ladder for max_qps_slo: rung i offers
  /// ladder_base * kLadderRatio^i, for i = 1..ladder_rungs.
  double ladder_base = 0;
  int ladder_rungs = 0;
  // -- training ------------------------------------------------------------
  int train_epochs = 0;
  int eval_repeats = 0;
};

/// The workload table (`toy` shrinks every shape for the self-test).
/// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name, bool toy);

// -- fixtures ---------------------------------------------------------------

/// The Foursquare-shaped dataset (TinySpec under `toy`) the Causer
/// workloads use. Process-lifetime: Causer configs point into it.
const data::Dataset& CauserDataset(bool toy);

/// A fresh, untrained model of the workload's architecture. `weight_set`
/// picks the GRU initialization seed (0 = set A, 1 = set B).
std::unique_ptr<models::SequentialRecommender> NewModel(
    const WorkloadSpec& spec, bool toy, int weight_set);

/// Path of weight set `set` (0 = A, 1 = B) under `dir`.
std::string WeightPath(const WorkloadSpec& spec, bool toy,
                       const std::string& dir, int set);

/// Writes the workload's weight files under `dir` unless present (Causer:
/// trained briefly from a fixed seed; GRU: initialized from fixed seeds).
bool EnsureFixtures(const WorkloadSpec& spec, bool toy,
                    const std::string& dir);

/// Loads weight set `set` into a fresh model (null on failure).
std::shared_ptr<models::SequentialRecommender> LoadModel(
    const WorkloadSpec& spec, bool toy, const std::string& dir, int set);

// -- traffic ----------------------------------------------------------------

uint64_t Mix(uint64_t x);

/// Zipf(s) over {0..n-1} by inverse CDF (table of n doubles).
class Zipf {
 public:
  Zipf(long n, double s);
  long Sample(double u) const;  ///< u uniform in [0, 1)
 private:
  std::vector<double> cdf_;
};

inline double UnitFromBits(uint64_t x) {
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

/// The seeded traffic model: which user request i comes from, and the item
/// at position `pos` of a user's stream (negative positions are the
/// bootstrap history the user had before the benchmark saw it).
class Traffic {
 public:
  Traffic(const WorkloadSpec& spec, int num_items, uint64_t seed);
  int UserAt(long i, uint32_t stream) const;
  int ItemAt(int user, long pos) const;
  long user_space() const { return user_space_; }

 private:
  uint64_t seed_;
  int num_items_;
  long user_space_;
  Zipf users_;
  Zipf items_;
};

/// A single-item history step.
inline data::Step StepOf(int item) {
  data::Step step;
  step.items = {item};
  return step;
}

/// Catalog size of the workload's model.
int NumItems(const WorkloadSpec& spec, bool toy);

// -- statistics / output ----------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
long PeakRssKb();
/// Bytes the allocator has handed out (in use), for per-object costs.
size_t HeapBytes();

/// Minimal ordered JSON object writer (numbers, strings, raw values).
class Json {
 public:
  Json& Num(const std::string& key, double v);
  Json& Int(const std::string& key, long long v);
  Json& Str(const std::string& key, const std::string& v);
  Json& Bool(const std::string& key, bool v);
  Json& Raw(const std::string& key, const std::string& raw);
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};
std::string JsonArray(const std::vector<double>& v);
bool WriteFile(const std::string& path, const std::string& text);

/// In-memory span recorder for the traced run: spans from the benchmark's
/// own code around calls into one layer (name, start, end, parent span,
/// request id). Written out at the end; self time per name is the span's
/// duration minus what its direct children cover.
class Spans {
 public:
  /// Opens a span; returns its id. `parent` = -1 for a root.
  int Begin(const char* name, int parent, long request);
  void End(int id);
  struct Stat {
    long calls = 0;
    double total_s = 0;
    double self_s = 0;
  };
  Stat Get(const std::string& name) const;
  /// Chrome-trace-like JSON of every span.
  std::string ToJson() const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int parent;
    long request;
    Clock::time_point start, end;
  };
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// Provenance recorded with every result: ISA tier and its source, build
/// type, thread budget.
std::string ProvenanceJson();

int CmdFixture(const Flags& flags);
int CmdHost(const Flags& flags);
int CmdLoad(const Flags& flags);
int CmdTrain(const Flags& flags);
int CmdLayers(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
