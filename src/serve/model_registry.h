#ifndef CAUSER_SERVE_MODEL_REGISTRY_H_
#define CAUSER_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "models/recommender.h"

namespace causer::serve {

/// One published model version. Immutable once published: readers hold the
/// shared_ptr for as long as they score with it, so a later publish can
/// never pull the weights out from under an in-flight batch.
struct ModelVersion {
  /// Monotonic publish counter, starting at 1 for the first publish.
  uint64_t version = 0;
  std::shared_ptr<models::SequentialRecommender> model;
  /// Where the weights came from (file path or a caller-supplied label).
  std::string source;
};

/// Loads model versions from files — PR-4 training checkpoints
/// (`ckpt-NNNNNN.causer`, CRC-validated) or bare nn::SaveParameters dumps —
/// and publishes them via shared_ptr epoch swap. Current() copies the
/// pointer under a mutex held only for that copy (never across a load),
/// and the version a reader grabs stays alive until the last reader drops
/// it. Writers (reload paths) are serialized by a second mutex; a failed
/// load publishes nothing, so the previous version keeps serving.
class ModelRegistry {
 public:
  /// Builds an architecture-compatible empty model for each load. May be
  /// null when only Publish() is used.
  using Factory =
      std::function<std::unique_ptr<models::SequentialRecommender>()>;

  explicit ModelRegistry(Factory factory = nullptr);

  /// The live version, or null before the first publish.
  std::shared_ptr<const ModelVersion> Current() const;

  /// Publishes an already-built model as the next version. Never fails;
  /// returns the published entry.
  std::shared_ptr<const ModelVersion> Publish(
      std::shared_ptr<models::SequentialRecommender> model,
      std::string source);

  /// Builds a fresh factory model, restores its weights from `path`
  /// (training checkpoint tried first — it validates every CRC before
  /// mutating, and only its parameters are loaded — then a bare parameter
  /// dump), runs OnParametersRestored(), and publishes. Null on failure,
  /// in which case Current() is untouched. Requires a factory.
  std::shared_ptr<const ModelVersion> LoadAndPublish(const std::string& path);

 private:
  Factory factory_;
  std::mutex publish_mu_;
  uint64_t next_version_ = 1;  // guarded by publish_mu_
  mutable std::mutex current_mu_;  // held only to copy or swap current_
  std::shared_ptr<const ModelVersion> current_;
};

}  // namespace causer::serve

#endif  // CAUSER_SERVE_MODEL_REGISTRY_H_
