#include "serve/model_registry.h"

#include <utility>

#include "core/checkpoint.h"
#include "nn/serialization.h"

namespace causer::serve {

ModelRegistry::ModelRegistry(Factory factory)
    : factory_(std::move(factory)) {}

std::shared_ptr<const ModelVersion> ModelRegistry::Current() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

std::shared_ptr<const ModelVersion> ModelRegistry::Publish(
    std::shared_ptr<models::SequentialRecommender> model,
    std::string source) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto entry = std::make_shared<ModelVersion>();
  entry->version = next_version_++;
  entry->model = std::move(model);
  entry->source = std::move(source);
  // Swap rather than assign, so that the retired version is released
  // after the lock, not under it.
  std::shared_ptr<const ModelVersion> retired = entry;
  {
    std::lock_guard<std::mutex> swap(current_mu_);
    current_.swap(retired);
  }
  return entry;
}

std::shared_ptr<const ModelVersion> ModelRegistry::LoadAndPublish(
    const std::string& path) {
  if (!factory_) return nullptr;
  std::unique_ptr<models::SequentialRecommender> model = factory_();
  if (model == nullptr) return nullptr;
  // A training checkpoint validates magic, CRCs and the architecture guard
  // before mutating the model, so trying it first is safe on any file; a
  // bare parameter dump is the fallback. Serving needs the weights only:
  // the optimizer moments and fit state stay on disk.
  if (!core::LoadCheckpointParameters(*model, path) &&
      !nn::LoadParameters(*model, path)) {
    return nullptr;
  }
  model->OnParametersRestored();
  return Publish(std::move(model), path);
}

}  // namespace causer::serve
