#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string_view>
#include <utility>

#include "common/fault.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/serial.h"

namespace causer::core {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kMagic = 0x54504B43;  // "CKPT"
constexpr uint32_t kVersion = 1;

// Section tags. New sections get new tags; readers reject unknown tags so
// a version bump is explicit rather than a silent misparse.
constexpr uint32_t kSectionMeta = 1;        // model name (architecture guard)
constexpr uint32_t kSectionParams = 2;      // registered parameter tensors
constexpr uint32_t kSectionModelState = 3;  // SaveTrainingState blob
constexpr uint32_t kSectionFitState = 4;    // FitResumeState

constexpr char kPrefix[] = "ckpt-";
constexpr char kSuffix[] = ".causer";

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void AppendSection(std::string* out, uint32_t tag,
                   const std::string& payload) {
  serial::AppendU32(out, tag);
  serial::AppendU64(out, payload.size());
  serial::AppendU32(out, serial::Crc32(payload.data(), payload.size()));
  out->append(payload);
}

std::string SerializeFitState(const models::FitResumeState& st) {
  std::string out;
  serial::AppendI32(&out, st.next_epoch);
  serial::AppendF64(&out, st.best_ndcg);
  serial::AppendI32(&out, st.stale);
  serial::AppendF64(&out, st.lr_scale);
  serial::AppendDoubles(&out, st.epoch_losses);
  serial::AppendU32(&out, static_cast<uint32_t>(st.best_snapshot.size()));
  for (const auto& p : st.best_snapshot) serial::AppendFloats(&out, p);
  return out;
}

bool ParseFitState(std::string_view blob, models::FitResumeState* st) {
  serial::Reader in(blob.data(), blob.size());
  models::FitResumeState parsed;
  uint32_t snapshot_count = 0;
  in.ReadI32(&parsed.next_epoch);
  in.ReadF64(&parsed.best_ndcg);
  in.ReadI32(&parsed.stale);
  in.ReadF64(&parsed.lr_scale);
  in.ReadDoubles(&parsed.epoch_losses);
  if (!in.ReadU32(&snapshot_count)) return false;
  parsed.best_snapshot.resize(snapshot_count);
  for (auto& p : parsed.best_snapshot) {
    if (!in.ReadFloats(&p)) return false;
  }
  if (!in.AtEnd()) return false;
  *st = std::move(parsed);
  return true;
}

std::string SerializeParams(const models::SequentialRecommender& model) {
  std::string out;
  auto params = model.Parameters();
  serial::AppendU32(&out, static_cast<uint32_t>(params.size()));
  for (const auto& p : params) {
    serial::AppendU32(&out, static_cast<uint32_t>(p.rows()));
    serial::AppendU32(&out, static_cast<uint32_t>(p.cols()));
    serial::AppendFloats(&out, p.data().data(), p.data().size());
  }
  return out;
}

/// Parses the params section against the model's live shapes without
/// touching them; the staged rows are committed by the caller only after
/// every other section validated.
bool StageParams(std::string_view blob,
                 const std::vector<nn::Tensor>& params,
                 std::vector<std::vector<float>>* staged) {
  serial::Reader in(blob.data(), blob.size());
  uint32_t count = 0;
  if (!in.ReadU32(&count) || count != params.size()) return false;
  staged->resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    uint32_t rows = 0, cols = 0;
    in.ReadU32(&rows);
    in.ReadU32(&cols);
    if (!in.ok() || static_cast<int>(rows) != params[i].rows() ||
        static_cast<int>(cols) != params[i].cols()) {
      return false;
    }
    if (!in.ReadFloats(&(*staged)[i]) ||
        (*staged)[i].size() != params[i].data().size()) {
      return false;
    }
  }
  return in.AtEnd();
}

/// A checkpoint file read whole: its bytes, and its validated sections as
/// views into them, so each payload is held once however many sections a
/// loader ends up ignoring. Not copyable or movable: a copy's views would
/// still point into the original's bytes.
struct CheckpointFile {
  CheckpointFile() = default;
  CheckpointFile(const CheckpointFile&) = delete;
  CheckpointFile& operator=(const CheckpointFile&) = delete;

  std::string bytes;
  std::vector<std::pair<uint32_t, std::string_view>> sections;
};

/// Reads `path` into `file` and splits it into validated sections.
/// Returns false on any framing or checksum mismatch. The magic/version
/// header is checked before the rest of the file is read, so a file of
/// another format (a bare parameter dump) costs 12 bytes of I/O, not its
/// whole size.
bool ReadSections(const std::string& path, CheckpointFile* file) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  constexpr size_t kHeaderBytes = 3 * sizeof(uint32_t);
  std::string& bytes = file->bytes;
  bytes.assign(kHeaderBytes, '\0');
  if (std::fread(bytes.data(), 1, kHeaderBytes, f.get()) != kHeaderBytes) {
    return false;
  }
  uint32_t magic = 0, version = 0, section_count = 0;
  serial::Reader header(bytes);
  header.ReadU32(&magic);
  header.ReadU32(&version);
  header.ReadU32(&section_count);
  if (magic != kMagic || version != kVersion) return false;

  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    bytes.append(buf, n);
  }
  if (std::ferror(f.get()) != 0) return false;
  serial::Reader in(bytes);
  in.Skip(kHeaderBytes);
  file->sections.clear();
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0, crc = 0;
    uint64_t size = 0;
    in.ReadU32(&tag);
    in.ReadU64(&size);
    in.ReadU32(&crc);
    if (!in.ok() || size > in.remaining()) return false;
    const std::string_view payload(
        bytes.data() + (bytes.size() - in.remaining()),
        static_cast<size_t>(size));
    if (serial::Crc32(payload.data(), payload.size()) != crc) return false;
    if (!in.Skip(static_cast<size_t>(size))) return false;
    file->sections.emplace_back(tag, payload);
  }
  // Whole-file checksum over everything before it; catches truncation at
  // a section boundary (where per-section CRCs all still pass).
  if (in.remaining() != sizeof(uint32_t)) return false;
  uint32_t file_crc = 0;
  in.ReadU32(&file_crc);
  return in.AtEnd() &&
         serial::Crc32(bytes.data(), bytes.size() - sizeof(uint32_t)) ==
             file_crc;
}

const std::string_view* FindSection(const CheckpointFile& file,
                                    uint32_t tag) {
  for (const auto& [t, payload] : file.sections) {
    if (t == tag) return &payload;
  }
  return nullptr;
}

/// The validation both loaders share: reads `path`'s sections (every CRC
/// checked), applies the architecture guard (the checkpoint's model name
/// must be `model`'s — it covers backbone and ablation variant), and
/// stages the params section against `model`'s live shapes into
/// `*staged`. Nothing is mutated.
bool ReadAndStage(const models::SequentialRecommender& model,
                  const std::string& path, CheckpointFile* file,
                  std::vector<std::vector<float>>* staged) {
  if (!ReadSections(path, file)) return false;
  const std::string_view* meta = FindSection(*file, kSectionMeta);
  const std::string_view* params_blob = FindSection(*file, kSectionParams);
  if (meta == nullptr || params_blob == nullptr) return false;
  serial::Reader meta_in(meta->data(), meta->size());
  std::string saved_name;
  if (!meta_in.ReadString(&saved_name) || !meta_in.AtEnd() ||
      saved_name != model.name()) {
    CAUSER_LOG(Error) << "checkpoint " << path
                      << ": model mismatch (checkpoint '" << saved_name
                      << "', model '" << model.name() << "')";
    return false;
  }
  return StageParams(*params_blob, model.Parameters(), staged);
}

/// Commits rows staged by ReadAndStage.
void CommitParams(models::SequentialRecommender& model,
                  const std::vector<std::vector<float>>& staged) {
  auto params = model.Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].data().assign(staged[i].begin(), staged[i].end());
  }
}

/// Writes `bytes` to `path` atomically: tmp file, flush, fsync, rename,
/// directory fsync. Any failure removes the tmp file and leaves an
/// existing `path` untouched.
bool AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return false;
    // `ckpt.torn_file` simulates data lost after a "successful" write
    // (e.g. a power cut between the rename and the data blocks hitting
    // disk): only half the bytes land, but the whole protocol completes
    // and reports success — the reader's CRCs are what must catch it.
    // `ckpt.short_write` is the detected variant: the write comes up
    // short and the save reports failure.
    const bool torn = fault::ShouldFail("ckpt.torn_file");
    size_t to_write = bytes.size();
    if (torn || fault::ShouldFail("ckpt.short_write")) to_write /= 2;
    bool ok = std::fwrite(bytes.data(), 1, to_write, f.get()) == to_write;
    if (!torn && to_write != bytes.size()) ok = false;
    if (ok) ok = std::fflush(f.get()) == 0;
    if (ok) ok = ::fsync(::fileno(f.get())) == 0;
    if (ok) {
      ok = std::fclose(f.release()) == 0;
    }
    if (!ok) {
      f.reset();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (fault::ShouldFail("ckpt.rename_fail") ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  // Persist the rename itself: fsync the containing directory.
  std::string dir = fs::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

/// Epoch parsed from a checkpoint file name, or -1.
int EpochFromName(const std::string& name) {
  const size_t prefix_len = sizeof(kPrefix) - 1;
  const size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return -1;
  if (name.compare(0, prefix_len, kPrefix) != 0) return -1;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return -1;
  }
  int epoch = 0;
  for (size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    epoch = epoch * 10 + (name[i] - '0');
  }
  return epoch;
}

}  // namespace

std::string CheckpointPath(const std::string& dir, int epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06d%s", kPrefix, epoch, kSuffix);
  return (fs::path(dir) / name).string();
}

std::vector<std::string> ListCheckpoints(const std::string& dir) {
  std::vector<std::pair<int, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    int epoch = EpochFromName(entry.path().filename().string());
    if (epoch >= 0) found.emplace_back(epoch, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [epoch, path] : found) paths.push_back(std::move(path));
  return paths;
}

bool SaveTrainingCheckpoint(const models::SequentialRecommender& model,
                            const models::FitResumeState& state,
                            const std::string& path) {
  std::string meta;
  serial::AppendString(&meta, model.name());
  std::string model_state;
  model.SaveTrainingState(&model_state);

  std::string bytes;
  serial::AppendU32(&bytes, kMagic);
  serial::AppendU32(&bytes, kVersion);
  serial::AppendU32(&bytes, 4);  // section count
  AppendSection(&bytes, kSectionMeta, meta);
  AppendSection(&bytes, kSectionParams, SerializeParams(model));
  AppendSection(&bytes, kSectionModelState, model_state);
  AppendSection(&bytes, kSectionFitState, SerializeFitState(state));
  serial::AppendU32(&bytes, serial::Crc32(bytes.data(), bytes.size()));
  return AtomicWriteFile(path, bytes);
}

bool LoadTrainingCheckpoint(models::SequentialRecommender& model,
                            models::FitResumeState* state,
                            const std::string& path) {
  // Stage everything that can be staged before mutating the model.
  CheckpointFile file;
  std::vector<std::vector<float>> staged;
  if (!ReadAndStage(model, path, &file, &staged)) return false;
  const std::string_view* model_state =
      FindSection(file, kSectionModelState);
  const std::string_view* fit_state = FindSection(file, kSectionFitState);
  if (model_state == nullptr || fit_state == nullptr) return false;
  models::FitResumeState parsed_state;
  if (!ParseFitState(*fit_state, &parsed_state)) return false;

  serial::Reader state_in(model_state->data(), model_state->size());
  if (!model.LoadTrainingState(state_in) || !state_in.AtEnd()) return false;
  CommitParams(model, staged);
  *state = std::move(parsed_state);
  return true;
}

bool LoadCheckpointParameters(models::SequentialRecommender& model,
                              const std::string& path) {
  CheckpointFile file;
  std::vector<std::vector<float>> staged;
  if (!ReadAndStage(model, path, &file, &staged)) return false;
  CommitParams(model, staged);
  return true;
}

void PruneCheckpoints(const std::string& dir, int keep) {
  auto paths = ListCheckpoints(dir);
  if (keep < 0) keep = 0;
  const size_t excess =
      paths.size() > static_cast<size_t>(keep)
          ? paths.size() - static_cast<size_t>(keep)
          : 0;
  for (size_t i = 0; i < excess; ++i) std::remove(paths[i].c_str());
}

bool InstallCheckpointHooks(const CheckpointOptions& options,
                            models::SequentialRecommender& model,
                            models::TrainConfig* config) {
  CAUSER_CHECK(config != nullptr);
  CAUSER_CHECK(!options.dir.empty());
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    CAUSER_LOG(Error) << "InstallCheckpointHooks: cannot create '"
                      << options.dir << "': " << ec.message();
    return false;
  }
  const std::string dir = options.dir;
  const int keep = options.keep;
  models::SequentialRecommender* m = &model;
  config->checkpoint_every = std::max(1, options.every);
  config->resume = options.resume;
  config->checkpoint_save =
      [dir, keep, m](const models::FitResumeState& st) {
        const std::string path = CheckpointPath(dir, st.next_epoch);
        if (!SaveTrainingCheckpoint(*m, st, path)) {
          CAUSER_LOG(Warning) << "checkpoint write failed: " << path;
          return false;
        }
        if (metrics::Enabled()) {
          models::HealthMetrics().checkpoint_writes.Add();
        }
        PruneCheckpoints(dir, keep);
        return true;
      };
  config->checkpoint_restore = [dir, m](models::FitResumeState* st) {
    auto paths = ListCheckpoints(dir);
    // Newest first; a torn or corrupt newest file falls back to its
    // predecessor (which keep >= 2 retains exactly for this case).
    for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
      if (LoadTrainingCheckpoint(*m, st, *it)) {
        if (metrics::Enabled()) {
          models::HealthMetrics().checkpoint_resumes.Add();
        }
        return true;
      }
      CAUSER_LOG(Warning) << "skipping unloadable checkpoint: " << *it;
    }
    return false;
  };
  return true;
}

}  // namespace causer::core
