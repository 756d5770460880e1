#include "tensor/arena.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/log.h"
#include "common/metrics.h"

// Poison arena blocks while they are not handed out so the ASan CI job
// flags any use of a tensor that outlived its ArenaScope (a stale tape
// reference would otherwise silently read recycled memory).
#if defined(__SANITIZE_ADDRESS__)
#define CAUSER_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAUSER_ARENA_ASAN 1
#endif
#endif
#ifdef CAUSER_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define CAUSER_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CAUSER_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CAUSER_ARENA_POISON(p, n) ((void)0)
#define CAUSER_ARENA_UNPOISON(p, n) ((void)0)
#endif

namespace causer::tensor {
namespace {

/// Arena instruments (see docs/OBSERVABILITY.md), registered together on
/// first touch. Reset counts approximate optimizer steps + scored
/// instances; reset_bytes is the per-step tape footprint.
struct ArenaMetricsT {
  metrics::Counter& resets;
  metrics::Counter& blocks;
  metrics::Gauge& reserved_bytes;
  metrics::Histogram& reset_bytes;
};

ArenaMetricsT& ArenaMetrics() {
  static ArenaMetricsT m{
      metrics::GetCounter("tensor.arena.resets_total", "resets",
                          "Arena rewinds (one per ArenaScope exit: a "
                          "training step or a scored eval instance)."),
      metrics::GetCounter("tensor.arena.blocks_total", "blocks",
                          "Backing blocks allocated by arenas (growth "
                          "events; flat once steady state is reached)."),
      metrics::GetGauge("tensor.arena.reserved_bytes", "bytes",
                        "Bytes reserved by the most recently reset arena."),
      metrics::GetHistogram(
          "tensor.arena.reset_bytes", "bytes",
          "Tape bytes handed out between consecutive arena resets.",
          metrics::ExponentialBuckets(1024.0, 4.0, 10)),
  };
  return m;
}

std::atomic<bool> g_arena_enabled{true};
thread_local Arena* g_active_arena = nullptr;

/// The calling thread's recycled arena, created on first ArenaScope.
Arena& ThreadArena() {
  static thread_local Arena arena;
  return arena;
}

constexpr size_t AlignUp(size_t n) {
  return (n + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

}  // namespace

Arena::Arena(size_t first_block_bytes)
    : first_block_bytes_(std::max(AlignUp(first_block_bytes), kAlignment)) {}

Arena::~Arena() {
  for (Block& b : blocks_) {
    CAUSER_ARENA_UNPOISON(b.data, b.size);
    ::operator delete(b.data, std::align_val_t{kAlignment});
  }
}

void* AlignedHeapAllocate(size_t bytes) {
  void* raw = std::malloc(bytes + Arena::kAlignment);
  if (raw == nullptr) throw std::bad_alloc();
  // malloc aligns to at least sizeof(void*), so rounding up from one word
  // past `raw` stays inside the kAlignment bytes of slack.
  const uintptr_t aligned =
      (reinterpret_cast<uintptr_t>(raw) + sizeof(void*) + Arena::kAlignment -
       1) &
      ~uintptr_t{Arena::kAlignment - 1};
  reinterpret_cast<void**>(aligned)[-1] = raw;
  return reinterpret_cast<void*>(aligned);
}

void AlignedHeapFree(void* p) noexcept {
  if (p != nullptr) std::free(static_cast<void**>(p)[-1]);
}

void Arena::AddBlock(size_t min_bytes) {
  // Geometric growth: each new block doubles the largest so far, so a
  // workload with tape footprint F settles into O(log F) blocks total.
  size_t size = blocks_.empty() ? first_block_bytes_ : blocks_.back().size * 2;
  size = std::max(size, AlignUp(min_bytes));
  Block b;
  b.data = static_cast<char*>(::operator new(size, std::align_val_t{kAlignment}));
  b.size = size;
  CAUSER_ARENA_POISON(b.data, b.size);
  blocks_.push_back(b);
  reserved_ += size;
  if (metrics::Enabled()) ArenaMetrics().blocks.Add();
}

void* Arena::Allocate(size_t bytes) {
  bytes = std::max(AlignUp(bytes), kAlignment);
  while (block_index_ < blocks_.size() &&
         offset_ + bytes > blocks_[block_index_].size) {
    // Skip to the next retained block; the unused tail of this one is
    // wasted until the next Reset (bounded by doubling sizes).
    ++block_index_;
    offset_ = 0;
  }
  if (block_index_ == blocks_.size()) AddBlock(bytes);
  char* p = blocks_[block_index_].data + offset_;
  CAUSER_ARENA_UNPOISON(p, bytes);
  offset_ += bytes;
  in_use_ += bytes;
  return p;
}

void Arena::Reset() {
  if (metrics::Enabled()) {
    ArenaMetricsT& m = ArenaMetrics();
    m.resets.Add();
    m.reset_bytes.Observe(static_cast<double>(in_use_));
    m.reserved_bytes.Set(static_cast<double>(reserved_));
  }
  for (Block& b : blocks_) CAUSER_ARENA_POISON(b.data, b.size);
  block_index_ = 0;
  offset_ = 0;
  in_use_ = 0;
}

bool Arena::Owns(const void* p) const {
  const char* c = static_cast<const char*>(p);
  for (const Block& b : blocks_) {
    if (c >= b.data && c < b.data + b.size) return true;
  }
  return false;
}

Arena* ActiveArena() { return g_active_arena; }

void SetArenaEnabled(bool enabled) {
  g_arena_enabled.store(enabled, std::memory_order_relaxed);
}

bool ArenaEnabled() {
  return g_arena_enabled.load(std::memory_order_relaxed);
}

ArenaScope::ArenaScope()
    : ArenaScope(ArenaEnabled() && ActiveArena() == nullptr ? &ThreadArena()
                                                            : nullptr) {}

ArenaScope::ArenaScope(Arena* arena) {
  if (arena == nullptr || !ArenaEnabled() || g_active_arena != nullptr) {
    return;  // nested or disabled: leave the outer scope in charge
  }
  arena_ = arena;
  g_active_arena = arena;
}

ArenaScope::~ArenaScope() {
  if (arena_ == nullptr) return;
  g_active_arena = nullptr;
  arena_->Reset();
}

}  // namespace causer::tensor
