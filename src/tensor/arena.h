#ifndef CAUSER_TENSOR_ARENA_H_
#define CAUSER_TENSOR_ARENA_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

namespace causer::tensor {

/// Bump allocator backing the autograd tape. A training step allocates
/// thousands of short-lived buffers (Node values, gradients, the nodes
/// themselves) that all die together when the step's graph is released;
/// the arena turns each of those malloc/free pairs into a pointer bump and
/// one O(1) Reset() per step.
///
/// Lifetime rules (see docs/PERFORMANCE.md):
///  - Memory from Allocate() is valid until the next Reset(). There is no
///    per-allocation free; deallocation is a no-op.
///  - Reset() rewinds all blocks but keeps them reserved, so a steady-state
///    training loop stops growing after the first few steps.
///  - An Arena is single-threaded: each thread uses its own (ArenaScope
///    activates the calling thread's thread-local arena).
class Arena {
 public:
  /// Every allocation is aligned to this many bytes (covers SIMD loads on
  /// the value/grad buffers and any over-aligned shared_ptr control block).
  static constexpr size_t kAlignment = 64;

  explicit Arena(size_t first_block_bytes = size_t{1} << 20);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of kAlignment-aligned storage valid until Reset().
  void* Allocate(size_t bytes);

  /// Rewinds the arena to empty. All previously returned pointers become
  /// invalid; the underlying blocks stay reserved for reuse.
  void Reset();

  /// Bytes handed out since the last Reset() (rounded up to kAlignment).
  size_t bytes_in_use() const { return in_use_; }

  /// Total bytes of backing blocks currently reserved.
  size_t bytes_reserved() const { return reserved_; }

  /// Number of backing blocks allocated over the arena's lifetime.
  size_t num_blocks() const { return blocks_.size(); }

  /// True when `p` points into one of the arena's blocks (used by
  /// deallocate() to tell arena pointers from heap pointers, and by tests).
  bool Owns(const void* p) const;

 private:
  struct Block {
    char* data = nullptr;
    size_t size = 0;
  };

  void AddBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  size_t block_index_ = 0;  // block currently being bumped
  size_t offset_ = 0;       // bump offset within blocks_[block_index_]
  size_t in_use_ = 0;
  size_t reserved_ = 0;
  size_t first_block_bytes_;
};

/// The calling thread's active arena, or null when no ArenaScope is open.
Arena* ActiveArena();

/// Globally enables/disables ArenaScope activation (default: enabled).
/// When disabled every ArenaScope is a no-op and all tape storage comes
/// from the heap — the before/after knob for benchmarks and the --arena
/// CLI flag.
void SetArenaEnabled(bool enabled);
bool ArenaEnabled();

/// RAII activation of the calling thread's recycled thread-local arena (or
/// an explicit one). While the scope is open, new autograd nodes and their
/// value/grad buffers are carved from the arena; the destructor resets it,
/// releasing the whole tape at once.
///
/// Usage contract: everything allocated inside the scope must be dead (or
/// copied out to plain heap storage) before the scope closes — i.e. open
/// the scope at the top of a training-step or scoring-instance body so its
/// Tensors are inner locals. Parameters created outside any scope stay on
/// the heap, including their lazily allocated gradient buffers, so
/// optimizer state survives Reset(). Nested scopes are no-ops: the inner
/// scope neither switches arenas nor resets the outer one.
class ArenaScope {
 public:
  ArenaScope();
  explicit ArenaScope(Arena* arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// True when this scope actually activated an arena (false when nested
  /// inside another scope or when SetArenaEnabled(false) is in effect).
  bool active() const { return arena_ != nullptr; }

 private:
  Arena* arena_ = nullptr;  // the arena this scope activated, or null
};

/// Arena::kAlignment-aligned heap storage, carved from one plain malloc of
/// `bytes + kAlignment` (the malloc pointer sits in the word before the
/// returned one). glibc's aligned allocation asks for more than it keeps,
/// so the hole a freed buffer leaves is too small for the next aligned
/// buffer of the same size, and a reloaded item table would grow the heap
/// instead of reusing it; a hole left by this function fits. Release with
/// AlignedHeapFree.
void* AlignedHeapAllocate(size_t bytes);
void AlignedHeapFree(void* p) noexcept;

/// Standard-library allocator that carves from the arena captured at
/// construction time, falling back to the global heap when none was active.
/// Capturing at construction (not at allocate()) is what pins a container
/// to its origin: a parameter's grad vector constructed outside any scope
/// keeps heap-allocating even when EnsureGrad() later runs inside one.
/// Heap buffers are Arena::kAlignment-aligned like arena ones: malloc only
/// guarantees 16 bytes, and a served item table whose rows start 16 bytes
/// past a cache line scores ~5% slower, so a table's speed would otherwise
/// depend on the allocator's history.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  // Moves and swaps carry the source's arena along with its buffer; copy
  // assignment keeps the destination's allocator (std::vector then copies
  // element-wise through storage from the destination's own source).
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() noexcept : arena_(ActiveArena()) {}
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(n * sizeof(T)));
    }
    return static_cast<T*>(AlignedHeapAllocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t) noexcept {
    if (arena_ == nullptr) AlignedHeapFree(p);
    // Arena memory is reclaimed wholesale by Arena::Reset().
  }

  /// Copy-constructed containers allocate from the *copier's* context (the
  /// arena active right now, or the heap), never from the source's arena:
  /// a buffer copied outside its originating scope must outlive that
  /// scope's Reset().
  ArenaAllocator select_on_container_copy_construction() const {
    return ArenaAllocator(ActiveArena());
  }

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return !(a == b);
  }

 private:
  Arena* arena_;
};

/// Float buffer type of Node values/gradients: a std::vector whose backing
/// store comes from the arena active when the owning Node was created.
using FloatBuffer = std::vector<float, ArenaAllocator<float>>;

}  // namespace causer::tensor

#endif  // CAUSER_TENSOR_ARENA_H_
