// Per-frame bump allocation for the fusion/scoring hot path. Evaluating
// one frame fuses and scores up to 2^m − 1 masks, and every mask used to
// pay dozens of heap allocations for transient scratch (class-grouped
// pools, suppression flags, match records, PR curves). A FrameArena turns
// all of that into pointer bumps over a few reusable blocks: scratch is
// claimed with Allocate, reclaimed wholesale by rewinding to a mark, and
// the blocks themselves are recycled frame after frame — steady state
// performs zero heap allocations (see stats().block_allocs). Allocate's
// common case (the request fits the current block) and Rewind are inline:
// a fused cell makes dozens of arena requests, every one of them on the
// hot path.
//
// Concurrency model: arenas are single-threaded by design. Hot-path code
// uses FrameArena::ThreadLocal(), one arena per thread, so ParallelFor
// workers never contend and never share scratch. Lifetime discipline is
// strictly LIFO: an ArenaScope rewinds everything allocated after its
// construction, so arena memory must never outlive the innermost scope
// that allocated it — return long-lived data in regular containers.

#ifndef VQE_COMMON_ARENA_H_
#define VQE_COMMON_ARENA_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vqe {

/// A chunked bump allocator with LIFO (mark/rewind) reclamation.
class FrameArena {
 public:
  /// Allocation counters; block_allocs is the number the zero-allocation
  /// regression gate watches — it must stop growing once the hot path has
  /// warmed the arena to its high-water mark.
  struct Stats {
    /// Heap blocks ever requested from the system allocator.
    uint64_t block_allocs = 0;
  };

  /// Position for Rewind: the block index and intra-block offset at the
  /// time of Mark. Treat as opaque.
  struct Marker {
    size_t block = 0;
    size_t offset = 0;
  };

  static constexpr size_t kDefaultBlockBytes = size_t{256} * 1024;

  explicit FrameArena(size_t min_block_bytes = kDefaultBlockBytes);
  ~FrameArena();

  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Never returns nullptr; zero-byte requests yield a unique aligned
  /// pointer into the current block. The fast path — the request fits in
  /// the current block — is inline: an align-up and a bounds check.
  void* Allocate(size_t bytes, size_t align) {
    // Align the absolute address, not the intra-block offset: block bases
    // from ::operator new only honour fundamental alignment.
    const uintptr_t base = reinterpret_cast<uintptr_t>(cur_data_);
    const size_t offset = static_cast<size_t>(
        ((base + cur_offset_ + align - 1) & ~(uintptr_t{align} - 1)) - base);
    if (cur_data_ != nullptr && offset + bytes <= cur_size_) {
      cur_offset_ = offset + bytes;
      return cur_data_ + offset;
    }
    return AllocateSlow(bytes, align);
  }

  /// Typed convenience: uninitialized storage for `n` objects of T.
  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Current position; pass to Rewind to release everything allocated
  /// after this call. Strictly LIFO: rewinding invalidates every pointer
  /// obtained since the mark.
  Marker Mark() const { return Marker{cur_block_, cur_offset_}; }
  void Rewind(const Marker& m) {
    assert(m.block < blocks_.size() || (m.block == 0 && m.offset == 0));
    if (blocks_.empty()) return;
    if (m.block != cur_block_) {
      cur_block_ = m.block;
      cur_data_ = blocks_[m.block].data;
      cur_size_ = blocks_[m.block].size;
    }
    cur_offset_ = m.offset;
  }

  /// Rewinds to empty, keeping the blocks for reuse.
  void Reset() { Rewind(Marker{0, 0}); }

  /// Frees all blocks (stats are kept). Mainly for tests and teardown.
  void ReleaseAll();

  const Stats& stats() const { return stats_; }
  /// Bytes currently live (sum of full blocks before the cursor plus the
  /// current block's offset).
  size_t live_bytes() const;

  /// The calling thread's arena. One per thread, created on first use, so
  /// ParallelFor workers bump their own cursors without synchronization.
  static FrameArena& ThreadLocal();

 private:
  struct Block {
    char* data = nullptr;
    size_t size = 0;
  };

  /// Allocate when the request does not fit the current block (or there
  /// is none yet): moves to the next retained block or grows.
  void* AllocateSlow(size_t bytes, size_t align);

  /// Makes the cursor point at a block with at least `bytes` of room,
  /// reusing retained blocks before growing the footprint.
  void NextBlock(size_t bytes);

  std::vector<Block> blocks_;
  size_t cur_block_ = 0;
  size_t cur_offset_ = 0;
  /// blocks_[cur_block_]'s data and size, cached for the inline fast path
  /// (nullptr / 0 while no block exists).
  char* cur_data_ = nullptr;
  size_t cur_size_ = 0;
  size_t min_block_bytes_;
  Stats stats_;
};

/// RAII mark/rewind: everything the protected region allocates from the
/// arena is reclaimed at scope exit. Scopes nest LIFO; allocations that
/// must survive the scope belong in regular containers.
class ArenaScope {
 public:
  explicit ArenaScope(FrameArena& arena)
      : arena_(&arena), mark_(arena.Mark()) {}
  ~ArenaScope() { arena_->Rewind(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  FrameArena* arena_;
  FrameArena::Marker mark_;
};

namespace arena_internal {

/// Merges two sorted runs [a, a+na) and [b, b+nb) into out, taking from
/// the first run on ties (what makes the sort stable).
template <typename T, typename Less>
void MergeRuns(const T* a, size_t na, const T* b, size_t nb, T* out,
               Less less) {
  size_t i = 0, j = 0, k = 0;
  while (i < na && j < nb) {
    // Take b[j] only when strictly less than a[i]: equal elements keep
    // their original (first-run-first) order.
    out[k++] = less(b[j], a[i]) ? b[j++] : a[i++];
  }
  while (i < na) out[k++] = a[i++];
  while (j < nb) out[k++] = b[j++];
}

}  // namespace arena_internal

/// Stable sort with arena-backed temporaries. std::stable_sort heap-
/// allocates a merge buffer on every call, which the zero-allocation hot
/// path cannot afford; this bottom-up merge sort borrows the buffer from
/// the arena instead. A stable sort's output permutation is uniquely
/// determined by (input, comparator), so replacing std::stable_sort with
/// this keeps every downstream value bit-identical.
template <typename T, typename Less>
void ArenaStableSort(T* data, size_t n, FrameArena& arena, Less less) {
  if (n < 2) return;
  // Already-sorted fast path: a stable sort of a sorted sequence is the
  // identity permutation, so returning unchanged is the same result. The
  // fusion/scoring pipeline sorts many lists that arrive pre-sorted
  // (fused outputs are emitted in descending confidence), making this
  // O(n) check pay for itself many times over.
  bool sorted = true;
  for (size_t i = 1; i < n; ++i) {
    if (less(data[i], data[i - 1])) {
      sorted = false;
      break;
    }
  }
  if (sorted) return;
  ArenaScope scope(arena);
  T* buf = arena.AllocateArray<T>(n);
  T* src = data;
  T* dst = buf;
  for (size_t width = 1; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      const size_t mid = std::min(lo + width, n);
      const size_t hi = std::min(lo + 2 * width, n);
      arena_internal::MergeRuns(src + lo, mid - lo, src + mid, hi - mid,
                                dst + lo, less);
    }
    std::swap(src, dst);
  }
  if (src != data) {
    for (size_t i = 0; i < n; ++i) data[i] = src[i];
  }
}

}  // namespace vqe

#endif  // VQE_COMMON_ARENA_H_
