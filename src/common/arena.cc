#include "common/arena.h"

#include <cassert>
#include <new>

namespace vqe {

namespace {

inline size_t AlignUp(size_t value, size_t align) {
  return (value + align - 1) & ~(align - 1);
}

}  // namespace

FrameArena::FrameArena(size_t min_block_bytes)
    : min_block_bytes_(min_block_bytes > 0 ? min_block_bytes
                                           : kDefaultBlockBytes) {}

FrameArena::~FrameArena() { ReleaseAll(); }

void* FrameArena::AllocateSlow(size_t bytes, size_t align) {
  assert(align > 0 && (align & (align - 1)) == 0);
  if (blocks_.empty()) NextBlock(bytes + align);
  // Over-reserving by `align` in NextBlock keeps the padded request in
  // bounds whatever the block base's alignment.
  const auto aligned_offset = [this, align](size_t offset) {
    const uintptr_t base = reinterpret_cast<uintptr_t>(cur_data_);
    return static_cast<size_t>(AlignUp(base + offset, align) - base);
  };
  size_t offset = aligned_offset(cur_offset_);
  if (offset + bytes > cur_size_) {
    NextBlock(bytes + align);
    offset = aligned_offset(cur_offset_);
  }
  cur_offset_ = offset + bytes;
  return cur_data_ + offset;
}

void FrameArena::NextBlock(size_t bytes) {
  // Reuse a retained block when the next one is big enough; otherwise
  // insert a fresh block at the cursor. Fresh blocks double the working
  // size so arenas converge to O(log) block count regardless of demand.
  const size_t next = blocks_.empty() ? 0 : cur_block_ + 1;
  if (next < blocks_.size() && blocks_[next].size >= bytes) {
    cur_block_ = next;
    cur_offset_ = 0;
    cur_data_ = blocks_[next].data;
    cur_size_ = blocks_[next].size;
    return;
  }
  size_t size = min_block_bytes_;
  if (!blocks_.empty()) size = blocks_.back().size * 2;
  if (size < bytes) size = bytes;
  Block b;
  b.data = static_cast<char*>(::operator new(size));
  b.size = size;
  ++stats_.block_allocs;
  blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(next), b);
  cur_block_ = next;
  cur_offset_ = 0;
  cur_data_ = b.data;
  cur_size_ = b.size;
}

void FrameArena::ReleaseAll() {
  for (auto& b : blocks_) ::operator delete(b.data);
  blocks_.clear();
  cur_block_ = 0;
  cur_offset_ = 0;
  cur_data_ = nullptr;
  cur_size_ = 0;
}

size_t FrameArena::live_bytes() const {
  if (blocks_.empty()) return 0;
  size_t live = cur_offset_;
  for (size_t i = 0; i < cur_block_; ++i) live += blocks_[i].size;
  return live;
}

FrameArena& FrameArena::ThreadLocal() {
  thread_local FrameArena arena;
  return arena;
}

}  // namespace vqe
