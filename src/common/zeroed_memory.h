// Anonymous zero-filled mappings for large host-side caches and per-page metadata
// that a run may touch only sparsely. The kernel commits a page of the mapping when
// it is first written (reads of an untouched page see the shared zero page), and the
// whole mapping goes back to the kernel at destruction — it never lingers in the
// allocator's free lists, which is what made per-hart caches dominate the resident
// size of short-lived forked machines.
//
// One mapping holds every array of its owner (ZeroedLayout packs them), so an owner
// costs one mmap/munmap pair: those calls serialize against page faults in every
// other thread of the process, which parallel fleet workers feel.
//
// Array elements are never constructed: every slot starts as all-zero bytes and is
// only ever assigned. Element types must therefore be trivially copyable, and their
// all-zero representation must mean "empty" to whoever reads them.

#ifndef SRC_COMMON_ZEROED_MEMORY_H_
#define SRC_COMMON_ZEROED_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace vfm {

// Offsets of consecutive arrays packed into one ZeroedMemory, each starting on a
// cache-line boundary.
class ZeroedLayout {
 public:
  // Reserves `count` elements of T; returns the array's offset.
  template <typename T>
  size_t Add(size_t count) {
    const size_t at = (size_ + 63) & ~size_t{63};
    size_ = at + count * sizeof(T);
    return at;
  }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class ZeroedMemory {
 public:
  ZeroedMemory() = default;
  // Maps `bytes` of zero-filled memory (nothing for 0). Aborts on failure.
  explicit ZeroedMemory(size_t bytes);
  ~ZeroedMemory();
  ZeroedMemory(const ZeroedMemory&) = delete;
  ZeroedMemory& operator=(const ZeroedMemory&) = delete;
  ZeroedMemory(ZeroedMemory&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  ZeroedMemory& operator=(ZeroedMemory&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }

  // The array placed at `offset` (from ZeroedLayout::Add<T>).
  template <typename T>
  T* At(size_t offset) {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                  "zeroed arrays are never constructed or destroyed");
    return reinterpret_cast<T*>(data_ + offset);
  }

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace vfm

#endif  // SRC_COMMON_ZEROED_MEMORY_H_
