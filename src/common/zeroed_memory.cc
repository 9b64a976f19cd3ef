#include "src/common/zeroed_memory.h"

#include <cstdlib>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "src/common/check.h"

namespace vfm {

ZeroedMemory::ZeroedMemory(size_t bytes) : size_(bytes) {
  if (bytes == 0) {
    return;
  }
#ifdef __linux__
  void* data = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  VFM_CHECK_MSG(data != MAP_FAILED, "zero-filled mapping failed");
#else
  void* data = std::calloc(1, bytes);
  VFM_CHECK_MSG(data != nullptr, "zero-filled allocation failed");
#endif
  data_ = static_cast<uint8_t*>(data);
}

ZeroedMemory::~ZeroedMemory() {
  if (data_ == nullptr) {
    return;
  }
#ifdef __linux__
  ::munmap(data_, size_);
#else
  std::free(data_);
#endif
}

}  // namespace vfm
