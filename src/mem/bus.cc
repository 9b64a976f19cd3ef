#include "src/mem/bus.h"

#include <algorithm>
#include <cstring>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "src/common/check.h"
#include "src/common/state.h"

namespace vfm {

void MmioDevice::SaveState(StateWriter& writer) const { (void)writer; }
bool MmioDevice::LoadState(StateReader& reader) {
  (void)reader;
  return true;
}

namespace {

uint64_t HostPageSize() {
#ifdef __linux__
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
#else
  return 4096;
#endif
}

}  // namespace

uint64_t Ram::map_size() const {
  const uint64_t page = HostPageSize();
  return (size_ + page - 1) & ~(page - 1);
}

Ram::Ram(uint64_t base, uint64_t size)
    : base_(base),
      size_(size),
      page_count_((size + (uint64_t{1} << kPageShift) - 1) >> kPageShift) {
  ZeroedLayout layout;
  const size_t marks_at = layout.Add<uint8_t>(page_count_);
  const size_t code_at = layout.Add<CodePage>(page_count_);
  page_meta_ = ZeroedMemory(layout.size());
  page_marks_ = page_meta_.At<uint8_t>(marks_at);
  code_pages_ = page_meta_.At<CodePage>(code_at);
#ifdef __linux__
  // Preferred backing: an owned memfd mapped shared. Freezing then costs nothing —
  // the fd transfers into the RamImage and this mapping flips to a private view.
  const int fd = ::memfd_create("vfm-ram", MFD_CLOEXEC);
  if (fd >= 0 && ::ftruncate(fd, static_cast<off_t>(map_size())) == 0) {
    void* map = ::mmap(nullptr, map_size(), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (map != MAP_FAILED) {
      data_ = static_cast<uint8_t*>(map);
      mapped_ = true;
      owned_fd_ = fd;
      return;
    }
  }
  if (fd >= 0) {
    ::close(fd);
  }
#endif
  // Fallback: heap backing, manually aligned to the host page size so CoW page
  // references stay well-formed even without mmap.
  const uint64_t page = HostPageSize();
  heap_.resize(map_size() + page, 0);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(heap_.data());
  data_ = reinterpret_cast<uint8_t*>((raw + page - 1) & ~(uintptr_t{page} - 1));
}

Ram::~Ram() {
#ifdef __linux__
  if (mapped_) {
    ::munmap(data_, map_size());
  }
  if (owned_fd_ >= 0) {
    ::close(owned_fd_);
  }
#endif
}

std::shared_ptr<RamImage> Ram::Freeze() {
  if (image_ != nullptr && !maybe_dirty_) {
    return image_;  // unmodified view of an existing image: share it
  }
#ifdef __linux__
  if (mapped_ && owned_fd_ >= 0) {
    // Transfer the backing into the image and keep a private view of it mapped at
    // the same address (data() must not move: harts hold host pointers into it,
    // guarded by ram_generation, and the bus fast path caches it).
    auto image = std::make_shared<RamImage>(owned_fd_, map_size(), std::vector<uint8_t>{});
    owned_fd_ = -1;
    void* map = ::mmap(data_, map_size(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_FIXED, image->fd(), 0);
    VFM_CHECK_MSG(map == data_, "RAM freeze remap failed");
    image_ = std::move(image);
    maybe_dirty_ = false;
    return image_;
  }
  if (mapped_) {
    // A modified private view: the image's pages are no longer ours to give away,
    // so copy the current contents into a fresh image and rebase onto it.
    auto image = RamImage::FromBytes(data_, map_size());
    if (image->mappable()) {
      void* map = ::mmap(data_, map_size(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_FIXED, image->fd(), 0);
      VFM_CHECK_MSG(map == data_, "RAM freeze remap failed");
    }
    image_ = std::move(image);
    maybe_dirty_ = false;
    return image_;
  }
#endif
  image_ = RamImage::FromBytes(data_, map_size());
  maybe_dirty_ = false;
  return image_;
}

void Ram::AdoptImage(std::shared_ptr<RamImage> image) {
  VFM_CHECK_MSG(image != nullptr && image->size() == map_size(),
                "RAM image size mismatch");
  if (image == image_ && !maybe_dirty_) {
    return;  // already an unmodified view of this image
  }
#ifdef __linux__
  if (mapped_ && image->mappable()) {
    void* map = ::mmap(data_, map_size(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_FIXED, image->fd(), 0);
    VFM_CHECK_MSG(map == data_, "RAM adopt remap failed");
    if (owned_fd_ >= 0) {
      ::close(owned_fd_);
      owned_fd_ = -1;
    }
    image_ = std::move(image);
    maybe_dirty_ = false;
    return;
  }
#endif
  image->CopyTo(data_);
  image_ = std::move(image);
  maybe_dirty_ = false;
}

Ram* Bus::AddRam(uint64_t base, uint64_t size) {
  VFM_CHECK_MSG(size > 0, "RAM region must be non-empty");
  for (const auto& existing : ram_) {
    const bool overlaps = base < existing->base() + existing->size() && existing->base() < base + size;
    VFM_CHECK_MSG(!overlaps, "RAM regions overlap");
  }
  ram_.push_back(std::make_unique<Ram>(base, size));
  ++ram_generation_;  // invalidates any cached host page pointers via the TLB stamps
  if (ram_.size() == 1) {
    ram0_base_ = base;
    ram0_limit_ = size;
    ram0_data_ = ram_.front()->data();
    ram0_marks_ = ram_.front()->page_marks();
    ram0_region_ = ram_.front().get();
  }
  return ram_.back().get();
}

void Bus::AddMmio(uint64_t base, uint64_t size, MmioDevice* device) {
  VFM_CHECK(device != nullptr);
  mmio_.push_back(MmioWindow{base, size, device});
}

const Ram* Bus::FindRam(uint64_t addr, uint64_t size) const {
  for (const auto& region : ram_) {
    if (addr >= region->base() && addr + size <= region->base() + region->size()) {
      return region.get();
    }
  }
  return nullptr;
}

const Bus::MmioWindow* Bus::FindMmio(uint64_t addr) const {
  for (const auto& window : mmio_) {
    if (addr >= window.base && addr < window.base + window.size) {
      return &window;
    }
  }
  return nullptr;
}

bool Bus::ReadSlow(uint64_t addr, unsigned size, uint64_t* value) {
  if (const Ram* region = FindRam(addr, size)) {
    uint64_t v = 0;
    std::memcpy(&v, region->data() + (addr - region->base()), size);
    *value = v;
    return true;
  }
  if (const MmioWindow* window = FindMmio(addr)) {
    VFM_CHECK_MSG(mmio_gate_ == nullptr || !*mmio_gate_,
                  "MMIO read dispatched mid-segment (must happen at a quantum barrier)");
    ++mmio_ops_;
    if (addr + size > window->base + window->size) {
      return false;
    }
    return window->device->MmioRead(addr - window->base, size, value);
  }
  return false;
}

bool Bus::WriteSlow(uint64_t addr, unsigned size, uint64_t value) {
  if (const Ram* region = FindRam(addr, size)) {
    Ram* mutable_region = const_cast<Ram*>(region);
    const uint64_t offset = addr - region->base();
    if ((mutable_region->page_marks()[offset >> Ram::kPageShift] |
         mutable_region->page_marks()[(offset + size - 1) >> Ram::kPageShift]) != 0) {
      InvalidateOverlap(mutable_region, offset, size);
    }
    mutable_region->SetMaybeDirty();
    std::memcpy(mutable_region->data() + offset, &value, size);
    return true;
  }
  if (const MmioWindow* window = FindMmio(addr)) {
    VFM_CHECK_MSG(mmio_gate_ == nullptr || !*mmio_gate_,
                  "MMIO write dispatched mid-segment (must happen at a quantum barrier)");
    ++mmio_ops_;
    if (addr + size > window->base + window->size) {
      return false;
    }
    return window->device->MmioWrite(addr - window->base, size, value);
  }
  return false;
}

bool Bus::ReadBytes(uint64_t addr, void* out, uint64_t size) const {
  const Ram* region = FindRam(addr, size);
  if (region == nullptr) {
    return false;
  }
  std::memcpy(out, region->data() + (addr - region->base()), size);
  return true;
}

bool Bus::WriteBytes(uint64_t addr, const void* data, uint64_t size) {
  const Ram* region = FindRam(addr, size);
  if (region == nullptr) {
    return false;
  }
  Ram* mutable_region = const_cast<Ram*>(region);
  if (size != 0 && any_marks_.load(std::memory_order_relaxed)) {
    InvalidateOverlap(mutable_region, addr - region->base(), size);
  }
  mutable_region->SetMaybeDirty();
  std::memcpy(mutable_region->data() + (addr - region->base()), data, size);
  return true;
}

bool Bus::IsRam(uint64_t addr, uint64_t size) const { return FindRam(addr, size) != nullptr; }

bool Bus::HostPage(uint64_t paddr, uint8_t** data, const uint8_t** marks,
                   const CodePage** code) const {
  const uint64_t page_base = paddr & ~((uint64_t{1} << Ram::kPageShift) - 1);
  const Ram* region = FindRam(page_base, uint64_t{1} << Ram::kPageShift);
  if (region == nullptr || (region->base() & ((uint64_t{1} << Ram::kPageShift) - 1)) != 0) {
    // A non-page-aligned region would split the frame across two mark slots.
    return false;
  }
  Ram* mutable_region = const_cast<Ram*>(region);
  const uint64_t offset = page_base - region->base();
  *data = mutable_region->data() + offset;
  *marks = mutable_region->page_marks() + (offset >> Ram::kPageShift);
  *code = mutable_region->code_pages() + (offset >> Ram::kPageShift);
  return true;
}

// Mark setting uses relaxed atomic OR: during quantum-mode segments several harts
// fill their caches (and therefore mark pages) concurrently. Marks are monotonic
// within a segment — only ever set, never read or cleared until the next barrier,
// where stores (and so invalidations) happen — and code generations are only
// written there too, so relaxed ordering is sufficient (DESIGN.md §2i).
const uint64_t* Bus::MarkCode(uint64_t paddr) {
  const Ram* region = FindRam(paddr, 1);
  if (region == nullptr) {
    return nullptr;
  }
  Ram* mutable_region = const_cast<Ram*>(region);
  const uint64_t offset = paddr - region->base();
  const uint64_t page = offset >> Ram::kPageShift;
  CodePage& code = mutable_region->code_pages()[page];
  __atomic_fetch_or(&code.granules, uint64_t{1} << ((offset >> kGranuleShift) & 63),
                    __ATOMIC_RELAXED);
  __atomic_fetch_or(&mutable_region->page_marks()[page], kExecMark, __ATOMIC_RELAXED);
  any_marks_.store(true, std::memory_order_relaxed);
  return &code.generation;
}

bool Bus::MarkPtPage(uint64_t paddr) {
  const Ram* region = FindRam(paddr, 1);
  if (region == nullptr) {
    return false;
  }
  uint8_t* slot =
      &const_cast<Ram*>(region)->page_marks()[(paddr - region->base()) >> Ram::kPageShift];
  __atomic_fetch_or(slot, kPtMark, __ATOMIC_RELAXED);
  any_marks_.store(true, std::memory_order_relaxed);
  return true;
}

void Bus::FreezeRam(std::vector<std::shared_ptr<RamImage>>* images) {
  for (auto& region : ram_) {
    images->push_back(region->Freeze());
  }
}

void Bus::AdoptRam(const std::vector<std::shared_ptr<RamImage>>& images) {
  VFM_CHECK_MSG(images.size() == ram_.size(), "snapshot RAM region count mismatch");
  for (size_t i = 0; i < ram_.size(); ++i) {
    ram_[i]->AdoptImage(images[i]);
  }
  ClearMarks(kExecMark | kPtMark);
}

void Bus::SetRamMaybeDirty() {
  for (auto& region : ram_) {
    region->SetMaybeDirty();
  }
}

void Bus::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("BUSS"), 1);
  writer.U32(static_cast<uint32_t>(ram_.size()));
  for (const auto& region : ram_) {
    writer.U64(region->base());
    writer.U64(region->size());
  }
  // Informational: generations let a debugger relate a snapshot to live counters.
  writer.U64(code_generation_);
  writer.U64(pt_generation_);
  writer.U64(ram_generation_);
  writer.EndSection();
}

bool Bus::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("BUSS"));
  const uint32_t count = reader.U32();
  if (reader.ok() && count != ram_.size()) {
    reader.Fail("snapshot RAM region count mismatch");
  }
  for (const auto& region : ram_) {
    const uint64_t base = reader.U64();
    const uint64_t size = reader.U64();
    if (reader.ok() && (base != region->base() || size != region->size())) {
      reader.Fail("snapshot RAM region geometry mismatch");
    }
  }
  reader.EndSection();  // generations: read-only debug info, skipped
  if (!reader.ok()) {
    return false;
  }
  // All translation caches are being reset by the restore, so dependency marks
  // restart empty and rebuild on refill.
  ClearMarks(kExecMark | kPtMark);
  return true;
}

void Bus::InvalidateOverlap(Ram* region, uint64_t offset, uint64_t size) {
  uint8_t* marks = region->page_marks();
  CodePage* code = region->code_pages();
  const uint64_t end = offset + size;
  bool code_hit = false;
  bool pt_hit = false;
  for (uint64_t page = offset >> Ram::kPageShift; page <= (end - 1) >> Ram::kPageShift;
       ++page) {
    const uint8_t mark = marks[page];
    pt_hit |= (mark & kPtMark) != 0;
    if ((mark & kExecMark) == 0) {
      continue;
    }
    // The granules of this page the store overwrites: [first, last] within the page.
    const uint64_t page_base = page << Ram::kPageShift;
    const unsigned first =
        static_cast<unsigned>((std::max(offset, page_base) - page_base) >> kGranuleShift);
    const unsigned last = static_cast<unsigned>(
        (std::min(end, page_base + (uint64_t{1} << Ram::kPageShift)) - 1 - page_base) >>
        kGranuleShift);
    const uint64_t overwritten = (~uint64_t{0} >> (63 - last)) & (~uint64_t{0} << first);
    if ((code[page].granules & overwritten) != 0) {
      // Only this page's entries depended on the bytes: bump its generation (their
      // stamps now mismatch) and drop its granules, which refills re-mark.
      ++code[page].generation;
      code[page].granules = 0;
      marks[page] &= static_cast<uint8_t>(~kExecMark);
      code_hit = true;
    }
  }
  if (code_hit) {
    ++code_generation_;
  }
  if (pt_hit) {
    ++pt_generation_;
    ClearMarks(kPtMark);
  }
}

void Bus::ClearMarks(uint8_t classes) {
  if (!any_marks_.load(std::memory_order_relaxed)) {
    return;  // nothing was ever marked (a freshly forked machine): skip the scan
  }
  if (classes == (kExecMark | kPtMark)) {
    any_marks_.store(false, std::memory_order_relaxed);
  }
  const uint8_t keep = static_cast<uint8_t>(~classes);
  for (auto& region : ram_) {
    uint8_t* marks = region->page_marks();
    CodePage* code = region->code_pages();
    const uint64_t count = region->page_count();
    for (uint64_t i = 0; i < count; ++i) {
      if ((marks[i] & classes) == 0) {
        continue;  // read-only: untouched pages of the mapping stay uncommitted
      }
      if ((marks[i] & classes & kExecMark) != 0) {
        code[i].granules = 0;
      }
      marks[i] &= keep;
    }
  }
}

}  // namespace vfm
