#include "src/pmp/pmp.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "src/common/bits.h"
#include "src/common/check.h"
#include "src/common/state.h"

namespace vfm {

PmpCfg PmpCfg::FromByte(uint8_t byte) {
  PmpCfg cfg;
  cfg.r = (byte & 0x01) != 0;
  cfg.w = (byte & 0x02) != 0;
  cfg.x = (byte & 0x04) != 0;
  cfg.a = static_cast<PmpAddrMode>((byte >> 3) & 0x3);
  cfg.locked = (byte & 0x80) != 0;
  return cfg;
}

uint8_t PmpCfg::ToByte() const {
  uint8_t byte = 0;
  byte |= r ? 0x01 : 0;
  byte |= w ? 0x02 : 0;
  byte |= x ? 0x04 : 0;
  byte |= static_cast<uint8_t>(static_cast<uint8_t>(a) << 3);
  byte |= locked ? 0x80 : 0;
  return byte;
}

uint8_t LegalizePmpCfgByte(uint8_t old_byte, uint8_t new_byte) {
  new_byte &= 0x9F;  // bits 5 and 6 are reserved, read as zero
  const bool r = (new_byte & 0x01) != 0;
  const bool w = (new_byte & 0x02) != 0;
  if (w && !r) {
    return old_byte;  // reserved combination: the write is ignored
  }
  return new_byte;
}

std::optional<PmpRange> DecodePmpRange(PmpCfg cfg, uint64_t addr, uint64_t prev_addr) {
  switch (cfg.a) {
    case PmpAddrMode::kOff:
      return std::nullopt;
    case PmpAddrMode::kTor: {
      const uint64_t base = prev_addr << 2;
      const uint64_t limit = addr << 2;
      if (base >= limit) {
        return std::nullopt;
      }
      return PmpRange{base, limit};
    }
    case PmpAddrMode::kNa4:
      return PmpRange{addr << 2, (addr << 2) + 4};
    case PmpAddrMode::kNapot: {
      const unsigned ones = CountTrailingOnes(addr);
      // addr = yyy...y0111...1 encodes a 2^(ones+3)-byte region.
      const uint64_t size = uint64_t{8} << ones;
      const uint64_t base = (addr & ~MaskLow(ones + 1)) << 2;
      return PmpRange{base, base + size};
    }
  }
  return std::nullopt;
}

PmpBank::PmpBank(unsigned entry_count) : entry_count_(entry_count) {
  VFM_CHECK_MSG(entry_count <= kMaxEntries, "too many PMP entries");
}

uint64_t PmpBank::ReadCfgReg(unsigned reg_index) const {
  VFM_DCHECK(reg_index % 2 == 0);
  const unsigned first = reg_index * 4;  // pmpcfg2i holds entries [8i, 8i+8)
  uint64_t value = 0;
  for (unsigned i = 0; i < 8; ++i) {
    const unsigned entry = first + i;
    if (entry < entry_count_) {
      value |= static_cast<uint64_t>(cfg_[entry]) << (8 * i);
    }
  }
  return value;
}

void PmpBank::WriteCfgReg(unsigned reg_index, uint64_t value) {
  VFM_DCHECK(reg_index % 2 == 0);
  const unsigned first = reg_index * 4;
  for (unsigned i = 0; i < 8; ++i) {
    const unsigned entry = first + i;
    if (entry >= entry_count_) {
      continue;
    }
    const uint8_t old_byte = cfg_[entry];
    if ((old_byte & 0x80) != 0) {
      continue;  // locked entries ignore cfg writes
    }
    const uint8_t new_byte = LegalizePmpCfgByte(old_byte, static_cast<uint8_t>(value >> (8 * i)));
    changed_ |= new_byte != old_byte;
    cfg_[entry] = new_byte;
  }
}

uint64_t PmpBank::ReadAddrReg(unsigned index) const {
  if (index >= entry_count_) {
    return 0;
  }
  return addr_[index];
}

void PmpBank::WriteAddrReg(unsigned index, uint64_t value) {
  if (index >= entry_count_) {
    return;
  }
  const PmpCfg cfg = GetCfg(index);
  if (cfg.locked) {
    return;
  }
  // Writes to pmpaddr[i] are also ignored when entry i+1 is locked in TOR mode, since
  // pmpaddr[i] then defines the base of a locked region.
  if (index + 1 < entry_count_) {
    const PmpCfg next = GetCfg(index + 1);
    if (next.locked && next.a == PmpAddrMode::kTor) {
      return;
    }
  }
  SetAddr(index, value);
}

PmpCfg PmpBank::GetCfg(unsigned index) const {
  VFM_DCHECK(index < entry_count_);
  return PmpCfg::FromByte(cfg_[index]);
}

void PmpBank::SetCfg(unsigned index, PmpCfg cfg) {
  VFM_DCHECK(index < entry_count_);
  const uint8_t byte = cfg.ToByte();
  changed_ |= cfg_[index] != byte;
  cfg_[index] = byte;
}

void PmpBank::SetAddr(unsigned index, uint64_t value) {
  value &= kAddrMask;
  changed_ |= addr_[index] != value;
  addr_[index] = value;
}

namespace {

uint64_t NextPmpId() {
  static std::atomic<uint64_t> next{1};
  const uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  VFM_CHECK_MSG(id < PmpBank::kMaxGeneration, "PMP content ids exhausted");
  return id;
}

}  // namespace

void PmpBank::Intern() const {
  const unsigned n = entry_count_;
  if (slot_ranges_.empty()) {
    slot_cfg_.resize(size_t{kInternSlots} * n);
    slot_addr_.resize(size_t{kInternSlots} * n);
    slot_ranges_.resize(size_t{kInternSlots} * n);
  }
  changed_ = false;
  for (unsigned s = 0; s < kInternSlots; ++s) {
    if (slot_id_[s] != 0 && std::equal(cfg_, cfg_ + n, slot_cfg_.data() + s * n) &&
        std::equal(addr_, addr_ + n, slot_addr_.data() + s * n)) {
      slot_ = s;
      id_ = slot_id_[s];
      return;
    }
  }
  const unsigned s = next_slot_;
  next_slot_ = (s + 1) % kInternSlots;
  std::copy_n(cfg_, n, slot_cfg_.data() + s * n);
  std::copy_n(addr_, n, slot_addr_.data() + s * n);
  CachedEntry* ranges = slot_ranges_.data() + s * n;
  for (unsigned i = 0; i < n; ++i) {
    const PmpCfg cfg = PmpCfg::FromByte(cfg_[i]);
    const uint64_t prev = i == 0 ? 0 : addr_[i - 1];
    const std::optional<PmpRange> range = DecodePmpRange(cfg, addr_[i], prev);
    ranges[i].active = range.has_value();
    ranges[i].cfg = cfg;
    ranges[i].range = range.value_or(PmpRange{});
  }
  slot_ = s;
  id_ = NextPmpId();
  slot_id_[s] = id_;
}

bool PmpBank::Check(uint64_t addr, uint64_t size, AccessType type, PrivMode mode) const {
  if (entry_count_ == 0) {
    return true;  // no PMP implemented: all accesses are permitted (spec 3.7.1)
  }
  if (changed_) {
    Intern();
  }
  const CachedEntry* entries = slot_ranges_.data() + slot_ * entry_count_;
  for (unsigned i = 0; i < entry_count_; ++i) {
    const CachedEntry& entry = entries[i];
    if (!entry.active || !entry.range.Overlaps(addr, size)) {
      continue;
    }
    if (!entry.range.Contains(addr, size)) {
      return false;  // partial match always denies
    }
    if (mode == PrivMode::kMachine && !entry.cfg.locked) {
      return true;  // unlocked entries do not constrain M-mode
    }
    return entry.cfg.Permits(type);
  }
  // No matching entry: M-mode is allowed, lower privileges are denied.
  return mode == PrivMode::kMachine;
}

std::optional<unsigned> PmpBank::FirstMatch(uint64_t addr) const {
  for (unsigned i = 0; i < entry_count_; ++i) {
    const PmpCfg cfg = GetCfg(i);
    const uint64_t prev = i == 0 ? 0 : addr_[i - 1];
    const std::optional<PmpRange> range = DecodePmpRange(cfg, addr_[i], prev);
    if (range.has_value() && range->Contains(addr, 1)) {
      return i;
    }
  }
  return std::nullopt;
}

std::string PmpBank::Describe() const {
  std::string out;
  char line[128];
  for (unsigned i = 0; i < entry_count_; ++i) {
    const PmpCfg cfg = GetCfg(i);
    const uint64_t prev = i == 0 ? 0 : addr_[i - 1];
    const std::optional<PmpRange> range = DecodePmpRange(cfg, addr_[i], prev);
    const char* mode = "OFF";
    switch (cfg.a) {
      case PmpAddrMode::kOff:
        mode = "OFF";
        break;
      case PmpAddrMode::kTor:
        mode = "TOR";
        break;
      case PmpAddrMode::kNa4:
        mode = "NA4";
        break;
      case PmpAddrMode::kNapot:
        mode = "NAPOT";
        break;
    }
    std::snprintf(line, sizeof(line), "pmp%-2u %-5s %c%c%c%c [%016llx, %016llx)\n", i, mode,
                  cfg.locked ? 'L' : '-', cfg.r ? 'R' : '-', cfg.w ? 'W' : '-',
                  cfg.x ? 'X' : '-',
                  static_cast<unsigned long long>(range ? range->base : 0),
                  static_cast<unsigned long long>(range ? range->limit : 0));
    out += line;
  }
  return out;
}

void PmpBank::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("PMPB"), 1);
  writer.U32(entry_count_);
  for (unsigned i = 0; i < entry_count_; ++i) {
    writer.U8(cfg_[i]);
    writer.U64(addr_[i]);
  }
  writer.EndSection();
}

bool PmpBank::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("PMPB"));
  const uint32_t count = reader.U32();
  if (reader.ok() && count != entry_count_) {
    reader.Fail("pmp entry count mismatch");
  }
  uint8_t cfg[kMaxEntries] = {};
  uint64_t addr[kMaxEntries] = {};
  for (unsigned i = 0; reader.ok() && i < entry_count_; ++i) {
    cfg[i] = reader.U8();
    addr[i] = reader.U64();
  }
  reader.EndSection();
  if (!reader.ok()) {
    return false;
  }
  for (unsigned i = 0; i < entry_count_; ++i) {
    SetAddr(i, addr[i]);
    SetCfg(i, PmpCfg::FromByte(cfg[i]));
  }
  std::fill_n(slot_id_, kInternSlots, 0);
  changed_ = true;
  return true;
}

}  // namespace vfm
