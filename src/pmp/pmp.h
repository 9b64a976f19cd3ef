// Physical Memory Protection (PMP) semantics, shared between the hart simulator, the
// monitor's virtual-PMP multiplexer, and the reference model. This module owns the
// cfg/addr register encoding, WARL legalization, and the access-check algorithm from
// the privileged spec (the pmpCheck analog the paper verifies against, §6.4).

#ifndef SRC_PMP_PMP_H_
#define SRC_PMP_PMP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/isa/priv.h"
#include "src/mem/bus.h"

namespace vfm {

class StateReader;
class StateWriter;

// Address-matching modes in pmpcfg.A.
enum class PmpAddrMode : uint8_t {
  kOff = 0,
  kTor = 1,
  kNa4 = 2,
  kNapot = 3,
};

// One pmpcfg byte, unpacked.
struct PmpCfg {
  bool r = false;
  bool w = false;
  bool x = false;
  PmpAddrMode a = PmpAddrMode::kOff;
  bool locked = false;

  static PmpCfg FromByte(uint8_t byte);
  uint8_t ToByte() const;

  bool Permits(AccessType type) const {
    switch (type) {
      case AccessType::kFetch:
        return x;
      case AccessType::kLoad:
        return r;
      case AccessType::kStore:
        return w;
    }
    return false;
  }
};

// Legalizes a pmpcfg byte write per the WARL rules this library implements uniformly:
//  - bits 5 and 6 always read zero;
//  - the reserved combination R=0,W=1 keeps the previous value of the entry
//    (matching the reference Sail model's behaviour the paper checks against).
uint8_t LegalizePmpCfgByte(uint8_t old_byte, uint8_t new_byte);

// The address range an active PMP entry matches: [base, limit) in byte addresses.
struct PmpRange {
  uint64_t base = 0;
  uint64_t limit = 0;  // exclusive; 0 with base 0 means empty

  bool Contains(uint64_t addr, uint64_t size) const {
    return addr >= base && size <= limit - addr && addr < limit;
  }
  bool Overlaps(uint64_t addr, uint64_t size) const {
    return addr < limit && base < addr + size;
  }
};

// Decodes the byte range matched by entry `index` given its cfg and the addr registers.
// `prev_addr` is pmpaddr[index-1] (0 for entry 0), needed for TOR. Returns nullopt for
// OFF entries or empty TOR ranges.
std::optional<PmpRange> DecodePmpRange(PmpCfg cfg, uint64_t addr, uint64_t prev_addr);

// A bank of PMP entries as architected state, with WARL-legalizing CSR accessors.
class PmpBank {
 public:
  static constexpr unsigned kMaxEntries = 64;

  explicit PmpBank(unsigned entry_count);

  unsigned entry_count() const { return entry_count_; }

  // CSR-level access. `reg_index` is the pmpcfg register number (even on RV64: 0, 2,
  // 4, ...); each holds 8 cfg bytes. Writes apply WARL legalization and respect locks.
  uint64_t ReadCfgReg(unsigned reg_index) const;
  void WriteCfgReg(unsigned reg_index, uint64_t value);
  uint64_t ReadAddrReg(unsigned index) const;
  void WriteAddrReg(unsigned index, uint64_t value);

  // Direct (non-WARL) access used by the monitor when installing computed physical
  // configurations and by tests constructing states.
  PmpCfg GetCfg(unsigned index) const;
  void SetCfg(unsigned index, PmpCfg cfg);
  uint64_t GetAddr(unsigned index) const { return addr_[index]; }
  void SetAddr(unsigned index, uint64_t value);

  // The identity of the bank's content: its cfg and addr registers. The bank interns
  // its last kInternSlots distinct configurations, so returning to one of them gives
  // its old id back; any other configuration gets a fresh id from a process-wide
  // counter that only grows. An id therefore never names two different contents, in
  // this bank or any other. The harts key decoded instructions, lowered blocks and
  // TLB entries on it (src/sim/hart.h), so a world switch that restores the OS's
  // configuration finds everything filled under it still valid. Ids are never 0 and
  // stay below kMaxGeneration. Interning is lazy: a write only marks the bank changed,
  // and the next call here or to Check() looks the content up once, however many
  // registers the burst rewrote (the monitor's ComputePhysicalPmp rewrites them all).
  uint64_t generation() const {
    if (changed_) {
      Intern();
    }
    return id_;
  }
  static constexpr uint64_t kMaxGeneration = uint64_t{1} << 56;
  static constexpr unsigned kInternSlots = 8;

  // The access check from the privileged spec: returns true if an access of `size`
  // bytes at `addr` by privilege `mode` is permitted. All bytes must lie within the
  // highest-priority (lowest-numbered) matching entry; a partial match denies. In
  // M-mode only locked entries constrain; with no match, M-mode allows and S/U-mode
  // denies (entries are implemented). This mirrors the Sail pmpCheck the paper uses.
  bool Check(uint64_t addr, uint64_t size, AccessType type, PrivMode mode) const;

  // Returns the index of the first entry whose range contains the first byte of the
  // access, or nullopt. Used by the monitor to attribute MMIO traps to devices.
  std::optional<unsigned> FirstMatch(uint64_t addr) const;

  std::string Describe() const;

  // Uniform state API (DESIGN.md §2h). Ids are not state: loading forgets every
  // interned configuration, so the loaded content gets a fresh id, greater than any
  // this bank has returned, even when it equals a configuration the bank saw before.
  void SaveState(StateWriter& writer) const;
  bool LoadState(StateReader& reader);

 private:
  static constexpr uint64_t kAddrMask = (uint64_t{1} << 54) - 1;  // addr[55:2]

  // One entry's decoded range. Decoding once per interned configuration keeps the
  // per-access check a simple array scan (it runs on every simulated memory access).
  struct CachedEntry {
    PmpRange range;
    PmpCfg cfg;
    bool active = false;
  };
  // Finds the current content among the interned configurations or, failing that,
  // overwrites the oldest with it under a fresh id and decodes its ranges.
  void Intern() const;

  unsigned entry_count_;
  uint8_t cfg_[kMaxEntries] = {};
  uint64_t addr_[kMaxEntries] = {};
  // The intern table. Slot s holds a configuration's registers and decoded ranges in
  // elements [s * entry_count_, (s + 1) * entry_count_) of the three vectors, which
  // are allocated by the first Intern(); a slot with id 0 is empty.
  mutable bool changed_ = true;  // registers written since the last Intern()
  mutable uint64_t id_ = 0;      // valid when !changed_
  mutable unsigned slot_ = 0;    // the slot holding the registers, when !changed_
  mutable unsigned next_slot_ = 0;  // the next slot a new configuration overwrites
  mutable uint64_t slot_id_[kInternSlots] = {};
  mutable std::vector<uint8_t> slot_cfg_;
  mutable std::vector<uint64_t> slot_addr_;
  mutable std::vector<CachedEntry> slot_ranges_;
};

}  // namespace vfm

#endif  // SRC_PMP_PMP_H_
