#include "src/isa/instr.h"

#include "src/common/bits.h"

namespace vfm {

namespace {

int64_t ImmI(uint32_t w) { return static_cast<int64_t>(SignExtend(ExtractBits(w, 31, 20), 12)); }
int64_t ImmS(uint32_t w) {
  const uint64_t imm = (ExtractBits(w, 31, 25) << 5) | ExtractBits(w, 11, 7);
  return static_cast<int64_t>(SignExtend(imm, 12));
}
int64_t ImmB(uint32_t w) {
  const uint64_t imm = (Bit(w, 31) << 12) | (Bit(w, 7) << 11) | (ExtractBits(w, 30, 25) << 5) |
                       (ExtractBits(w, 11, 8) << 1);
  return static_cast<int64_t>(SignExtend(imm, 13));
}
int64_t ImmU(uint32_t w) { return static_cast<int64_t>(SignExtend(w & 0xFFFFF000u, 32)); }
int64_t ImmJ(uint32_t w) {
  const uint64_t imm = (Bit(w, 31) << 20) | (ExtractBits(w, 19, 12) << 12) | (Bit(w, 20) << 11) |
                       (ExtractBits(w, 30, 21) << 1);
  return static_cast<int64_t>(SignExtend(imm, 21));
}

// Which rows a word can decode to, by its (opcode[6:2], funct3) slot: the rows whose
// mask fixes that funct3, plus the U/J rows of that opcode in every slot. A slot holds
// at most 11 rows (the AMOs of one width) and most hold one.
constexpr unsigned kSlots = 32 * 8;
constexpr unsigned SlotOf(uint32_t w) { return ((w >> 2) & 0x1F) << 3 | ((w >> 12) & 7); }

struct DecodeIndex {
  uint16_t begin[kSlots + 1] = {};  // slot s holds rows[begin[s]] .. rows[begin[s + 1] - 1]
  uint8_t rows[kOpCount * 8] = {};
};

constexpr DecodeIndex BuildIndex() {
  DecodeIndex index;
  unsigned next = 0;
  for (unsigned slot = 0; slot < kSlots; ++slot) {
    index.begin[slot] = static_cast<uint16_t>(next);
    for (unsigned op = 1; op < kOpCount; ++op) {
      const IsaRow& row = kIsa[op];
      const bool funct3_free = (row.mask & 0x7000) == 0;
      if (SlotOf(row.match) >> 3 == slot >> 3 && (funct3_free || SlotOf(row.match) == slot)) {
        index.rows[next++] = static_cast<uint8_t>(op);
      }
    }
  }
  index.begin[kSlots] = static_cast<uint16_t>(next);
  return index;
}

constexpr DecodeIndex kIndex = BuildIndex();

// The table is well formed: every row fixes a 32-bit opcode (bits [1:0] == 3), has no
// match bit outside its mask, and no word matches two rows.
constexpr bool TableIsWellFormed() {
  for (unsigned i = 1; i < kOpCount; ++i) {
    const IsaRow& a = kIsa[i];
    if ((a.mask & 0x7F) != 0x7F || (a.match & 3) != 3 || (a.match & ~a.mask) != 0) {
      return false;
    }
    for (unsigned j = i + 1; j < kOpCount; ++j) {
      const IsaRow& b = kIsa[j];
      if (((a.match ^ b.match) & a.mask & b.mask) == 0) {
        return false;
      }
    }
  }
  return true;
}
static_assert(TableIsWellFormed(), "ISA table rows overlap or are malformed");

}  // namespace

DecodedInstr Decode(uint32_t w) {
  DecodedInstr d;
  d.raw = w;
  d.rd = static_cast<uint8_t>(ExtractBits(w, 11, 7));
  d.rs1 = static_cast<uint8_t>(ExtractBits(w, 19, 15));
  d.rs2 = static_cast<uint8_t>(ExtractBits(w, 24, 20));
  if ((w & 3) != 3) {
    return d;  // compressed instructions are not modeled
  }
  const unsigned slot = SlotOf(w);
  for (unsigned i = kIndex.begin[slot]; i < kIndex.begin[slot + 1]; ++i) {
    const IsaRow& row = kIsa[kIndex.rows[i]];
    if ((w & row.mask) != row.match) {
      continue;
    }
    d.op = static_cast<Op>(kIndex.rows[i]);
    switch (row.format) {
      case Format::kI:
      case Format::kLoad:
        d.imm = ImmI(w);
        break;
      case Format::kShift:
      case Format::kShiftW:  // bit 25 is fixed to 0
        d.imm = static_cast<int64_t>(ExtractBits(w, 25, 20));
        break;
      case Format::kS:
        d.imm = ImmS(w);
        break;
      case Format::kB:
        d.imm = ImmB(w);
        break;
      case Format::kU:
        d.imm = ImmU(w);
        break;
      case Format::kJ:
        d.imm = ImmJ(w);
        break;
      case Format::kCsr:
      case Format::kCsrI:
        d.csr = static_cast<uint16_t>(ExtractBits(w, 31, 20));
        d.zimm = d.rs1;
        break;
      default:
        break;
    }
    return d;
  }
  return d;
}

SbClass SuperblockClass(Op op) {
  switch (op) {
#define VFM_X(name, ...) case Op::k##name:
    VFM_ALU_OPS(VFM_X)
    case Op::kLui:
    case Op::kAuipc:
      return SbClass::kSimple;
    VFM_LOAD_OPS(VFM_X)
    VFM_STORE_OPS(VFM_X)
      return SbClass::kMem;
    VFM_BRANCH_OPS(VFM_X)
    case Op::kJal:
    case Op::kJalr:
      return SbClass::kBranch;
#undef VFM_X
    default:
      // CSR ops, ecall/ebreak, xRET, WFI, fences, AMOs, and undecodable words: all can
      // trap, change translation/interrupt state, or need per-instruction ordering.
      return SbClass::kBarrier;
  }
}

CostClass OpCostClass(Op op) {
  switch (op) {
#define VFM_X(name, format, match, form, cost, result) \
  case Op::k##name:                                   \
    return CostClass::k##cost;
    VFM_ALU_OPS(VFM_X)
#undef VFM_X
    default:
      return CostClass::kBase;
  }
}

LoweredOp LoweredOpFor(Op op) {
  switch (op) {
#define VFM_X(name, ...) \
  case Op::k##name:      \
    return LoweredOp::k##name;
    VFM_RV64IM_OPS(VFM_X)
#undef VFM_X
    case Op::kLui:
    case Op::kAuipc:
      return LoweredOp::kConst;
    case Op::kJal: return LoweredOp::kJal;
    case Op::kJalr: return LoweredOp::kJalr;
    default:
      return LoweredOp::kEnd;  // barriers/invalid: never lowerable inside a block
  }
}

}  // namespace vfm
