// Instruction decoding and encoding for RV64IMA + Zicsr + Zifencei + the privileged
// instructions, both generated from the ISA table (src/isa/semantics.h). The decoder is
// shared by the hart simulator, the monitor's privileged-instruction emulator, and the
// reference model; the encoder by the assembler (src/asm) and the cosim generator.

#ifndef SRC_ISA_INSTR_H_
#define SRC_ISA_INSTR_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "src/common/bits.h"
#include "src/common/check.h"
#include "src/isa/semantics.h"

namespace vfm {

// One value per table row, in table order, after kInvalid.
enum class Op : uint16_t {
  kInvalid = 0,
#define VFM_X(name, ...) k##name,
  VFM_ISA_OPS(VFM_X)
#undef VFM_X
};

// An op's operand format: which bits of the word are operands. Every other bit is
// fixed by the op, so the format also fixes the decode mask (FormatMask).
enum class Format : uint8_t {
  kNone,    // kInvalid: matches no word
  kR,       // rd, rs1, rs2
  kI,       // rd, rs1, imm[11:0]
  kShift,   // rd, rs1, shamt[5:0] (RV64 shifts: funct6 is fixed)
  kShiftW,  // rd, rs1, shamt[4:0] (word shifts: funct7 is fixed)
  kLoad,    // rd, imm[11:0](rs1): loads and jalr
  kS,       // rs2, imm[11:0](rs1)
  kB,       // rs1, rs2, pc-relative imm[12:1]
  kU,       // rd, imm[31:12]
  kJ,       // rd, pc-relative imm[20:1]
  kCsr,     // rd, csr, rs1
  kCsrI,    // rd, csr, zimm[4:0]
  kAmo,     // rd, rs2, (rs1); aq/rl ignored
  kLr,      // rd, (rs1); rs2 fixed to 0
  kFence,   // I layout; Decode leaves fm/pred/succ out of imm
  kSystem,  // no operands: every bit fixed
  kSfence,  // rs1, rs2; rd fixed to 0
};

constexpr uint32_t FormatMask(Format format) {
  switch (format) {
    case Format::kNone:
      return 0;
    case Format::kR:
    case Format::kShiftW:
      return 0xFE00707F;
    case Format::kShift:
      return 0xFC00707F;
    case Format::kU:
    case Format::kJ:
      return 0x0000007F;
    case Format::kAmo:
      return 0xF800707F;
    case Format::kLr:
      return 0xF9F0707F;
    case Format::kSystem:
      return 0xFFFFFFFF;
    case Format::kSfence:
      return 0xFE007FFF;
    default:
      return 0x0000707F;  // opcode and funct3: I, Load, S, B, Csr, CsrI, Fence
  }
}

// One row of the ISA table, as Decode, Encode and Disassemble see it.
struct IsaRow {
  char mnemonic[12];
  Format format;
  uint32_t match;
  uint32_t mask;
};

namespace isa_detail {

// A row's mnemonic is its name in lower case, with a '.' before each inner capital:
// "Sraiw" -> "sraiw", "FenceI" -> "fence.i", "AmoaddW" -> "amoadd.w".
template <size_t N>
constexpr IsaRow Row(const char (&name)[N], Format format, uint32_t match) {
  IsaRow row{{}, format, match, FormatMask(format)};
  size_t out = 0;
  for (size_t i = 0; i + 1 < N; ++i) {
    const bool upper = name[i] >= 'A' && name[i] <= 'Z';
    if (upper && i != 0) {
      row.mnemonic[out++] = '.';
    }
    row.mnemonic[out++] = upper ? static_cast<char>(name[i] - 'A' + 'a') : name[i];
  }
  return row;
}

}  // namespace isa_detail

// The table, indexed by Op.
inline constexpr IsaRow kIsa[] = {
    {"invalid", Format::kNone, 0, 0},
#define VFM_X(name, format, match, ...) isa_detail::Row(#name, Format::k##format, match),
    VFM_ISA_OPS(VFM_X)
#undef VFM_X
};

// The number of Op values, kInvalid included.
constexpr unsigned kOpCount = std::size(kIsa);

constexpr const IsaRow& RowOf(Op op) { return kIsa[static_cast<unsigned>(op)]; }

inline const char* OpName(Op op) { return RowOf(op).mnemonic; }

// True for instructions whose execution depends on or modifies privileged state: the
// trap-and-emulate surface of the monitor (paper §4.1 — "MIRALIS has support for 12"):
// the Zicsr ops, ecall/ebreak, xRET, wfi and the address-translation fences.
constexpr bool OpIsPrivileged(Op op) {
  const Format format = RowOf(op).format;
  return format == Format::kCsr || format == Format::kCsrI || format == Format::kSystem ||
         format == Format::kSfence;
}

// A decoded instruction. Fields not applicable to a given Op are zero, except rd, rs1
// and rs2, which always hold bits [11:7], [19:15] and [24:20] of the word.
struct DecodedInstr {
  Op op = Op::kInvalid;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int64_t imm = 0;    // sign-extended immediate (I/S/B/U/J as appropriate)
  uint16_t csr = 0;   // CSR address for Zicsr ops
  uint8_t zimm = 0;   // 5-bit immediate for CSR immediate forms
  uint32_t raw = 0;   // original encoding, for mtval and diagnostics

  bool valid() const { return op != Op::kInvalid; }
};

// Decodes a 32-bit instruction word. Returns op == kInvalid for undecodable words.
DecodedInstr Decode(uint32_t word);

// Encodes `d.op` with the operand fields its format takes (raw is ignored): the
// inverse of Decode. Aborts on an immediate the format cannot hold. Always inlined,
// so that an assembler method, whose op is a constant, compiles to its format's case
// alone: the assembler emits as fast as with hand-written per-op encoders.
[[gnu::always_inline]] inline uint32_t Encode(const DecodedInstr& d) {
  const IsaRow& row = RowOf(d.op);
  const uint32_t rd = static_cast<uint32_t>(d.rd & 0x1F) << 7;
  const uint32_t rs1 = static_cast<uint32_t>(d.rs1 & 0x1F) << 15;
  const uint32_t rs2 = static_cast<uint32_t>(d.rs2 & 0x1F) << 20;
  const uint64_t imm = static_cast<uint64_t>(d.imm);
  const auto imm12 = [&](const char* what) {
    VFM_CHECK_MSG(d.imm >= -2048 && d.imm <= 2047, "%s-immediate out of range: %lld", what,
                  static_cast<long long>(d.imm));
    return static_cast<uint32_t>(imm & 0xFFF);
  };
  switch (row.format) {
    case Format::kR:
    case Format::kAmo:
      return row.match | rs2 | rs1 | rd;
    case Format::kLr:
      return row.match | rs1 | rd;
    case Format::kI:
    case Format::kLoad:
    case Format::kFence:
      return row.match | imm12("I") << 20 | rs1 | rd;
    case Format::kShift:
    case Format::kShiftW:
      VFM_CHECK_MSG(imm < 64 && ((imm << 20) & row.mask) == 0, "%s shift amount out of range: %lld",
                    row.mnemonic, static_cast<long long>(d.imm));
      return row.match | static_cast<uint32_t>(imm) << 20 | rs1 | rd;
    case Format::kS: {
      const uint32_t u = imm12("S");
      return row.match | (u >> 5) << 25 | rs2 | rs1 | (u & 0x1F) << 7;
    }
    case Format::kB:
      VFM_CHECK_MSG(d.imm >= -(1 << 12) && d.imm < (1 << 12) && (d.imm & 1) == 0,
                    "branch offset out of range: %lld", static_cast<long long>(d.imm));
      return row.match |
             static_cast<uint32_t>((Bit(imm, 12) << 31) | (ExtractBits(imm, 10, 5) << 25) |
                                   (ExtractBits(imm, 4, 1) << 8) | (Bit(imm, 11) << 7)) |
             rs2 | rs1;
    case Format::kU:
      return row.match | (static_cast<uint32_t>(imm) & 0xFFFFF000u) | rd;
    case Format::kJ:
      VFM_CHECK_MSG(d.imm >= -(1 << 20) && d.imm < (1 << 20) && (d.imm & 1) == 0,
                    "jal offset out of range: %lld", static_cast<long long>(d.imm));
      return row.match |
             static_cast<uint32_t>((Bit(imm, 20) << 31) | (ExtractBits(imm, 10, 1) << 21) |
                                   (Bit(imm, 11) << 20) | (ExtractBits(imm, 19, 12) << 12)) |
             rd;
    case Format::kCsr:
      return row.match | static_cast<uint32_t>(d.csr & 0xFFF) << 20 | rs1 | rd;
    case Format::kCsrI:
      return row.match | static_cast<uint32_t>(d.csr & 0xFFF) << 20 |
             static_cast<uint32_t>(d.zimm & 0x1F) << 15 | rd;
    case Format::kSystem:
      return row.match;
    case Format::kSfence:
      return row.match | rs2 | rs1;
    case Format::kNone:
      break;
  }
  VFM_CHECK_MSG(false, "cannot encode %s", row.mnemonic);
  return 0;
}

// How the hart's block tier (DESIGN.md §2f) may handle an op inside a straight-line
// block. The split is driven by what can invalidate in-flight block state: kSimple
// ops only touch GPRs, kMem ops touch memory (fast-pathed, with fallback), kBranch
// ops redirect control (executed in-block as the block's final instruction), and
// kBarrier ops can change privilege/CSR/translation/interrupt state, so a block
// always ends before one.
enum class SbClass : uint8_t {
  kSimple = 0,
  kMem = 1,
  kBranch = 2,
  kBarrier = 3,
};
SbClass SuperblockClass(Op op);

// Lowered-op vocabulary of the hart's block tier (DESIGN.md §2f). Every superblock is
// translated into a run of these as it is built: operands and sign-extended
// immediates are baked in, `li`/`auipc`+ALU-immediate chains fold into a single
// kConstChain, compare+branch-on-zero pairs fuse (VFM_FUSED_OPS), link-less jumps get
// dedicated forms (kJ/kJr), and loads/stores carry the host-pointer fast path inline.
// kEnd terminates blocks that do not end in a branch (and doubles as "not lowerable"
// from LoweredOpFor — barriers never appear inside a block). Each RV64IM table op
// (src/isa/semantics.h) lowers 1:1 to the op of the same name. The X-macro keeps the
// enum, the computed-goto label table, and the switch fallback in lockstep; its
// consumers take X(name, ...).
#define VFM_LOWERED_OPS(X)                                                       \
  X(End) X(Nop) X(Const) X(ConstChain)                                           \
  VFM_ALU_OPS(X) VFM_BRANCH_OPS(X) X(J) X(Jal) X(Jr) X(Jalr) VFM_FUSED_OPS(X)    \
  VFM_LOAD_OPS(X) VFM_STORE_OPS(X)

enum class LoweredOp : uint8_t {
#define VFM_X(name, ...) k##name,
  VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
};

constexpr unsigned kLoweredOpCount = 0
#define VFM_X(name, ...) +1
    VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
    ;

// The cycle class of an ALU/M op; kBase for every other op.
CostClass OpCostClass(Op op);

// The access a plain load or store makes (MemAccess::size == 0 for other ops).
constexpr MemAccess MemAccessOf(Op op) {
  switch (op) {
#define VFM_X(name, format, match, bytes, sign) \
  case Op::k##name:                             \
    return {bytes, false, sign};
    VFM_LOAD_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name, format, match, bytes) \
  case Op::k##name:                       \
    return {bytes, true, false};
    VFM_STORE_OPS(VFM_X)
#undef VFM_X
    default:
      return {};
  }
}

// The 1:1 part of the lowering table: the LoweredOp an Op maps to before fusion and
// folding refine it (lui/auipc become kConst, kJal/kJalr degrade to kJ/kJr when
// rd == x0, compare+branch pairs fuse). Returns kEnd for ops that cannot appear
// inside a superblock (SbClass::kBarrier and kInvalid).
LoweredOp LoweredOpFor(Op op);

}  // namespace vfm

#endif  // SRC_ISA_INSTR_H_
