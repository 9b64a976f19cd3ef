// Instruction decoding for RV64IMA + Zicsr + Zifencei + the privileged instructions.
// The decoder is shared by the hart simulator, the monitor's privileged-instruction
// emulator, and the reference model; the encoder half lives in src/asm.

#ifndef SRC_ISA_INSTR_H_
#define SRC_ISA_INSTR_H_

#include <cstdint>

#include "src/isa/semantics.h"

namespace vfm {

enum class Op : uint16_t {
  kInvalid = 0,
  // RV64I.
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLd, kLbu, kLhu, kLwu,
  kSb, kSh, kSw, kSd,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kAddiw, kSlliw, kSrliw, kSraiw,
  kAddw, kSubw, kSllw, kSrlw, kSraw,
  kFence, kFenceI,
  kEcall, kEbreak,
  // Zicsr.
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // RV64M.
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kMulw, kDivw, kDivuw, kRemw, kRemuw,
  // RV64A.
  kLrW, kScW, kAmoswapW, kAmoaddW, kAmoxorW, kAmoandW, kAmoorW,
  kAmominW, kAmomaxW, kAmominuW, kAmomaxuW,
  kLrD, kScD, kAmoswapD, kAmoaddD, kAmoxorD, kAmoandD, kAmoorD,
  kAmominD, kAmomaxD, kAmominuD, kAmomaxuD,
  // Privileged.
  kSret, kMret, kWfi, kSfenceVma,
  kHfenceVvma, kHfenceGvma,
};

const char* OpName(Op op);

// True for instructions whose execution depends on or modifies privileged state: the
// trap-and-emulate surface of the monitor (paper §4.1 — "MIRALIS has support for 12").
bool OpIsPrivileged(Op op);

// A decoded instruction. Fields not applicable to a given Op are zero.
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
#define VFM_X(name, bytes, sign) \
  case Op::k##name:              \
    return {bytes, false, sign};
    VFM_LOAD_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name, bytes) \
  case Op::k##name:        \
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
