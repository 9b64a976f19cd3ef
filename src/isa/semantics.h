// The ISA table (DESIGN.md §2f): one row per RV64IMA, Zicsr, Zifencei and privileged
// op. Every row holds the op's encoding: its operand format and match word. The RV64IM
// rows also hold its meaning: each ALU/M op's result, each branch's condition and each
// load/store's width and sign. Every site that needs an op's encoding or meaning is
// expanded from these rows:
//
//   - Op, OpName, Decode and Encode (src/isa/instr.*), and Disassemble;
//   - the Assembler's per-op methods (src/asm/assembler.h);
//   - Hart::Execute, the interpreter (one case per RV64IM op);
//   - the block tier's lowered handlers (src/sim/hart_threaded.inc), including the
//     fused compare+branch handlers, and LowerInstr's constant folding;
//   - SuperblockClass, LoweredOpFor and VFM_LOWERED_OPS (src/isa/instr.*);
//   - MemAccessOf, which also serves the monitor's load/store emulation.
//
// Adding an RV64IM op is one row here. Any other op is one VFM_OTHER_OPS row, plus
// what it does in Hart::Execute.

#ifndef SRC_ISA_SEMANTICS_H_
#define SRC_ISA_SEMANTICS_H_

#include <cstdint>

#include "src/common/bits.h"

// Every row starts with the op's encoding: X(name, format, match, ...). `format` is
// the operand format (Format in src/isa/instr.h), which fixes the operand fields and so
// the decode mask; `match` is the word with every operand field zero (the riscv-opcodes
// MATCH_* value). A word decodes to the row when (word & FormatMask(format)) == match.

// ALU and M ops: X(name, format, match, form, cost, result), one row per op. `form`
// says where the second operand comes from: Reg (rs2, format R) or Imm (the
// sign-extended immediate, or the shift amount). `cost` is the op's cycle class: Base,
// or MulDiv (instr_base plus instr_muldiv). `result` is an expression over uint64_t a
// (rs1) and b. A register op and its immediate twin share one row and so one
// expression.
#define VFM_ALU_OPS(X)                                                                    \
  VFM_ALU_RI(X, Add, 0x00000033, Addi, I, 0x00000013, Base, a + b)                        \
  VFM_ALU_R(X, Sub, 0x40000033, Base, a - b)                                              \
  VFM_ALU_RI(X, Sll, 0x00001033, Slli, Shift, 0x00001013, Base, a << (b & 63))            \
  VFM_ALU_RI(X, Slt, 0x00002033, Slti, I, 0x00002013, Base, S64(a) < S64(b))              \
  VFM_ALU_RI(X, Sltu, 0x00003033, Sltiu, I, 0x00003013, Base, a < b)                      \
  VFM_ALU_RI(X, Xor, 0x00004033, Xori, I, 0x00004013, Base, a ^ b)                        \
  VFM_ALU_RI(X, Srl, 0x00005033, Srli, Shift, 0x00005013, Base, a >> (b & 63))            \
  VFM_ALU_RI(X, Sra, 0x40005033, Srai, Shift, 0x40005013, Base, U64(S64(a) >> (b & 63)))  \
  VFM_ALU_RI(X, Or, 0x00006033, Ori, I, 0x00006013, Base, a | b)                          \
  VFM_ALU_RI(X, And, 0x00007033, Andi, I, 0x00007013, Base, a & b)                        \
  VFM_ALU_RI(X, Addw, 0x0000003b, Addiw, I, 0x0000001b, Base, W(a + b))                   \
  VFM_ALU_R(X, Subw, 0x4000003b, Base, W(a - b))                                          \
  VFM_ALU_RI(X, Sllw, 0x0000103b, Slliw, ShiftW, 0x0000101b, Base, W(a << (b & 31)))      \
  VFM_ALU_RI(X, Srlw, 0x0000503b, Srliw, ShiftW, 0x0000501b, Base, W(U32(a) >> (b & 31))) \
  VFM_ALU_RI(X, Sraw, 0x4000503b, Sraiw, ShiftW, 0x4000501b, Base,                        \
             W(U64(S32(a) >> (b & 31))))                                                  \
  VFM_ALU_R(X, Mul, 0x02000033, MulDiv, a * b)                                            \
  VFM_ALU_R(X, Mulh, 0x02001033, MulDiv, High64(S128(S64(a)) * S64(b)))                   \
  VFM_ALU_R(X, Mulhsu, 0x02002033, MulDiv, High64(S128(S64(a)) * b))                      \
  VFM_ALU_R(X, Mulhu, 0x02003033, MulDiv, High64(U128(a) * b))                            \
  VFM_ALU_R(X, Div, 0x02004033, MulDiv,                                                   \
            b == 0 ? ~U64(0) : S64(a) == INT64_MIN && S64(b) == -1 ? a                    \
                                                                   : U64(S64(a) / S64(b))) \
  VFM_ALU_R(X, Divu, 0x02005033, MulDiv, b == 0 ? ~U64(0) : a / b)                        \
  VFM_ALU_R(X, Rem, 0x02006033, MulDiv,                                                   \
            b == 0 ? a : S64(a) == INT64_MIN && S64(b) == -1 ? 0 : U64(S64(a) % S64(b)))  \
  VFM_ALU_R(X, Remu, 0x02007033, MulDiv, b == 0 ? a : a % b)                              \
  VFM_ALU_R(X, Mulw, 0x0200003b, MulDiv, W(a * b))                                        \
  VFM_ALU_R(X, Divw, 0x0200403b, MulDiv,                                                  \
            W(U32(b) == 0 ? ~U64(0)                                                       \
              : S32(a) == INT32_MIN && S32(b) == -1 ? a                                   \
                                                    : U64(S32(a) / S32(b))))              \
  VFM_ALU_R(X, Divuw, 0x0200503b, MulDiv, W(U32(b) == 0 ? ~U64(0) : U32(a) / U32(b)))     \
  VFM_ALU_R(X, Remw, 0x0200603b, MulDiv,                                                  \
            W(U32(b) == 0 ? a : S32(a) == INT32_MIN && S32(b) == -1 ? 0                   \
                                                                    : U64(S32(a) % S32(b)))) \
  VFM_ALU_R(X, Remuw, 0x0200703b, MulDiv, W(U32(b) == 0 ? a : U32(a) % U32(b)))
#define VFM_ALU_RI(X, reg, reg_match, imm, imm_format, imm_match, cost, result) \
  X(reg, R, reg_match, Reg, cost, result) X(imm, imm_format, imm_match, Imm, cost, result)
#define VFM_ALU_R(X, reg, match, cost, result) X(reg, R, match, Reg, cost, result)

// Conditional branches: X(name, format, match, taken), `taken` an expression over a
// (rs1) and b (rs2).
#define VFM_BRANCH_OPS(X)                                                                 \
  X(Beq, B, 0x00000063, a == b) X(Bne, B, 0x00001063, a != b)                             \
  X(Blt, B, 0x00004063, S64(a) < S64(b)) X(Bge, B, 0x00005063, S64(a) >= S64(b))          \
  X(Bltu, B, 0x00006063, a < b) X(Bgeu, B, 0x00007063, a >= b)

// Loads: X(name, format, match, bytes, sign_extend). Stores: X(name, format, match,
// bytes).
#define VFM_LOAD_OPS(X)                                                                   \
  X(Lb, Load, 0x00000003, 1, true) X(Lh, Load, 0x00001003, 2, true)                       \
  X(Lw, Load, 0x00002003, 4, true) X(Ld, Load, 0x00003003, 8, false)                      \
  X(Lbu, Load, 0x00004003, 1, false) X(Lhu, Load, 0x00005003, 2, false)                   \
  X(Lwu, Load, 0x00006003, 4, false)
#define VFM_STORE_OPS(X)                                                                  \
  X(Sb, S, 0x00000023, 1) X(Sh, S, 0x00001023, 2) X(Sw, S, 0x00002023, 4)                 \
  X(Sd, S, 0x00003023, 8)

// Every op above, for sites that only need the names: X(name, ...).
#define VFM_RV64IM_OPS(X) \
  VFM_ALU_OPS(X) VFM_BRANCH_OPS(X) VFM_LOAD_OPS(X) VFM_STORE_OPS(X)

// The ops no semantics row covers, X(name, format, match): lui/auipc and the jumps,
// which the block tier lowers by hand, and the barrier ops (fences, ecall/ebreak,
// Zicsr, RV64A and the privileged instructions), which Hart::Execute and the monitor
// implement. An AMO's aq/rl bits and a fence's fm/pred/succ are outside the mask and
// ignored: the hart is sequentially consistent.
#define VFM_OTHER_OPS(X)                                                                  \
  X(Lui, U, 0x00000037) X(Auipc, U, 0x00000017) X(Jal, J, 0x0000006f)                     \
  X(Jalr, Load, 0x00000067)                                                               \
  X(Fence, Fence, 0x0000000f) X(FenceI, Fence, 0x0000100f)                                \
  X(Ecall, System, 0x00000073) X(Ebreak, System, 0x00100073)                              \
  X(Csrrw, Csr, 0x00001073) X(Csrrs, Csr, 0x00002073) X(Csrrc, Csr, 0x00003073)           \
  X(Csrrwi, CsrI, 0x00005073) X(Csrrsi, CsrI, 0x00006073) X(Csrrci, CsrI, 0x00007073)     \
  X(LrW, Lr, 0x1000202f) X(ScW, Amo, 0x1800202f) X(AmoswapW, Amo, 0x0800202f)             \
  X(AmoaddW, Amo, 0x0000202f) X(AmoxorW, Amo, 0x2000202f) X(AmoandW, Amo, 0x6000202f)     \
  X(AmoorW, Amo, 0x4000202f) X(AmominW, Amo, 0x8000202f) X(AmomaxW, Amo, 0xa000202f)      \
  X(AmominuW, Amo, 0xc000202f) X(AmomaxuW, Amo, 0xe000202f)                               \
  X(LrD, Lr, 0x1000302f) X(ScD, Amo, 0x1800302f) X(AmoswapD, Amo, 0x0800302f)             \
  X(AmoaddD, Amo, 0x0000302f) X(AmoxorD, Amo, 0x2000302f) X(AmoandD, Amo, 0x6000302f)     \
  X(AmoorD, Amo, 0x4000302f) X(AmominD, Amo, 0x8000302f) X(AmomaxD, Amo, 0xa000302f)      \
  X(AmominuD, Amo, 0xc000302f) X(AmomaxuD, Amo, 0xe000302f)                               \
  X(Sret, System, 0x10200073) X(Mret, System, 0x30200073) X(Wfi, System, 0x10500073)      \
  X(SfenceVma, Sfence, 0x12000073) X(HfenceVvma, Sfence, 0x22000073)                      \
  X(HfenceGvma, Sfence, 0x62000073)

// Every op, in Op order: X(name, format, match, ...).
#define VFM_ISA_OPS(X) VFM_RV64IM_OPS(X) VFM_OTHER_OPS(X)

// The block tier's fused compare+branch-on-zero ops: X(name, compare, form, branch).
// `compare` (an ALU op of the given form) writes its result register, then `branch`
// tests it against x0 — every slt/sltu/slti/sltiu crossed with beqz and bnez.
#define VFM_FUSED_OPS(X)                                                                  \
  VFM_FUSED_PAIR(X, Slt, Reg) VFM_FUSED_PAIR(X, Sltu, Reg)                                \
  VFM_FUSED_PAIR(X, Slti, Imm) VFM_FUSED_PAIR(X, Sltiu, Imm)
#define VFM_FUSED_PAIR(X, cmp, form) X(cmp##Beqz, cmp, form, Beq) X(cmp##Bnez, cmp, form, Bne)

namespace vfm {

enum class CostClass : uint8_t { kBase, kMulDiv };

// What a plain load or store accesses; size 0 for every other op.
struct MemAccess {
  uint8_t size = 0;   // bytes
  bool store = false;
  bool sign = false;  // loads: sign-extend the loaded value

  constexpr bool load() const { return size != 0 && !store; }
  // The register value a load produces from the zero-extended bytes it read.
  constexpr uint64_t Extend(uint64_t raw) const { return sign ? SignExtend(raw, 8 * size) : raw; }
};

// One function per table row: sem::Add(a, b), sem::Beq(a, b), ...
namespace sem {

constexpr int64_t S64(uint64_t v) { return static_cast<int64_t>(v); }
constexpr int32_t S32(uint64_t v) { return static_cast<int32_t>(v); }
constexpr uint64_t U64(int64_t v) { return static_cast<uint64_t>(v); }
constexpr uint32_t U32(uint64_t v) { return static_cast<uint32_t>(v); }
constexpr __int128 S128(int64_t v) { return v; }
constexpr unsigned __int128 U128(uint64_t v) { return v; }
// The high half of a 128-bit product.
constexpr uint64_t High64(unsigned __int128 product) {
  return static_cast<uint64_t>(product >> 64);
}
// A W-form result: the low 32 bits, sign-extended.
constexpr uint64_t W(uint64_t v) { return SignExtend(v & 0xFFFFFFFF, 32); }

#define VFM_X(name, format, match, form, cost, result) \
  constexpr uint64_t name(uint64_t a, uint64_t b) { return result; }
VFM_ALU_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name, format, match, taken) \
  constexpr bool name(uint64_t a, uint64_t b) { return taken; }
VFM_BRANCH_OPS(VFM_X)
#undef VFM_X

}  // namespace sem
}  // namespace vfm

#endif  // SRC_ISA_SEMANTICS_H_
