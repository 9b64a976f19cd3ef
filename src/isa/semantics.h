// The RV64IM operation table (DESIGN.md §2f): each ALU/M op's result, each branch's
// condition and each load/store's width and sign is written once, here. Every site
// that needs an op's meaning is expanded from these rows:
//
//   - Hart::Execute, the interpreter (one case per op);
//   - the block tier's lowered handlers (src/sim/hart_threaded.inc), including the
//     fused compare+branch handlers, and LowerInstr's constant folding;
//   - SuperblockClass, LoweredOpFor, OpName and VFM_LOWERED_OPS (src/isa/instr.*);
//   - MemAccessOf, which also serves the monitor's load/store emulation.
//
// Adding an RV64IM op is one row here, plus its decode and its assembler encoder.

#ifndef SRC_ISA_SEMANTICS_H_
#define SRC_ISA_SEMANTICS_H_

#include <cstdint>

#include "src/common/bits.h"

// ALU and M ops: X(name, form, cost, result), one row per op. `form` says where the
// second operand comes from: Reg (rs2) or Imm (the sign-extended immediate, or the
// shift amount). `cost` is the op's cycle class: Base, or MulDiv (instr_base plus
// instr_muldiv). `result` is an expression over uint64_t a (rs1) and b. A register
// op and its immediate twin share one row and so one expression.
#define VFM_ALU_OPS(X)                                                                    \
  VFM_ALU_RI(X, Add, Addi, Base, a + b)                                                   \
  VFM_ALU_R(X, Sub, Base, a - b)                                                          \
  VFM_ALU_RI(X, Sll, Slli, Base, a << (b & 63))                                           \
  VFM_ALU_RI(X, Slt, Slti, Base, S64(a) < S64(b))                                         \
  VFM_ALU_RI(X, Sltu, Sltiu, Base, a < b)                                                 \
  VFM_ALU_RI(X, Xor, Xori, Base, a ^ b)                                                   \
  VFM_ALU_RI(X, Srl, Srli, Base, a >> (b & 63))                                           \
  VFM_ALU_RI(X, Sra, Srai, Base, U64(S64(a) >> (b & 63)))                                 \
  VFM_ALU_RI(X, Or, Ori, Base, a | b)                                                     \
  VFM_ALU_RI(X, And, Andi, Base, a & b)                                                   \
  VFM_ALU_RI(X, Addw, Addiw, Base, W(a + b))                                              \
  VFM_ALU_R(X, Subw, Base, W(a - b))                                                      \
  VFM_ALU_RI(X, Sllw, Slliw, Base, W(a << (b & 31)))                                      \
  VFM_ALU_RI(X, Srlw, Srliw, Base, W(U32(a) >> (b & 31)))                                 \
  VFM_ALU_RI(X, Sraw, Sraiw, Base, W(U64(S32(a) >> (b & 31))))                            \
  VFM_ALU_R(X, Mul, MulDiv, a * b)                                                        \
  VFM_ALU_R(X, Mulh, MulDiv, High64(S128(S64(a)) * S64(b)))                               \
  VFM_ALU_R(X, Mulhsu, MulDiv, High64(S128(S64(a)) * b))                                  \
  VFM_ALU_R(X, Mulhu, MulDiv, High64(U128(a) * b))                                        \
  VFM_ALU_R(X, Div, MulDiv,                                                               \
            b == 0 ? ~U64(0) : S64(a) == INT64_MIN && S64(b) == -1 ? a                    \
                                                                   : U64(S64(a) / S64(b))) \
  VFM_ALU_R(X, Divu, MulDiv, b == 0 ? ~U64(0) : a / b)                                    \
  VFM_ALU_R(X, Rem, MulDiv,                                                               \
            b == 0 ? a : S64(a) == INT64_MIN && S64(b) == -1 ? 0 : U64(S64(a) % S64(b)))  \
  VFM_ALU_R(X, Remu, MulDiv, b == 0 ? a : a % b)                                          \
  VFM_ALU_R(X, Mulw, MulDiv, W(a * b))                                                    \
  VFM_ALU_R(X, Divw, MulDiv,                                                              \
            W(U32(b) == 0 ? ~U64(0)                                                       \
              : S32(a) == INT32_MIN && S32(b) == -1 ? a                                   \
                                                    : U64(S32(a) / S32(b))))              \
  VFM_ALU_R(X, Divuw, MulDiv, W(U32(b) == 0 ? ~U64(0) : U32(a) / U32(b)))                 \
  VFM_ALU_R(X, Remw, MulDiv,                                                              \
            W(U32(b) == 0 ? a : S32(a) == INT32_MIN && S32(b) == -1 ? 0                   \
                                                                    : U64(S32(a) % S32(b)))) \
  VFM_ALU_R(X, Remuw, MulDiv, W(U32(b) == 0 ? a : U32(a) % U32(b)))
#define VFM_ALU_RI(X, reg, imm, cost, result) X(reg, Reg, cost, result) X(imm, Imm, cost, result)
#define VFM_ALU_R(X, reg, cost, result) X(reg, Reg, cost, result)

// Conditional branches: X(name, taken), `taken` an expression over a (rs1), b (rs2).
#define VFM_BRANCH_OPS(X)                                                                 \
  X(Beq, a == b) X(Bne, a != b) X(Blt, S64(a) < S64(b)) X(Bge, S64(a) >= S64(b))          \
  X(Bltu, a < b) X(Bgeu, a >= b)

// Loads: X(name, bytes, sign_extend). Stores: X(name, bytes).
#define VFM_LOAD_OPS(X)                                                                   \
  X(Lb, 1, true) X(Lh, 2, true) X(Lw, 4, true) X(Ld, 8, false)                            \
  X(Lbu, 1, false) X(Lhu, 2, false) X(Lwu, 4, false)
#define VFM_STORE_OPS(X) X(Sb, 1) X(Sh, 2) X(Sw, 4) X(Sd, 8)

// Every op above, for sites that only need the names: X(name, ...).
#define VFM_RV64IM_OPS(X) \
  VFM_ALU_OPS(X) VFM_BRANCH_OPS(X) VFM_LOAD_OPS(X) VFM_STORE_OPS(X)

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

#define VFM_X(name, form, cost, result) \
  constexpr uint64_t name(uint64_t a, uint64_t b) { return result; }
VFM_ALU_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name, taken) \
  constexpr bool name(uint64_t a, uint64_t b) { return taken; }
VFM_BRANCH_OPS(VFM_X)
#undef VFM_X

}  // namespace sem
}  // namespace vfm

#endif  // SRC_ISA_SEMANTICS_H_
