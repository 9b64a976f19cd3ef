// A small RV64 assembler used to construct guest images (firmware, kernels, enclave
// payloads) programmatically. Supports forward label references, pseudo-instructions
// (li/la/j/call/csrr/csrw/...), and raw data emission. The output is a flat binary
// image plus a symbol table.
//
// The instructions emitted here are decoded by src/isa and executed by src/sim — and,
// when privileged, trapped and emulated by the monitor. This is how the repository
// reproduces "unmodified vendor firmware as an opaque binary" (paper §2.1, §8.2): the
// monitor only ever sees the bytes this assembler produces.

#ifndef SRC_ASM_ASSEMBLER_H_
#define SRC_ASM_ASSEMBLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/isa/instr.h"

namespace vfm {

// Integer register names (ABI).
enum Reg : uint8_t {
  zero = 0, ra = 1, sp = 2, gp = 3, tp = 4, t0 = 5, t1 = 6, t2 = 7,
  s0 = 8, s1 = 9, a0 = 10, a1 = 11, a2 = 12, a3 = 13, a4 = 14, a5 = 15,
  a6 = 16, a7 = 17, s2 = 18, s3 = 19, s4 = 20, s5 = 21, s6 = 22, s7 = 23,
  s8 = 24, s9 = 25, s10 = 26, s11 = 27, t3 = 28, t4 = 29, t5 = 30, t6 = 31,
};

// An assembled image: bytes to load at `base`, plus symbols.
struct Image {
  uint64_t base = 0;
  uint64_t entry = 0;
  std::vector<uint8_t> bytes;
  std::map<std::string, uint64_t> symbols;

  uint64_t SymbolOr(const std::string& name, uint64_t fallback) const {
    auto it = symbols.find(name);
    return it == symbols.end() ? fallback : it->second;
  }
  uint64_t Symbol(const std::string& name) const;
  uint64_t end() const { return base + bytes.size(); }
};

class Assembler {
 public:
  explicit Assembler(uint64_t base) : base_(base) {}

  uint64_t base() const { return base_; }
  uint64_t pc() const { return base_ + buffer_.size(); }

  // -- Labels. -----------------------------------------------------------------------
  void Bind(const std::string& label);
  bool IsBound(const std::string& label) const { return labels_.count(label) != 0; }

  // -- Data. -------------------------------------------------------------------------
  void Align(unsigned alignment);
  void Word32(uint32_t value);
  void Word64(uint64_t value);
  void Zero(uint64_t count);
  void Ascii(const std::string& text);   // no terminator
  void Asciz(const std::string& text);   // NUL-terminated
  // Emits an 8-byte slot holding the final address of `label` (resolved at Finish).
  void AddrWord(const std::string& label);

  // -- Instructions: one method per ISA table row (src/isa/semantics.h), named after
  //    the row and taking the operands of its format (src/isa/instr.h):
  //
  //      R         Add(rd, rs1, rs2)           Csr     Csrrw(rd, csr, rs1)
  //      I, Load   Addi(rd, rs1, imm)          CsrI    Csrrwi(rd, csr, zimm)
  //      Shift(W)  Slli(rd, rs1, shamt)        Amo     AmoaddW(rd, rs2, rs1)
  //      S         Sd(rs2, rs1, imm)           Lr      LrW(rd, rs1)
  //      B         Beq(rs1, rs2, label)        Sfence  SfenceVma(rs1 = zero, rs2 = zero)
  //      U         Lui(rd, imm20)              System  Ecall()
  //      J         Jal(rd, label)              Fence   Fence(), FenceI()
  //
  //    Encode (src/isa) checks that each immediate fits its field.
#define VFM_ASM_R(name)                                            \
  void name(Reg rd, Reg rs1, Reg rs2) {                            \
    EmitOp({.op = Op::k##name, .rd = rd, .rs1 = rs1, .rs2 = rs2}); \
  }
#define VFM_ASM_I(name)                                            \
  void name(Reg rd, Reg rs1, int32_t imm) {                        \
    EmitOp({.op = Op::k##name, .rd = rd, .rs1 = rs1, .imm = imm}); \
  }
#define VFM_ASM_Load(name) VFM_ASM_I(name)
#define VFM_ASM_Shift(name)                                          \
  void name(Reg rd, Reg rs1, unsigned shamt) {                       \
    EmitOp({.op = Op::k##name, .rd = rd, .rs1 = rs1, .imm = shamt}); \
  }
#define VFM_ASM_ShiftW(name) VFM_ASM_Shift(name)
#define VFM_ASM_S(name)                                              \
  void name(Reg rs2, Reg rs1, int32_t imm) {                         \
    EmitOp({.op = Op::k##name, .rs1 = rs1, .rs2 = rs2, .imm = imm}); \
  }
#define VFM_ASM_B(name)                                              \
  void name(Reg rs1, Reg rs2, const std::string& label) {            \
    EmitToLabel({.op = Op::k##name, .rs1 = rs1, .rs2 = rs2}, label); \
  }
#define VFM_ASM_U(name)                                                  \
  void name(Reg rd, int32_t imm20) {                                     \
    EmitOp({.op = Op::k##name, .rd = rd, .imm = int64_t{imm20} * 4096}); \
  }
#define VFM_ASM_J(name)                                \
  void name(Reg rd, const std::string& label) {        \
    EmitToLabel({.op = Op::k##name, .rd = rd}, label); \
  }
#define VFM_ASM_Csr(name)                                          \
  void name(Reg rd, uint16_t csr, Reg rs1) {                       \
    EmitOp({.op = Op::k##name, .rd = rd, .rs1 = rs1, .csr = csr}); \
  }
#define VFM_ASM_CsrI(name)                                           \
  void name(Reg rd, uint16_t csr, uint8_t zimm) {                    \
    EmitOp({.op = Op::k##name, .rd = rd, .csr = csr, .zimm = zimm}); \
  }
#define VFM_ASM_Amo(name)                                          \
  void name(Reg rd, Reg rs2, Reg rs1) {                            \
    EmitOp({.op = Op::k##name, .rd = rd, .rs1 = rs1, .rs2 = rs2}); \
  }
#define VFM_ASM_Lr(name) \
  void name(Reg rd, Reg rs1) { EmitOp({.op = Op::k##name, .rd = rd, .rs1 = rs1}); }
#define VFM_ASM_Sfence(name)                             \
  void name(Reg rs1 = zero, Reg rs2 = zero) {            \
    EmitOp({.op = Op::k##name, .rs1 = rs1, .rs2 = rs2}); \
  }
#define VFM_ASM_System(name) \
  void name() { EmitOp({.op = Op::k##name}); }
#define VFM_ASM_Fence(name)  // Fence() and FenceI() below
#define VFM_X(name, format, ...) VFM_ASM_##format(name)
  VFM_ISA_OPS(VFM_X)
#undef VFM_X
  // The fence rows' fm/pred/succ field is an I-immediate; fence orders everything.
  void Fence() { EmitOp({.op = Op::kFence, .imm = 0x0FF}); }  // fence iorw, iorw
  void FenceI() { EmitOp({.op = Op::kFenceI}); }

  // -- Pseudo-instructions. --------------------------------------------------------
  void Nop() { Addi(zero, zero, 0); }
  void Mv(Reg rd, Reg rs) { Addi(rd, rs, 0); }
  void Not(Reg rd, Reg rs) { Xori(rd, rs, -1); }
  void Neg(Reg rd, Reg rs) { Sub(rd, zero, rs); }
  void J(const std::string& label) { Jal(zero, label); }
  void Call(const std::string& label) { Jal(ra, label); }
  void Ret() { Jalr(zero, ra, 0); }
  void Beqz(Reg rs, const std::string& label) { Beq(rs, zero, label); }
  void Bnez(Reg rs, const std::string& label) { Bne(rs, zero, label); }
  void Csrr(Reg rd, uint16_t csr) { Csrrs(rd, csr, zero); }
  void Csrw(uint16_t csr, Reg rs) { Csrrw(zero, csr, rs); }
  void Csrs(uint16_t csr, Reg rs) { Csrrs(zero, csr, rs); }
  void Csrc(uint16_t csr, Reg rs) { Csrrc(zero, csr, rs); }
  // Loads an arbitrary 64-bit constant (1-8 instructions).
  void Li(Reg rd, uint64_t value);
  // Loads the address of `label` (auipc + addi, pc-relative, supports forward refs).
  void La(Reg rd, const std::string& label);

  // -- Finalization. ---------------------------------------------------------------
  // Resolves all fixups. The entry point defaults to the image base, or the label
  // "_start" if bound.
  Result<Image> Finish();

 private:
  enum class FixupKind { kPcrel, kPcrelPair, kAddrWord };
  struct Fixup {
    uint64_t offset;  // where in buffer_
    std::string label;
    FixupKind kind;
  };

  void Emit32(uint32_t word);
  void EmitOp(const DecodedInstr& instr) { Emit32(Encode(instr)); }
  // Emits a B- or J-format op whose offset reaches `label`, now or at Finish.
  void EmitToLabel(DecodedInstr instr, const std::string& label);
  // Re-encodes the instruction at `offset` with a new immediate.
  void PatchImm(uint64_t offset, int64_t imm);
  void Patch32(uint64_t offset, uint32_t word);
  uint32_t Load32(uint64_t offset) const;

  uint64_t base_;
  std::vector<uint8_t> buffer_;
  std::map<std::string, uint64_t> labels_;  // label -> address
  std::vector<Fixup> fixups_;
  std::string error_;
};

}  // namespace vfm

#endif  // SRC_ASM_ASSEMBLER_H_
