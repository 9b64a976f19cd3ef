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

  // -- RV64I. --------------------------------------------------------------------
  void Lui(Reg rd, int32_t imm20);
  void Auipc(Reg rd, int32_t imm20);
  void Jal(Reg rd, const std::string& label);
  void Jalr(Reg rd, Reg rs1, int32_t imm);
  void Beq(Reg rs1, Reg rs2, const std::string& label);
  void Bne(Reg rs1, Reg rs2, const std::string& label);
  void Blt(Reg rs1, Reg rs2, const std::string& label);
  void Bge(Reg rs1, Reg rs2, const std::string& label);
  void Bltu(Reg rs1, Reg rs2, const std::string& label);
  void Bgeu(Reg rs1, Reg rs2, const std::string& label);
  void Lb(Reg rd, Reg rs1, int32_t imm);
  void Lh(Reg rd, Reg rs1, int32_t imm);
  void Lw(Reg rd, Reg rs1, int32_t imm);
  void Ld(Reg rd, Reg rs1, int32_t imm);
  void Lbu(Reg rd, Reg rs1, int32_t imm);
  void Lhu(Reg rd, Reg rs1, int32_t imm);
  void Lwu(Reg rd, Reg rs1, int32_t imm);
  void Sb(Reg rs2, Reg rs1, int32_t imm);
  void Sh(Reg rs2, Reg rs1, int32_t imm);
  void Sw(Reg rs2, Reg rs1, int32_t imm);
  void Sd(Reg rs2, Reg rs1, int32_t imm);
  void Addi(Reg rd, Reg rs1, int32_t imm);
  void Slti(Reg rd, Reg rs1, int32_t imm);
  void Sltiu(Reg rd, Reg rs1, int32_t imm);
  void Xori(Reg rd, Reg rs1, int32_t imm);
  void Ori(Reg rd, Reg rs1, int32_t imm);
  void Andi(Reg rd, Reg rs1, int32_t imm);
  void Slli(Reg rd, Reg rs1, unsigned shamt);
  void Srli(Reg rd, Reg rs1, unsigned shamt);
  void Srai(Reg rd, Reg rs1, unsigned shamt);
  void Add(Reg rd, Reg rs1, Reg rs2);
  void Sub(Reg rd, Reg rs1, Reg rs2);
  void Sll(Reg rd, Reg rs1, Reg rs2);
  void Slt(Reg rd, Reg rs1, Reg rs2);
  void Sltu(Reg rd, Reg rs1, Reg rs2);
  void Xor(Reg rd, Reg rs1, Reg rs2);
  void Srl(Reg rd, Reg rs1, Reg rs2);
  void Sra(Reg rd, Reg rs1, Reg rs2);
  void Or(Reg rd, Reg rs1, Reg rs2);
  void And(Reg rd, Reg rs1, Reg rs2);
  void Addiw(Reg rd, Reg rs1, int32_t imm);
  void Addw(Reg rd, Reg rs1, Reg rs2);
  void Subw(Reg rd, Reg rs1, Reg rs2);
  void Slliw(Reg rd, Reg rs1, unsigned shamt);
  void Srliw(Reg rd, Reg rs1, unsigned shamt);
  void Sraiw(Reg rd, Reg rs1, unsigned shamt);
  void Sllw(Reg rd, Reg rs1, Reg rs2);
  void Srlw(Reg rd, Reg rs1, Reg rs2);
  void Sraw(Reg rd, Reg rs1, Reg rs2);
  void Fence();
  void FenceI();
  void Ecall();
  void Ebreak();

  // -- RV64M. ------------------------------------------------------------------------
  void Mul(Reg rd, Reg rs1, Reg rs2);
  void Mulh(Reg rd, Reg rs1, Reg rs2);
  void Mulhsu(Reg rd, Reg rs1, Reg rs2);
  void Mulhu(Reg rd, Reg rs1, Reg rs2);
  void Div(Reg rd, Reg rs1, Reg rs2);
  void Divu(Reg rd, Reg rs1, Reg rs2);
  void Rem(Reg rd, Reg rs1, Reg rs2);
  void Remu(Reg rd, Reg rs1, Reg rs2);
  void Mulw(Reg rd, Reg rs1, Reg rs2);
  void Divw(Reg rd, Reg rs1, Reg rs2);
  void Divuw(Reg rd, Reg rs1, Reg rs2);
  void Remw(Reg rd, Reg rs1, Reg rs2);
  void Remuw(Reg rd, Reg rs1, Reg rs2);

  // -- RV64A (subset used by kernels). -----------------------------------------------
  void LrW(Reg rd, Reg rs1);
  void ScW(Reg rd, Reg rs2, Reg rs1);
  void AmoswapW(Reg rd, Reg rs2, Reg rs1);
  void AmoaddW(Reg rd, Reg rs2, Reg rs1);
  void AmoaddD(Reg rd, Reg rs2, Reg rs1);
  void AmoswapD(Reg rd, Reg rs2, Reg rs1);

  // -- Zicsr. --------------------------------------------------------------------
  void Csrrw(Reg rd, uint16_t csr, Reg rs1);
  void Csrrs(Reg rd, uint16_t csr, Reg rs1);
  void Csrrc(Reg rd, uint16_t csr, Reg rs1);
  void Csrrwi(Reg rd, uint16_t csr, uint8_t zimm);
  void Csrrsi(Reg rd, uint16_t csr, uint8_t zimm);
  void Csrrci(Reg rd, uint16_t csr, uint8_t zimm);

  // -- Privileged. ---------------------------------------------------------------
  void Sret();
  void Mret();
  void Wfi();
  void SfenceVma();

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
  enum class FixupKind { kBranch, kJal, kPcrelPair, kAddrWord };
  struct Fixup {
    uint64_t offset;  // where in buffer_
    std::string label;
    FixupKind kind;
  };

  void Emit32(uint32_t word);
  void EmitR(uint32_t funct7, Reg rs2, Reg rs1, uint32_t funct3, Reg rd, uint32_t opcode);
  void EmitI(int32_t imm, Reg rs1, uint32_t funct3, Reg rd, uint32_t opcode);
  void EmitS(int32_t imm, Reg rs2, Reg rs1, uint32_t funct3, uint32_t opcode);
  void EmitBranch(uint32_t funct3, Reg rs1, Reg rs2, const std::string& label);
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
