// Unit tests for src/isa: the ISA table against spec encodings, decoder correctness
// via encoder round trips, CSR address classification, privileged-architecture
// helpers, and disassembly.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <set>

#include "src/asm/assembler.h"
#include "src/common/bits.h"
#include "src/isa/csr.h"
#include "src/isa/disasm.h"
#include "src/isa/instr.h"
#include "src/isa/priv.h"
#include "src/isa/sbi.h"

namespace vfm {
namespace {

// Assembles a single instruction and returns its encoding.
uint32_t Encode1(const std::function<void(Assembler&)>& emit) {
  Assembler a(0x1000);
  emit(a);
  Image image = std::move(a.Finish()).value();
  EXPECT_EQ(image.bytes.size(), 4u);
  return static_cast<uint32_t>(image.bytes[0]) | (static_cast<uint32_t>(image.bytes[1]) << 8) |
         (static_cast<uint32_t>(image.bytes[2]) << 16) |
         (static_cast<uint32_t>(image.bytes[3]) << 24);
}

TEST(DecodeTest, RTypeRoundTrip) {
  struct Case {
    Op op;
    std::function<void(Assembler&)> emit;
  };
  const Case cases[] = {
      {Op::kAdd, [](Assembler& a) { a.Add(a0, a1, a2); }},
      {Op::kSub, [](Assembler& a) { a.Sub(a0, a1, a2); }},
      {Op::kSll, [](Assembler& a) { a.Sll(a0, a1, a2); }},
      {Op::kSlt, [](Assembler& a) { a.Slt(a0, a1, a2); }},
      {Op::kSltu, [](Assembler& a) { a.Sltu(a0, a1, a2); }},
      {Op::kXor, [](Assembler& a) { a.Xor(a0, a1, a2); }},
      {Op::kSrl, [](Assembler& a) { a.Srl(a0, a1, a2); }},
      {Op::kSra, [](Assembler& a) { a.Sra(a0, a1, a2); }},
      {Op::kOr, [](Assembler& a) { a.Or(a0, a1, a2); }},
      {Op::kAnd, [](Assembler& a) { a.And(a0, a1, a2); }},
      {Op::kAddw, [](Assembler& a) { a.Addw(a0, a1, a2); }},
      {Op::kSubw, [](Assembler& a) { a.Subw(a0, a1, a2); }},
      {Op::kSllw, [](Assembler& a) { a.Sllw(a0, a1, a2); }},
      {Op::kSrlw, [](Assembler& a) { a.Srlw(a0, a1, a2); }},
      {Op::kSraw, [](Assembler& a) { a.Sraw(a0, a1, a2); }},
      {Op::kMul, [](Assembler& a) { a.Mul(a0, a1, a2); }},
      {Op::kMulh, [](Assembler& a) { a.Mulh(a0, a1, a2); }},
      {Op::kMulhsu, [](Assembler& a) { a.Mulhsu(a0, a1, a2); }},
      {Op::kMulhu, [](Assembler& a) { a.Mulhu(a0, a1, a2); }},
      {Op::kDiv, [](Assembler& a) { a.Div(a0, a1, a2); }},
      {Op::kDivu, [](Assembler& a) { a.Divu(a0, a1, a2); }},
      {Op::kRem, [](Assembler& a) { a.Rem(a0, a1, a2); }},
      {Op::kRemu, [](Assembler& a) { a.Remu(a0, a1, a2); }},
      {Op::kMulw, [](Assembler& a) { a.Mulw(a0, a1, a2); }},
      {Op::kDivw, [](Assembler& a) { a.Divw(a0, a1, a2); }},
      {Op::kDivuw, [](Assembler& a) { a.Divuw(a0, a1, a2); }},
      {Op::kRemw, [](Assembler& a) { a.Remw(a0, a1, a2); }},
      {Op::kRemuw, [](Assembler& a) { a.Remuw(a0, a1, a2); }},
  };
  for (const Case& c : cases) {
    const DecodedInstr d = Decode(Encode1(c.emit));
    EXPECT_EQ(d.op, c.op) << OpName(c.op);
    EXPECT_EQ(d.rd, a0);
    EXPECT_EQ(d.rs1, a1);
    EXPECT_EQ(d.rs2, a2);
  }
}

TEST(DecodeTest, ITypeImmediates) {
  for (int32_t imm : {-2048, -1, 0, 1, 127, 2047}) {
    const DecodedInstr d = Decode(Encode1([imm](Assembler& a) { a.Addi(t0, t1, imm); }));
    EXPECT_EQ(d.op, Op::kAddi);
    EXPECT_EQ(d.imm, imm);
    EXPECT_EQ(d.rd, t0);
    EXPECT_EQ(d.rs1, t1);
  }
}

TEST(DecodeTest, LoadStoreOffsets) {
  for (int32_t imm : {-2048, -8, 0, 8, 2047}) {
    const DecodedInstr ld = Decode(Encode1([imm](Assembler& a) { a.Ld(s2, sp, imm); }));
    EXPECT_EQ(ld.op, Op::kLd);
    EXPECT_EQ(ld.imm, imm);
    const DecodedInstr sd = Decode(Encode1([imm](Assembler& a) { a.Sd(s2, sp, imm); }));
    EXPECT_EQ(sd.op, Op::kSd);
    EXPECT_EQ(sd.imm, imm);
    EXPECT_EQ(sd.rs2, s2);
    EXPECT_EQ(sd.rs1, sp);
  }
}

TEST(DecodeTest, LoadVariants) {
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lb(a0, a1, 0); })).op, Op::kLb);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lh(a0, a1, 0); })).op, Op::kLh);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lw(a0, a1, 0); })).op, Op::kLw);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lbu(a0, a1, 0); })).op, Op::kLbu);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lhu(a0, a1, 0); })).op, Op::kLhu);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lwu(a0, a1, 0); })).op, Op::kLwu);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Sb(a0, a1, 0); })).op, Op::kSb);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Sh(a0, a1, 0); })).op, Op::kSh);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Sw(a0, a1, 0); })).op, Op::kSw);
}

TEST(DecodeTest, BranchOffsets) {
  Assembler a(0x1000);
  a.Bind("target");
  a.Nop();
  a.Beq(a0, a1, "target");
  Image image = std::move(a.Finish()).value();
  uint32_t word = 0;
  for (int i = 0; i < 4; ++i) {
    word |= static_cast<uint32_t>(image.bytes[4 + i]) << (8 * i);
  }
  const DecodedInstr d = Decode(word);
  EXPECT_EQ(d.op, Op::kBeq);
  EXPECT_EQ(d.imm, -4);
}

TEST(DecodeTest, JalOffsetForwardAndBack) {
  Assembler a(0x1000);
  a.J("fwd");
  a.Nop();
  a.Bind("fwd");
  a.J("fwd");
  Image image = std::move(a.Finish()).value();
  auto word_at = [&](size_t off) {
    uint32_t w = 0;
    for (int i = 0; i < 4; ++i) {
      w |= static_cast<uint32_t>(image.bytes[off + i]) << (8 * i);
    }
    return w;
  };
  EXPECT_EQ(Decode(word_at(0)).imm, 8);
  EXPECT_EQ(Decode(word_at(8)).imm, 0);
}

TEST(DecodeTest, CsrInstructions) {
  const DecodedInstr w = Decode(Encode1([](Assembler& a) { a.Csrrw(a0, kCsrMstatus, a1); }));
  EXPECT_EQ(w.op, Op::kCsrrw);
  EXPECT_EQ(w.csr, kCsrMstatus);
  EXPECT_EQ(w.rd, a0);
  EXPECT_EQ(w.rs1, a1);
  const DecodedInstr si = Decode(Encode1([](Assembler& a) { a.Csrrsi(zero, kCsrMip, 2); }));
  EXPECT_EQ(si.op, Op::kCsrrsi);
  EXPECT_EQ(si.zimm, 2);
}

TEST(DecodeTest, PrivilegedEncodings) {
  EXPECT_EQ(Decode(0x30200073).op, Op::kMret);
  EXPECT_EQ(Decode(0x10200073).op, Op::kSret);
  EXPECT_EQ(Decode(0x10500073).op, Op::kWfi);
  EXPECT_EQ(Decode(0x00000073).op, Op::kEcall);
  EXPECT_EQ(Decode(0x00100073).op, Op::kEbreak);
  EXPECT_EQ(Decode(0x12000073).op, Op::kSfenceVma);
}

TEST(DecodeTest, XretWithNonzeroRdInvalid) {
  // mret with rd=1 is not a valid encoding.
  EXPECT_EQ(Decode(0x30200073 | (1 << 7)).op, Op::kInvalid);
  EXPECT_EQ(Decode(0x10500073 | (3 << 15)).op, Op::kInvalid);
}

TEST(DecodeTest, AmoRoundTrip) {
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.LrW(a0, a1); })).op, Op::kLrW);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.ScW(a0, a2, a1); })).op, Op::kScW);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.AmoswapW(a0, a2, a1); })).op, Op::kAmoswapW);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.AmoaddW(a0, a2, a1); })).op, Op::kAmoaddW);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.AmoaddD(a0, a2, a1); })).op, Op::kAmoaddD);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.AmoswapD(a0, a2, a1); })).op, Op::kAmoswapD);
}

TEST(DecodeTest, CompressedRejected) {
  EXPECT_EQ(Decode(0x0001).op, Op::kInvalid);  // c.nop
  EXPECT_EQ(Decode(0x8082).op, Op::kInvalid);  // c.ret
}

TEST(DecodeTest, UndecodableWordCarriesNoImmediate) {
  // beq's opcode with funct3 = 2 (no such branch), a store with funct3 = 4, a load
  // with funct3 = 7, slli with shamt bits 31:26 set and OP-IMM-32's funct3 = 2, each
  // with every immediate bit set: none of them names an op, so no field beyond the
  // register numbers is filled.
  for (const uint32_t word :
       {0xFE05AFE3u, 0xFE05CFA3u, 0xFFF5F503u, 0xFFF59513u, 0xFFF5A51Bu}) {
    const DecodedInstr d = Decode(word);
    EXPECT_EQ(d.op, Op::kInvalid) << std::hex << word;
    EXPECT_EQ(d.imm, 0) << std::hex << word;
    EXPECT_EQ(d.csr, 0) << std::hex << word;
    EXPECT_EQ(d.zimm, 0) << std::hex << word;
    EXPECT_EQ(d.raw, word);
    EXPECT_EQ(d.rd, ExtractBits(word, 11, 7));
    EXPECT_EQ(d.rs1, ExtractBits(word, 19, 15));
    EXPECT_EQ(d.rs2, ExtractBits(word, 24, 20));
  }
}

TEST(DecodeTest, FenceForms) {
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Fence(); })).op, Op::kFence);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.FenceI(); })).op, Op::kFenceI);
}

TEST(DecodeTest, UTypeAndShift) {
  const DecodedInstr lui = Decode(Encode1([](Assembler& a) { a.Lui(a0, -1); }));
  EXPECT_EQ(lui.op, Op::kLui);
  EXPECT_EQ(lui.imm, -4096);
  const DecodedInstr slli = Decode(Encode1([](Assembler& a) { a.Slli(a0, a1, 63); }));
  EXPECT_EQ(slli.op, Op::kSlli);
  EXPECT_EQ(slli.imm, 63);
  const DecodedInstr srai = Decode(Encode1([](Assembler& a) { a.Srai(a0, a1, 12); }));
  EXPECT_EQ(srai.op, Op::kSrai);
  EXPECT_EQ(srai.imm, 12);
  const DecodedInstr srliw = Decode(Encode1([](Assembler& a) { a.Srliw(a0, a1, 31); }));
  EXPECT_EQ(srliw.op, Op::kSrliw);
  EXPECT_EQ(srliw.imm, 31);
  const DecodedInstr sraiw = Decode(Encode1([](Assembler& a) { a.Sraiw(a0, a1, 7); }));
  EXPECT_EQ(sraiw.op, Op::kSraiw);
  EXPECT_EQ(sraiw.imm, 7);
}

// Assembles `emit` and returns the word at label "at" (or at the base if unbound).
uint32_t WordAt(const std::function<void(Assembler&)>& emit) {
  Assembler a(0x1000);
  emit(a);
  const Image image = std::move(a.Finish()).value();
  const uint64_t at = image.SymbolOr("at", image.base) - image.base;
  uint32_t word = 0;
  for (unsigned i = 0; i < 4; ++i) {
    word |= static_cast<uint32_t>(image.bytes[at + i]) << (8 * i);
  }
  return word;
}

// One spec-anchored word per table op. The words come from
//   llvm-mc -triple=riscv64 -mattr=+m,+a -show-encoding
// (LLVM 14), except hfence.vvma/hfence.gvma with rs1 = rs2 = 0, which LLVM 14 lacks:
// those are taken from the RISC-V privileged spec (funct7 0010001/0110001, SYSTEM).
// A table that both decodes and encodes round-trips a wrong funct3 unnoticed, so the
// words here are the independent check: each must decode to its op, disassemble to
// the expected text (which shows every decoded operand field), and be exactly what
// the Assembler emits.
TEST(IsaTableTest, GoldenEncodings) {
  struct Golden {
    Op op;
    uint32_t word;
    const char* text;
    std::function<void(Assembler&)> emit;
  };
  const Golden golden[] = {
      {Op::kAdd, 0x00c58533, "add a0, a1, a2", [](Assembler& a) { a.Add(a0, a1, a2); }},
      {Op::kAddi, 0xff010113, "addi sp, sp, -16", [](Assembler& a) { a.Addi(sp, sp, -16); }},
      {Op::kSub, 0x407302b3, "sub t0, t1, t2", [](Assembler& a) { a.Sub(t0, t1, t2); }},
      {Op::kSll, 0x00d49433, "sll s0, s1, a3", [](Assembler& a) { a.Sll(s0, s1, a3); }},
      {Op::kSlli, 0x03f59513, "slli a0, a1, 63", [](Assembler& a) { a.Slli(a0, a1, 63); }},
      {Op::kSlt, 0x0107a733, "slt a4, a5, a6", [](Assembler& a) { a.Slt(a4, a5, a6); }},
      {Op::kSlti, 0x80092893, "slti a7, s2, -2048", [](Assembler& a) { a.Slti(a7, s2, -2048); }},
      {Op::kSltu, 0x015a39b3, "sltu s3, s4, s5", [](Assembler& a) { a.Sltu(s3, s4, s5); }},
      {Op::kSltiu, 0x7ffbbb13, "sltiu s6, s7, 2047", [](Assembler& a) { a.Sltiu(s6, s7, 2047); }},
      {Op::kXor, 0x01accc33, "xor s8, s9, s10", [](Assembler& a) { a.Xor(s8, s9, s10); }},
      {Op::kXori, 0xfffe4d93, "xori s11, t3, -1", [](Assembler& a) { a.Xori(s11, t3, -1); }},
      {Op::kSrl, 0x01ff5eb3, "srl t4, t5, t6", [](Assembler& a) { a.Srl(t4, t5, t6); }},
      {Op::kSrli, 0x0011d093, "srli ra, gp, 1", [](Assembler& a) { a.Srli(ra, gp, 1); }},
      {Op::kSra, 0x40b55233, "sra tp, a0, a1", [](Assembler& a) { a.Sra(tp, a0, a1); }},
      {Op::kSrai, 0x40c6d613, "srai a2, a3, 12", [](Assembler& a) { a.Srai(a2, a3, 12); }},
      {Op::kOr, 0x0107e733, "or a4, a5, a6", [](Assembler& a) { a.Or(a4, a5, a6); }},
      {Op::kOri, 0x4d22e893, "ori a7, t0, 1234", [](Assembler& a) { a.Ori(a7, t0, 1234); }},
      {Op::kAnd, 0x0083f333, "and t1, t2, s0", [](Assembler& a) { a.And(t1, t2, s0); }},
      {Op::kAndi, 0x0ff57493, "andi s1, a0, 255", [](Assembler& a) { a.Andi(s1, a0, 255); }},
      {Op::kAddw, 0x00c5853b, "addw a0, a1, a2", [](Assembler& a) { a.Addw(a0, a1, a2); }},
      {Op::kAddiw, 0xff97069b, "addiw a3, a4, -7", [](Assembler& a) { a.Addiw(a3, a4, -7); }},
      {Op::kSubw, 0x411807bb, "subw a5, a6, a7", [](Assembler& a) { a.Subw(a5, a6, a7); }},
      {Op::kSllw, 0x007312bb, "sllw t0, t1, t2", [](Assembler& a) { a.Sllw(t0, t1, t2); }},
      {Op::kSlliw, 0x01fe9e1b, "slliw t3, t4, 31", [](Assembler& a) { a.Slliw(t3, t4, 31); }},
      {Op::kSrlw, 0x008fdf3b, "srlw t5, t6, s0", [](Assembler& a) { a.Srlw(t5, t6, s0); }},
      {Op::kSrliw, 0x0059549b, "srliw s1, s2, 5", [](Assembler& a) { a.Srliw(s1, s2, 5); }},
      {Op::kSraw, 0x415a59bb, "sraw s3, s4, s5", [](Assembler& a) { a.Sraw(s3, s4, s5); }},
      {Op::kSraiw, 0x407bdb1b, "sraiw s6, s7, 7", [](Assembler& a) { a.Sraiw(s6, s7, 7); }},
      {Op::kMul, 0x02c58533, "mul a0, a1, a2", [](Assembler& a) { a.Mul(a0, a1, a2); }},
      {Op::kMulh, 0x02f716b3, "mulh a3, a4, a5", [](Assembler& a) { a.Mulh(a3, a4, a5); }},
      {Op::kMulhsu, 0x0258a833, "mulhsu a6, a7, t0", [](Assembler& a) { a.Mulhsu(a6, a7, t0); }},
      {Op::kMulhu, 0x03c3b333, "mulhu t1, t2, t3", [](Assembler& a) { a.Mulhu(t1, t2, t3); }},
      {Op::kDiv, 0x03ff4eb3, "div t4, t5, t6", [](Assembler& a) { a.Div(t4, t5, t6); }},
      {Op::kDivu, 0x0324d433, "divu s0, s1, s2", [](Assembler& a) { a.Divu(s0, s1, s2); }},
      {Op::kRem, 0x035a69b3, "rem s3, s4, s5", [](Assembler& a) { a.Rem(s3, s4, s5); }},
      {Op::kRemu, 0x038bfb33, "remu s6, s7, s8", [](Assembler& a) { a.Remu(s6, s7, s8); }},
      {Op::kMulw, 0x02c5853b, "mulw a0, a1, a2", [](Assembler& a) { a.Mulw(a0, a1, a2); }},
      {Op::kDivw, 0x02f746bb, "divw a3, a4, a5", [](Assembler& a) { a.Divw(a3, a4, a5); }},
      {Op::kDivuw, 0x0328d83b, "divuw a6, a7, s2", [](Assembler& a) { a.Divuw(a6, a7, s2); }},
      {Op::kRemw, 0x035a69bb, "remw s3, s4, s5", [](Assembler& a) { a.Remw(s3, s4, s5); }},
      {Op::kRemuw, 0x027372bb, "remuw t0, t1, t2", [](Assembler& a) { a.Remuw(t0, t1, t2); }},
      {Op::kBeq, 0xfeb50ee3, "beq a0, a1, -4",
       [](Assembler& a) {
         a.Bind("t");
         a.Nop();
         a.Bind("at");
         a.Beq(a0, a1, "t");
       }},
      {Op::kBne, 0x00d61463, "bne a2, a3, 8",
       [](Assembler& a) {
         a.Bne(a2, a3, "t");
         a.Nop();
         a.Bind("t");
       }},
      {Op::kBlt, 0x80f74063, "blt a4, a5, -4096",
       [](Assembler& a) {
         a.Bind("t");
         a.Zero(4096);
         a.Bind("at");
         a.Blt(a4, a5, "t");
       }},
      {Op::kBge, 0x7f185fe3, "bge a6, a7, 4094",
       [](Assembler& a) {
         a.Bge(a6, a7, "t");
         a.Zero(4090);
         a.Bind("t");
       }},
      {Op::kBltu, 0x0062e863, "bltu t0, t1, 16",
       [](Assembler& a) {
         a.Bltu(t0, t1, "t");
         a.Zero(12);
         a.Bind("t");
       }},
      {Op::kBgeu, 0xfe83f0e3, "bgeu t2, s0, -32",
       [](Assembler& a) {
         a.Bind("t");
         a.Zero(32);
         a.Bind("at");
         a.Bgeu(t2, s0, "t");
       }},
      {Op::kLb, 0xfff58503, "lb a0, -1(a1)", [](Assembler& a) { a.Lb(a0, a1, -1); }},
      {Op::kLh, 0x00269603, "lh a2, 2(a3)", [](Assembler& a) { a.Lh(a2, a3, 2); }},
      {Op::kLw, 0x8007a703, "lw a4, -2048(a5)", [](Assembler& a) { a.Lw(a4, a5, -2048); }},
      {Op::kLd, 0x00813083, "ld ra, 8(sp)", [](Assembler& a) { a.Ld(ra, sp, 8); }},
      {Op::kLbu, 0x7ff8c803, "lbu a6, 2047(a7)", [](Assembler& a) { a.Lbu(a6, a7, 2047); }},
      {Op::kLhu, 0x00035283, "lhu t0, 0(t1)", [](Assembler& a) { a.Lhu(t0, t1, 0); }},
      {Op::kLwu, 0x00c46383, "lwu t2, 12(s0)", [](Assembler& a) { a.Lwu(t2, s0, 12); }},
      {Op::kSb, 0xfea58fa3, "sb a0, -1(a1)", [](Assembler& a) { a.Sb(a0, a1, -1); }},
      {Op::kSh, 0x00c69123, "sh a2, 2(a3)", [](Assembler& a) { a.Sh(a2, a3, 2); }},
      {Op::kSw, 0x80e7a023, "sw a4, -2048(a5)", [](Assembler& a) { a.Sw(a4, a5, -2048); }},
      {Op::kSd, 0x7f213fa3, "sd s2, 2047(sp)", [](Assembler& a) { a.Sd(s2, sp, 2047); }},
      {Op::kLui, 0xfffff537, "lui a0, 0xfffff", [](Assembler& a) { a.Lui(a0, 0xfffff); }},
      {Op::kAuipc, 0x12345297, "auipc t0, 0x12345", [](Assembler& a) { a.Auipc(t0, 0x12345); }},
      {Op::kJal, 0xff9ff0ef, "jal ra, -8",
       [](Assembler& a) {
         a.Bind("t");
         a.Zero(8);
         a.Bind("at");
         a.Jal(ra, "t");
       }},
      {Op::kJalr, 0x010500e7, "jalr ra, 16(a0)", [](Assembler& a) { a.Jalr(ra, a0, 16); }},
      {Op::kFence, 0x0ff0000f, "fence", [](Assembler& a) { a.Fence(); }},
      {Op::kFenceI, 0x0000100f, "fence.i", [](Assembler& a) { a.FenceI(); }},
      {Op::kEcall, 0x00000073, "ecall", [](Assembler& a) { a.Ecall(); }},
      {Op::kEbreak, 0x00100073, "ebreak", [](Assembler& a) { a.Ebreak(); }},
      {Op::kCsrrw, 0x30059573, "csrrw a0, mstatus, a1",
       [](Assembler& a) {
         a.Csrrw(a0, kCsrMstatus, a1);
       }},
      {Op::kCsrrs, 0x341022f3, "csrrs t0, mepc, zero",
       [](Assembler& a) {
         a.Csrrs(t0, kCsrMepc, zero);
       }},
      {Op::kCsrrc, 0x3046b673, "csrrc a2, mie, a3", [](Assembler& a) { a.Csrrc(a2, kCsrMie, a3); }},
      {Op::kCsrrwi, 0x1002d073, "csrrwi zero, sstatus, 5",
       [](Assembler& a) {
         a.Csrrwi(zero, kCsrSstatus, 5);
       }},
      {Op::kCsrrsi, 0x34416773, "csrrsi a4, mip, 2",
       [](Assembler& a) {
         a.Csrrsi(a4, kCsrMip, 2);
       }},
      {Op::kCsrrci, 0x180ff7f3, "csrrci a5, satp, 31",
       [](Assembler& a) {
         a.Csrrci(a5, kCsrSatp, 31);
       }},
      {Op::kLrW, 0x1005a52f, "lr.w a0, (a1)", [](Assembler& a) { a.LrW(a0, a1); }},
      {Op::kScW, 0x18c5a52f, "sc.w a0, a2, (a1)", [](Assembler& a) { a.ScW(a0, a2, a1); }},
      {Op::kAmoswapW, 0x08c5a52f, "amoswap.w a0, a2, (a1)",
       [](Assembler& a) {
         a.AmoswapW(a0, a2, a1);
       }},
      {Op::kAmoaddW, 0x00e7a6af, "amoadd.w a3, a4, (a5)",
       [](Assembler& a) {
         a.AmoaddW(a3, a4, a5);
       }},
      {Op::kAmoxorW, 0x2112a82f, "amoxor.w a6, a7, (t0)",
       [](Assembler& a) {
         a.AmoxorW(a6, a7, t0);
       }},
      {Op::kAmoandW, 0x6074232f, "amoand.w t1, t2, (s0)",
       [](Assembler& a) {
         a.AmoandW(t1, t2, s0);
       }},
      {Op::kAmoorW, 0x4129a4af, "amoor.w s1, s2, (s3)", [](Assembler& a) { a.AmoorW(s1, s2, s3); }},
      {Op::kAmominW, 0x815b2a2f, "amomin.w s4, s5, (s6)",
       [](Assembler& a) {
         a.AmominW(s4, s5, s6);
       }},
      {Op::kAmomaxW, 0xa18cabaf, "amomax.w s7, s8, (s9)",
       [](Assembler& a) {
         a.AmomaxW(s7, s8, s9);
       }},
      {Op::kAmominuW, 0xc1be2d2f, "amominu.w s10, s11, (t3)",
       [](Assembler& a) {
         a.AmominuW(s10, s11, t3);
       }},
      {Op::kAmomaxuW, 0xe1efaeaf, "amomaxu.w t4, t5, (t6)",
       [](Assembler& a) {
         a.AmomaxuW(t4, t5, t6);
       }},
      {Op::kLrD, 0x1005b52f, "lr.d a0, (a1)", [](Assembler& a) { a.LrD(a0, a1); }},
      {Op::kScD, 0x18c5b52f, "sc.d a0, a2, (a1)", [](Assembler& a) { a.ScD(a0, a2, a1); }},
      {Op::kAmoswapD, 0x08c5b52f, "amoswap.d a0, a2, (a1)",
       [](Assembler& a) {
         a.AmoswapD(a0, a2, a1);
       }},
      {Op::kAmoaddD, 0x00e7b6af, "amoadd.d a3, a4, (a5)",
       [](Assembler& a) {
         a.AmoaddD(a3, a4, a5);
       }},
      {Op::kAmoxorD, 0x2112b82f, "amoxor.d a6, a7, (t0)",
       [](Assembler& a) {
         a.AmoxorD(a6, a7, t0);
       }},
      {Op::kAmoandD, 0x6074332f, "amoand.d t1, t2, (s0)",
       [](Assembler& a) {
         a.AmoandD(t1, t2, s0);
       }},
      {Op::kAmoorD, 0x4129b4af, "amoor.d s1, s2, (s3)", [](Assembler& a) { a.AmoorD(s1, s2, s3); }},
      {Op::kAmominD, 0x815b3a2f, "amomin.d s4, s5, (s6)",
       [](Assembler& a) {
         a.AmominD(s4, s5, s6);
       }},
      {Op::kAmomaxD, 0xa18cbbaf, "amomax.d s7, s8, (s9)",
       [](Assembler& a) {
         a.AmomaxD(s7, s8, s9);
       }},
      {Op::kAmominuD, 0xc1be3d2f, "amominu.d s10, s11, (t3)",
       [](Assembler& a) {
         a.AmominuD(s10, s11, t3);
       }},
      {Op::kAmomaxuD, 0xe1efbeaf, "amomaxu.d t4, t5, (t6)",
       [](Assembler& a) {
         a.AmomaxuD(t4, t5, t6);
       }},
      {Op::kSret, 0x10200073, "sret", [](Assembler& a) { a.Sret(); }},
      {Op::kMret, 0x30200073, "mret", [](Assembler& a) { a.Mret(); }},
      {Op::kWfi, 0x10500073, "wfi", [](Assembler& a) { a.Wfi(); }},
      {Op::kSfenceVma, 0x12b50073, "sfence.vma a0, a1", [](Assembler& a) { a.SfenceVma(a0, a1); }},
      {Op::kHfenceVvma, 0x22000073, "hfence.vvma zero, zero", [](Assembler& a) { a.HfenceVvma(); }},
      {Op::kHfenceGvma, 0x62000073, "hfence.gvma zero, zero", [](Assembler& a) { a.HfenceGvma(); }},
  };
  std::set<Op> covered;
  for (const Golden& g : golden) {
    SCOPED_TRACE(g.text);
    EXPECT_EQ(Decode(g.word).op, g.op);
    EXPECT_EQ(Disassemble(g.word), g.text);
    EXPECT_EQ(WordAt(g.emit), g.word);
    covered.insert(g.op);
  }
  EXPECT_EQ(covered.size(), kOpCount - 1);  // every op but kInvalid
}

// Every row, with the bits outside its mask filled at random, decodes to that row,
// and encoding the decoded fields gives the word back. The only bits the decoder does
// not report are a fence's fm/pred/succ and an AMO's aq/rl.
TEST(IsaTableTest, DecodeThenEncodeIsIdentity) {
  std::mt19937 rng(16);
  for (unsigned i = 1; i < kOpCount; ++i) {
    const IsaRow& row = kIsa[i];
    uint32_t ignored = 0;
    if (row.format == Format::kFence) {
      ignored = 0xFFF00000;
    } else if (row.format == Format::kAmo || row.format == Format::kLr) {
      ignored = 0x06000000;
    }
    for (unsigned n = 0; n < 1000; ++n) {
      const uint32_t word = row.match | (static_cast<uint32_t>(rng()) & ~row.mask);
      const DecodedInstr d = Decode(word);
      ASSERT_EQ(d.op, static_cast<Op>(i)) << row.mnemonic << " " << std::hex << word;
      ASSERT_EQ(Encode(d), word & ~ignored) << row.mnemonic << " " << std::hex << word;
    }
  }
}

TEST(OpPropertiesTest, PrivilegedClassification) {
  EXPECT_TRUE(OpIsPrivileged(Op::kCsrrw));
  EXPECT_TRUE(OpIsPrivileged(Op::kMret));
  EXPECT_TRUE(OpIsPrivileged(Op::kWfi));
  EXPECT_TRUE(OpIsPrivileged(Op::kEcall));
  EXPECT_TRUE(OpIsPrivileged(Op::kSfenceVma));
  EXPECT_FALSE(OpIsPrivileged(Op::kAdd));
  EXPECT_FALSE(OpIsPrivileged(Op::kLd));
  EXPECT_FALSE(OpIsPrivileged(Op::kJal));
}

TEST(CsrTest, Classification) {
  EXPECT_TRUE(CsrIsReadOnly(kCsrMhartid));
  EXPECT_TRUE(CsrIsReadOnly(kCsrCycle));
  EXPECT_FALSE(CsrIsReadOnly(kCsrMstatus));
  EXPECT_FALSE(CsrIsReadOnly(kCsrSatp));
  EXPECT_EQ(CsrMinPriv(kCsrMstatus), PrivMode::kMachine);
  EXPECT_EQ(CsrMinPriv(kCsrSstatus), PrivMode::kSupervisor);
  EXPECT_EQ(CsrMinPriv(kCsrCycle), PrivMode::kUser);
  EXPECT_EQ(CsrMinPriv(kCsrHstatus), PrivMode::kSupervisor);  // HS CSRs fold into S
}

TEST(CsrTest, NamesAndLookup) {
  EXPECT_EQ(CsrName(kCsrMstatus), "mstatus");
  EXPECT_EQ(CsrName(kCsrSatp), "satp");
  EXPECT_EQ(CsrName(CsrPmpaddr(7)), "pmpaddr7");
  EXPECT_EQ(CsrName(CsrPmpcfg(1)), "pmpcfg2");
  EXPECT_EQ(CsrName(0x123), "csr_0x123");
  EXPECT_NE(LookupCsr(kCsrMie), nullptr);
  EXPECT_EQ(LookupCsr(0x7FF), nullptr);
}

TEST(CsrTest, TableCoversAtLeast84Csrs) {
  // The paper's Miralis supports 84 CSRs; this library's table must not shrink
  // below that.
  EXPECT_GE(AllKnownCsrs().size(), 84u);
}

TEST(PrivTest, CauseValues) {
  EXPECT_EQ(CauseValue(ExceptionCause::kIllegalInstr), 2u);
  EXPECT_EQ(CauseValue(ExceptionCause::kEcallFromS), 9u);
  EXPECT_EQ(CauseValue(InterruptCause::kMachineTimer), kInterruptBit | 7);
  EXPECT_EQ(InterruptMask(InterruptCause::kSupervisorSoftware), 2u);
}

TEST(PrivTest, TrapTargetPc) {
  // Direct mode: always base.
  EXPECT_EQ(TrapTargetPc(0x80001000, CauseValue(InterruptCause::kMachineTimer)), 0x80001000u);
  // Vectored mode: base + 4*cause for interrupts only.
  EXPECT_EQ(TrapTargetPc(0x80001001, CauseValue(InterruptCause::kMachineTimer)),
            0x80001000u + 4 * 7);
  EXPECT_EQ(TrapTargetPc(0x80001001, CauseValue(ExceptionCause::kIllegalInstr)), 0x80001000u);
}

TEST(PrivTest, SstatusMaskContents) {
  EXPECT_NE(kSstatusMask & (uint64_t{1} << MstatusBits::kSie), 0u);
  EXPECT_NE(kSstatusMask & (uint64_t{1} << MstatusBits::kSpp), 0u);
  EXPECT_NE(kSstatusMask & (uint64_t{1} << MstatusBits::kSum), 0u);
  EXPECT_EQ(kSstatusMask & (uint64_t{1} << MstatusBits::kMie), 0u);
  EXPECT_EQ(kSstatusMask & MaskRange(MstatusBits::kMppHi, MstatusBits::kMppLo), 0u);
}

TEST(DisasmTest, RendersCommonForms) {
  EXPECT_EQ(Disassemble(Encode1([](Assembler& a) { a.Add(a0, a1, a2); })), "add a0, a1, a2");
  EXPECT_EQ(Disassemble(Encode1([](Assembler& a) { a.Addi(sp, sp, -16); })),
            "addi sp, sp, -16");
  EXPECT_EQ(Disassemble(Encode1([](Assembler& a) { a.Ld(ra, sp, 8); })), "ld ra, 8(sp)");
  EXPECT_EQ(Disassemble(Encode1([](Assembler& a) { a.Csrrw(a0, kCsrMscratch, a1); })),
            "csrrw a0, mscratch, a1");
  EXPECT_EQ(Disassemble(0x30200073u), "mret");
  EXPECT_EQ(Disassemble(0x10500073u), "wfi");
}

TEST(DisasmTest, RegNames) {
  EXPECT_STREQ(RegName(0), "zero");
  EXPECT_STREQ(RegName(1), "ra");
  EXPECT_STREQ(RegName(2), "sp");
  EXPECT_STREQ(RegName(10), "a0");
  EXPECT_STREQ(RegName(31), "t6");
  EXPECT_STREQ(RegName(99), "x?");
}

TEST(SbiTest, ExtensionIds) {
  EXPECT_EQ(SbiExt::kTime, 0x54494D45u);
  EXPECT_EQ(SbiExt::kIpi, 0x735049u);
  EXPECT_EQ(SbiExt::kRfence, 0x52464E43u);
}

}  // namespace
}  // namespace vfm
