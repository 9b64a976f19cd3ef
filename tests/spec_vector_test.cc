// Spec vectors for every RV64IM ALU/M op, branch and load/store the hart executes.
// Expected values come from the RISC-V unprivileged spec (div/rem by zero and
// overflow, MULH* sign handling, W-form sign extension, shift-amount masking,
// load widths and signs), never from the simulator. Each vector runs:
//   - per instruction, with the block tier off;
//   - as a lowered block, checked through the hart's counters to have run lowered,
//     once in the unchecked dispatch mode and once in the checked one;
//   - for immediate forms, also as a li + op-imm chain checked to constant-fold.
// The four fused compare+branch pairs run through both tiers and are checked to fuse.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/asm/assembler.h"
#include "src/isa/instr.h"
#include "src/sim/machine.h"

namespace vfm {
namespace {

constexpr uint64_t kRam = 0x8000'0000;
constexpr uint64_t kRoot = kRam + 0x1000;  // Sv39 root table of the paged rig
constexpr uint64_t kData = kRam + 0x6000;  // two data words
constexpr uint64_t kCode = kRam + 0x8000;
constexpr uint64_t kWord0 = 0xF1E2'D3C4'B5A6'9788;  // every byte's sign bit set...
constexpr uint64_t kWord1 = 0x7162'5344'7566'5778;  // ...and clear
constexpr uint64_t kSentinel = 0x5A5A'5A5A'5A5A'5A5A;
// Every program ends in a self-loop, so a run of kBudget instructions ends there
// whichever tier ran it. The budget leaves room for a muldiv op's cycles, so blocks
// without memory ops can run in the unchecked dispatch mode.
constexpr uint64_t kBudget = 24;

constexpr uint64_t kMin = 0x8000'0000'0000'0000;  // INT64_MIN
constexpr uint64_t kMax = 0x7FFF'FFFF'FFFF'FFFF;  // INT64_MAX
constexpr uint64_t kAll = ~uint64_t{0};           // -1
constexpr uint64_t N(int64_t v) { return static_cast<uint64_t>(v); }

using Emit = std::function<void(Assembler&)>;

// What a run leaves behind; `at` is the pc's offset into the program.
struct End {
  uint64_t a0 = kSentinel;
  uint64_t x0 = 0;
  uint64_t at = 0;
  uint64_t word0 = kWord0;
  uint64_t word1 = kWord1;
  bool operator==(const End&) const = default;
};

void PrintTo(const End& e, std::ostream* os) {
  *os << std::hex << "{a0=0x" << e.a0 << " x0=0x" << e.x0 << " at=0x" << e.at << " word0=0x"
      << e.word0 << " word1=0x" << e.word1 << "}";
}

End Want(uint64_t a0, uint64_t at) {
  End e;
  e.a0 = a0;
  e.at = at;
  return e;
}

// `body` followed by the self-loop every single-path program ends in.
Emit WithEndLoop(const Emit& body) {
  return [body](Assembler& as) {
    body(as);
    as.Bind("end");
    as.J("end");
  };
}

// One machine that runs programs at kCode either per instruction (block tier off) or
// as lowered blocks. The paged rig runs in S-mode under an Sv39 identity gigapage, so
// in-block loads and stores take the host-pointer fast path.
class Rig {
 public:
  Rig(bool lowered, bool paged) {
    MachineConfig config;
    config.map.ram_size = 1 << 20;
    config.cost.instr_base = 1;  // the fold and fuse checks count budget in cycles
    config.tuning.superblock_entries = lowered ? 2048 : 0;
    machine_ = std::make_unique<Machine>(config);
    if (paged) {
      machine_->bus().Write(kRoot + 8 * 2, 8, ((kRam >> 12) << 10) | 0xCF);  // V R W X A D
      hart().csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
      hart().csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
      hart().csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
      hart().set_priv(PrivMode::kSupervisor);
    }
  }

  Hart& hart() { return machine_->hart(0); }

  void Load(const Emit& program) {
    Assembler as(kCode);
    program(as);
    Image image = std::move(as.Finish()).value();
    machine_->LoadImage(image.base, image.bytes);
  }

  // Runs `steps` instructions from kCode with rs1 = a1, rs2 = a2 and s11 = kData.
  End Run(uint64_t a1, uint64_t a2, uint64_t steps = kBudget) {
    Bus& bus = machine_->bus();
    bus.Write(kData, 8, kWord0);
    bus.Write(kData + 8, 8, kWord1);
    hart().set_gpr(vfm::a0, kSentinel);
    hart().set_gpr(vfm::a1, a1);
    hart().set_gpr(vfm::a2, a2);
    hart().set_gpr(s11, kData);
    hart().set_pc(kCode);
    hart().RunBatch(steps, ~uint64_t{0});
    End e;
    e.a0 = hart().gpr(vfm::a0);
    e.x0 = hart().gpr(zero);
    e.at = hart().pc() - kCode;
    bus.Read(kData, 8, &e.word0);
    bus.Read(kData + 8, 8, &e.word1);
    return e;
  }

 private:
  std::unique_ptr<Machine> machine_;
};

std::string Hex(uint64_t v) {
  char text[24];
  std::snprintf(text, sizeof text, "0x%llx", static_cast<unsigned long long>(v));
  return text;
}

// Runs `program` lowered: one run decodes it per instruction, the next builds and
// dispatches its blocks, which must end at `want` with every instruction run lowered.
std::unique_ptr<Rig> ExpectLowered(const Emit& program, uint64_t a1, uint64_t a2,
                                   const End& want, bool paged) {
  auto rig = std::make_unique<Rig>(/*lowered=*/true, paged);
  rig->Load(program);
  rig->Run(a1, a2);
  Hart& hart = rig->hart();
  const uint64_t blocks = hart.threaded_blocks();
  const uint64_t instrs = hart.threaded_instrs();
  const uint64_t fast = hart.host_fastpath_hits();
  EXPECT_EQ(rig->Run(a1, a2), want);
  EXPECT_GT(hart.threaded_blocks(), blocks) << "no block was dispatched lowered";
  EXPECT_EQ(hart.threaded_instrs() - instrs, kBudget) << "not every instruction ran lowered";
  if (paged) {
    EXPECT_GT(hart.host_fastpath_hits(), fast) << "the in-block memory fast path did not run";
  }
  return rig;
}

// Runs `program` per instruction and lowered; each run must end at `want`. Lowered, it
// runs twice: as is, where blocks without memory ops take the unchecked dispatch
// mode, and behind a load, which makes its block run checked. Returns the rig of the
// first lowered run, its blocks built and warm.
std::unique_ptr<Rig> ExpectAllTiers(const std::string& what, const Emit& program, uint64_t a1,
                                    uint64_t a2, const End& want, bool paged = false) {
  SCOPED_TRACE(what);
  Rig interpreter(/*lowered=*/false, paged);
  interpreter.Load(program);
  EXPECT_EQ(interpreter.Run(a1, a2), want) << "interpreter";
  EXPECT_EQ(interpreter.hart().threaded_blocks(), 0u);
  std::unique_ptr<Rig> rig = [&] {
    SCOPED_TRACE("lowered");
    return ExpectLowered(program, a1, a2, want, paged);
  }();
  SCOPED_TRACE("lowered, checked mode");
  End behind_load = want;
  behind_load.at += 4;
  ExpectLowered(
      [&program](Assembler& as) {
        as.Lw(t6, s11, 0);
        program(as);
      },
      a1, a2, behind_load, paged);
  return rig;
}

// -- ALU and M ops. ------------------------------------------------------------------

using RegEmit = void (Assembler::*)(Reg, Reg, Reg);
using ImmEmit = void (*)(Assembler&, Reg, Reg, int32_t);

template <auto kFn>
void EmitImm(Assembler& as, Reg rd, Reg rs1, int32_t imm) {
  (as.*kFn)(rd, rs1, imm);
}

struct RegVector {
  Op op;
  RegEmit emit;
  uint64_t a;
  uint64_t b;
  uint64_t want;
};

struct ImmVector {
  Op op;
  ImmEmit emit;
  uint64_t a;
  int32_t imm;
  uint64_t want;
};

const std::vector<RegVector>& RegVectors() {
  using A = Assembler;
  static const std::vector<RegVector> kVectors = {
      {Op::kAdd, &A::Add, 1, 2, 3},
      {Op::kAdd, &A::Add, kAll, 1, 0},
      {Op::kAdd, &A::Add, kMax, 1, kMin},
      {Op::kSub, &A::Sub, 3, 5, N(-2)},
      {Op::kSub, &A::Sub, kMin, 1, kMax},
      {Op::kSub, &A::Sub, 0, kAll, 1},
      // Shift amounts are the low 6 bits (5 for W forms) of rs2.
      {Op::kSll, &A::Sll, 1, 63, kMin},
      {Op::kSll, &A::Sll, 1, 64, 1},
      {Op::kSll, &A::Sll, 3, 0xFFFF'FFFF'FFFF'FFC1, 6},
      // slt against sltu across the sign boundary.
      {Op::kSlt, &A::Slt, N(-1), 0, 1},
      {Op::kSlt, &A::Slt, 0, N(-1), 0},
      {Op::kSlt, &A::Slt, kMin, kMax, 1},
      {Op::kSlt, &A::Slt, kMax, kMin, 0},
      {Op::kSlt, &A::Slt, 7, 7, 0},
      {Op::kSltu, &A::Sltu, N(-1), 0, 0},
      {Op::kSltu, &A::Sltu, 0, N(-1), 1},
      {Op::kSltu, &A::Sltu, kMin, kMax, 0},
      {Op::kSltu, &A::Sltu, kMax, kMin, 1},
      {Op::kSltu, &A::Sltu, 7, 7, 0},
      {Op::kXor, &A::Xor, 0xFF00'FF00'FF00'FF00, 0x0FF0'0FF0'0FF0'0FF0, 0xF0F0'F0F0'F0F0'F0F0},
      {Op::kOr, &A::Or, 0xFF00'FF00'FF00'FF00, 0x0FF0'0FF0'0FF0'0FF0, 0xFFF0'FFF0'FFF0'FFF0},
      {Op::kAnd, &A::And, 0xFF00'FF00'FF00'FF00, 0x0FF0'0FF0'0FF0'0FF0, 0x0F00'0F00'0F00'0F00},
      {Op::kSrl, &A::Srl, kMin, 63, 1},
      {Op::kSrl, &A::Srl, kMin, 127, 1},
      {Op::kSrl, &A::Srl, 0xF0, 0xFFFF'FFFF'FFFF'FF04, 0xF},
      {Op::kSra, &A::Sra, kMin, 63, kAll},
      {Op::kSra, &A::Sra, kMin, 64, kMin},
      {Op::kSra, &A::Sra, N(-16), 2, N(-4)},
      {Op::kSra, &A::Sra, kMax, 0xFFFF'FFFF'FFFF'FFFE, 1},
      // W forms operate on the low words and sign-extend the 32-bit result.
      {Op::kAddw, &A::Addw, 0x7FFF'FFFF, 1, 0xFFFF'FFFF'8000'0000},
      {Op::kAddw, &A::Addw, 0xFFFF'FFFF'0000'0001, 1, 2},
      {Op::kAddw, &A::Addw, 0x8000'0000, 0x8000'0000, 0},
      {Op::kSubw, &A::Subw, 0, 1, kAll},
      {Op::kSubw, &A::Subw, 0x8000'0000, 1, 0x7FFF'FFFF},
      {Op::kSubw, &A::Subw, 0x1'0000'0000, 0, 0},
      {Op::kSllw, &A::Sllw, 1, 31, 0xFFFF'FFFF'8000'0000},
      {Op::kSllw, &A::Sllw, 1, 32, 1},
      {Op::kSllw, &A::Sllw, 1, 0xFFFF'FFFF'FFFF'FFE1, 2},
      {Op::kSllw, &A::Sllw, 0xFFFF'FFFF'0000'0001, 0, 1},
      {Op::kSrlw, &A::Srlw, 0x8000'0000, 31, 1},
      {Op::kSrlw, &A::Srlw, 0x8000'0000, 0, 0xFFFF'FFFF'8000'0000},
      {Op::kSrlw, &A::Srlw, 0xFFFF'FFFF'8000'0000, 32, 0xFFFF'FFFF'8000'0000},
      {Op::kSrlw, &A::Srlw, 0x8000'0000, 0xFFFF'FFFF'FFFF'FFE1, 0x4000'0000},
      {Op::kSraw, &A::Sraw, 0x8000'0000, 31, kAll},
      {Op::kSraw, &A::Sraw, 0x8000'0000, 1, 0xFFFF'FFFF'C000'0000},
      {Op::kSraw, &A::Sraw, 0x7FFF'FFFF, 0x3F, 0},
      {Op::kSraw, &A::Sraw, 0xFFFF'FFFF'7FFF'FFFF, 32, 0x7FFF'FFFF},
      {Op::kMul, &A::Mul, 3, N(-2), N(-6)},
      {Op::kMul, &A::Mul, kMin, kAll, kMin},
      {Op::kMul, &A::Mul, 0xFFFF'FFFF, 0xFFFF'FFFF, 0xFFFF'FFFE'0000'0001},
      // mulh: signed x signed, every sign combination.
      {Op::kMulh, &A::Mulh, kMax, kMax, 0x3FFF'FFFF'FFFF'FFFF},
      {Op::kMulh, &A::Mulh, N(-1), 1, kAll},
      {Op::kMulh, &A::Mulh, 2, N(-1), kAll},
      {Op::kMulh, &A::Mulh, N(-1), N(-1), 0},
      {Op::kMulh, &A::Mulh, kMin, kMin, 0x4000'0000'0000'0000},
      {Op::kMulh, &A::Mulh, kMin, kAll, 0},
      {Op::kMulh, &A::Mulh, kMin, 1, kAll},
      // mulhsu: signed rs1 x unsigned rs2.
      {Op::kMulhsu, &A::Mulhsu, N(-1), kAll, kAll},
      {Op::kMulhsu, &A::Mulhsu, 1, kAll, 0},
      {Op::kMulhsu, &A::Mulhsu, 2, kAll, 1},
      {Op::kMulhsu, &A::Mulhsu, kMin, kAll, kMin},
      {Op::kMulhsu, &A::Mulhsu, N(-2), 3, kAll},
      {Op::kMulhsu, &A::Mulhsu, kMax, kAll, 0x7FFF'FFFF'FFFF'FFFE},
      {Op::kMulhu, &A::Mulhu, kAll, kAll, 0xFFFF'FFFF'FFFF'FFFE},
      {Op::kMulhu, &A::Mulhu, kMin, 2, 1},
      {Op::kMulhu, &A::Mulhu, N(-1), 1, 0},
      {Op::kMulhu, &A::Mulhu, kMin, kMin, 0x4000'0000'0000'0000},
      // Division rounds toward zero; by zero gives all ones (quotient) or the dividend
      // (remainder); INT_MIN / -1 gives INT_MIN and remainder 0.
      {Op::kDiv, &A::Div, 7, 2, 3},
      {Op::kDiv, &A::Div, N(-7), 2, N(-3)},
      {Op::kDiv, &A::Div, 7, N(-2), N(-3)},
      {Op::kDiv, &A::Div, N(-7), N(-2), 3},
      {Op::kDiv, &A::Div, 5, 0, kAll},
      {Op::kDiv, &A::Div, N(-5), 0, kAll},
      {Op::kDiv, &A::Div, kMin, kAll, kMin},
      {Op::kDivu, &A::Divu, 7, 2, 3},
      {Op::kDivu, &A::Divu, kAll, 2, kMax},
      {Op::kDivu, &A::Divu, 5, 0, kAll},
      {Op::kDivu, &A::Divu, kMin, kAll, 0},
      {Op::kRem, &A::Rem, 7, 2, 1},
      {Op::kRem, &A::Rem, N(-7), 2, N(-1)},
      {Op::kRem, &A::Rem, 7, N(-2), 1},
      {Op::kRem, &A::Rem, N(-7), N(-2), N(-1)},
      {Op::kRem, &A::Rem, 5, 0, 5},
      {Op::kRem, &A::Rem, N(-5), 0, N(-5)},
      {Op::kRem, &A::Rem, kMin, kAll, 0},
      {Op::kRemu, &A::Remu, 7, 2, 1},
      {Op::kRemu, &A::Remu, kAll, 2, 1},
      {Op::kRemu, &A::Remu, 5, 0, 5},
      {Op::kRemu, &A::Remu, kMin, kAll, kMin},
      {Op::kMulw, &A::Mulw, 0x7FFF'FFFF, 2, 0xFFFF'FFFF'FFFF'FFFE},
      {Op::kMulw, &A::Mulw, 0x1'0000'0003, 0x1'0000'0005, 15},
      {Op::kMulw, &A::Mulw, 0x1'0000, 0x1'0000, 0},
      {Op::kMulw, &A::Mulw, N(-3), 5, N(-15)},
      {Op::kDivw, &A::Divw, 7, 2, 3},
      {Op::kDivw, &A::Divw, N(-7), 2, N(-3)},
      {Op::kDivw, &A::Divw, 0x1'0000'0007, 2, 3},
      {Op::kDivw, &A::Divw, 5, 0, kAll},
      {Op::kDivw, &A::Divw, 5, 0x1'0000'0000, kAll},
      {Op::kDivw, &A::Divw, 0x8000'0000, 0xFFFF'FFFF, 0xFFFF'FFFF'8000'0000},
      {Op::kDivw, &A::Divw, 0xFFFF'FFFF'8000'0000, kAll, 0xFFFF'FFFF'8000'0000},
      {Op::kDivuw, &A::Divuw, 0xFFFF'FFFF, 2, 0x7FFF'FFFF},
      {Op::kDivuw, &A::Divuw, 0xFFFF'FFFE, 1, 0xFFFF'FFFF'FFFF'FFFE},
      {Op::kDivuw, &A::Divuw, 5, 0, kAll},
      {Op::kDivuw, &A::Divuw, 0x1'0000'0004, 0x1'0000'0002, 2},
      {Op::kRemw, &A::Remw, 7, 2, 1},
      {Op::kRemw, &A::Remw, N(-7), 2, N(-1)},
      {Op::kRemw, &A::Remw, 5, 0, 5},
      {Op::kRemw, &A::Remw, 0x1'8000'0000, 0, 0xFFFF'FFFF'8000'0000},
      {Op::kRemw, &A::Remw, 0x8000'0000, 0xFFFF'FFFF, 0},
      {Op::kRemuw, &A::Remuw, 7, 2, 1},
      {Op::kRemuw, &A::Remuw, 0xFFFF'FFFF, 0x10, 0xF},
      {Op::kRemuw, &A::Remuw, 0x8000'0005, 0, 0xFFFF'FFFF'8000'0005},
      {Op::kRemuw, &A::Remuw, 0xFFFF'FFFF, 0xFFFF'FFFE, 1},
  };
  return kVectors;
}

const std::vector<ImmVector>& ImmVectors() {
  using A = Assembler;
  static const std::vector<ImmVector> kVectors = {
      {Op::kAddi, EmitImm<&A::Addi>, 5, -1, 4},
      {Op::kAddi, EmitImm<&A::Addi>, kAll, 1, 0},
      {Op::kAddi, EmitImm<&A::Addi>, 0, -2048, 0xFFFF'FFFF'FFFF'F800},
      {Op::kAddi, EmitImm<&A::Addi>, 0, 2047, 0x7FF},
      {Op::kSlti, EmitImm<&A::Slti>, N(-1), 0, 1},
      {Op::kSlti, EmitImm<&A::Slti>, 0, -1, 0},
      {Op::kSlti, EmitImm<&A::Slti>, 5, 5, 0},
      {Op::kSlti, EmitImm<&A::Slti>, kMin, -2048, 1},
      {Op::kSlti, EmitImm<&A::Slti>, kMax, 2047, 0},
      // sltiu compares against the sign-extended immediate, unsigned.
      {Op::kSltiu, EmitImm<&A::Sltiu>, 0, -1, 1},
      {Op::kSltiu, EmitImm<&A::Sltiu>, kAll, -1, 0},
      {Op::kSltiu, EmitImm<&A::Sltiu>, 1, 1, 0},
      {Op::kSltiu, EmitImm<&A::Sltiu>, 0, 1, 1},
      {Op::kSltiu, EmitImm<&A::Sltiu>, kMin, 2047, 0},
      {Op::kXori, EmitImm<&A::Xori>, 0xFF, -1, 0xFFFF'FFFF'FFFF'FF00},
      {Op::kXori, EmitImm<&A::Xori>, 0x0F, 0xF0, 0xFF},
      {Op::kOri, EmitImm<&A::Ori>, 0, -2048, 0xFFFF'FFFF'FFFF'F800},
      {Op::kOri, EmitImm<&A::Ori>, 0x100, 0x0FF, 0x1FF},
      {Op::kAndi, EmitImm<&A::Andi>, kAll, 0x7FF, 0x7FF},
      {Op::kAndi, EmitImm<&A::Andi>, 0x1'2345'6789, -16, 0x1'2345'6780},
      {Op::kSlli, EmitImm<&A::Slli>, 1, 63, kMin},
      {Op::kSlli, EmitImm<&A::Slli>, 0xFF, 8, 0xFF00},
      {Op::kSrli, EmitImm<&A::Srli>, kMin, 63, 1},
      {Op::kSrli, EmitImm<&A::Srli>, kAll, 1, kMax},
      {Op::kSrai, EmitImm<&A::Srai>, kMin, 63, kAll},
      {Op::kSrai, EmitImm<&A::Srai>, N(-16), 2, N(-4)},
      {Op::kSrai, EmitImm<&A::Srai>, kMax, 62, 1},
      {Op::kAddiw, EmitImm<&A::Addiw>, 0x7FFF'FFFF, 1, 0xFFFF'FFFF'8000'0000},
      {Op::kAddiw, EmitImm<&A::Addiw>, 0x8000'0000, 0, 0xFFFF'FFFF'8000'0000},
      {Op::kAddiw, EmitImm<&A::Addiw>, 0x1'0000'0000, -1, kAll},
      {Op::kSlliw, EmitImm<&A::Slliw>, 1, 31, 0xFFFF'FFFF'8000'0000},
      {Op::kSlliw, EmitImm<&A::Slliw>, 0xFFFF'FFFF'0000'0001, 1, 2},
      {Op::kSrliw, EmitImm<&A::Srliw>, 0x8000'0000, 31, 1},
      {Op::kSrliw, EmitImm<&A::Srliw>, 0xFFFF'FFFF'8000'0000, 0, 0xFFFF'FFFF'8000'0000},
      {Op::kSrliw, EmitImm<&A::Srliw>, 0xFFFF'FFFF, 4, 0x0FFF'FFFF},
      {Op::kSraiw, EmitImm<&A::Sraiw>, 0x8000'0000, 31, kAll},
      {Op::kSraiw, EmitImm<&A::Sraiw>, 0x8000'0000, 4, 0xFFFF'FFFF'F800'0000},
      {Op::kSraiw, EmitImm<&A::Sraiw>, 0x7FFF'FFF0, 4, 0x07FF'FFFF},
  };
  return kVectors;
}

// The op the first instruction of `program` decodes to.
Op FirstOp(const Emit& program) {
  Assembler as(kCode);
  program(as);
  const Image image = std::move(as.Finish()).value();
  uint32_t word = 0;
  std::memcpy(&word, image.bytes.data(), sizeof word);
  return Decode(word).op;
}

TEST(SpecVectorTest, RegisterOps) {
  for (const RegVector& v : RegVectors()) {
    const Emit program = WithEndLoop([&v](Assembler& as) { (as.*v.emit)(a0, a1, a2); });
    ASSERT_EQ(FirstOp(program), v.op) << OpName(v.op);
    ExpectAllTiers(std::string(OpName(v.op)) + " " + Hex(v.a) + ", " + Hex(v.b), program, v.a,
                   v.b, Want(v.want, 4));
  }
}

TEST(SpecVectorTest, ImmediateOps) {
  for (const ImmVector& v : ImmVectors()) {
    const Emit program = WithEndLoop([&v](Assembler& as) { v.emit(as, a0, a1, v.imm); });
    ASSERT_EQ(FirstOp(program), v.op) << OpName(v.op);
    ExpectAllTiers(std::string(OpName(v.op)) + " " + Hex(v.a) + ", " + std::to_string(v.imm),
                   program, v.a, 0, Want(v.want, 4));
  }
}

// rd = x0 discards the result: x0 stays zero and no other register changes.
TEST(SpecVectorTest, ResultToX0IsDiscarded) {
  const std::vector<std::pair<const char*, Emit>> bodies = {
      {"add", [](Assembler& as) { as.Add(zero, a1, a2); }},
      {"div", [](Assembler& as) { as.Div(zero, a1, a2); }},
      {"mulh", [](Assembler& as) { as.Mulh(zero, a1, a2); }},
      {"addi", [](Assembler& as) { as.Addi(zero, a1, 7); }},
      {"sraiw", [](Assembler& as) { as.Sraiw(zero, a1, 3); }},
      {"sltu", [](Assembler& as) { as.Sltu(zero, a2, a1); }},
  };
  for (const auto& [what, body] : bodies) {
    ExpectAllTiers(std::string(what) + " x0", WithEndLoop(body), kMin, 3, Want(kSentinel, 4));
  }
}

// The constant-folding chain for an immediate op: `lui a0, 0`, then a0 built 11 bits
// at a time by ori/slli, then the op itself, all reading and writing a0 — every member
// folds into one kConstChain.
constexpr unsigned kChainLength = 13;

void EmitChain(Assembler& as, const ImmVector& v) {
  as.Lui(a0, 0);
  as.Ori(a0, a0, static_cast<int32_t>(v.a >> 55));
  for (int shift = 44; shift >= 0; shift -= 11) {
    as.Slli(a0, a0, 11);
    as.Ori(a0, a0, static_cast<int32_t>((v.a >> shift) & 0x7FF));
  }
  v.emit(as, a0, a0, v.imm);
}

TEST(SpecVectorTest, ImmediateOpsConstantFold) {
  for (const ImmVector& v : ImmVectors()) {
    const std::string what =
        std::string(OpName(v.op)) + " chain " + Hex(v.a) + ", " + std::to_string(v.imm);
    const Emit program = WithEndLoop([&v](Assembler& as) { EmitChain(as, v); });
    std::unique_ptr<Rig> rig = ExpectAllTiers(what, program, 0, 0, Want(v.want, 4 * kChainLength));
    // A folded chain retires all its members at once, so a budget of exactly its
    // length misfits and deopts. Unfolded, the members before the op would fit and
    // the op would end the run at the budget, without a deopt.
    const uint64_t deopts = rig->hart().threaded_deopts();
    rig->Run(0, 0, kChainLength);
    EXPECT_EQ(rig->hart().threaded_deopts(), deopts + 1) << what << ": the chain did not fold";
  }
}

// -- Branches. ------------------------------------------------------------------------

using BranchEmit = void (Assembler::*)(Reg, Reg, const std::string&);

struct BranchVector {
  Op op;
  BranchEmit emit;
  uint64_t a;
  uint64_t b;
  bool taken;
};

const std::vector<BranchVector>& BranchVectors() {
  using A = Assembler;
  static const std::vector<BranchVector> kVectors = {
      {Op::kBeq, &A::Beq, 1, 1, true},
      {Op::kBeq, &A::Beq, 1, 2, false},
      {Op::kBeq, &A::Beq, kMin, kMin, true},
      {Op::kBne, &A::Bne, 1, 2, true},
      {Op::kBne, &A::Bne, 1, 1, false},
      {Op::kBne, &A::Bne, kMin, kMax, true},
      {Op::kBlt, &A::Blt, N(-1), 0, true},
      {Op::kBlt, &A::Blt, 0, N(-1), false},
      {Op::kBlt, &A::Blt, 5, 5, false},
      {Op::kBlt, &A::Blt, kMin, kMax, true},
      {Op::kBge, &A::Bge, 0, N(-1), true},
      {Op::kBge, &A::Bge, N(-1), 0, false},
      {Op::kBge, &A::Bge, 5, 5, true},
      {Op::kBltu, &A::Bltu, 0, N(-1), true},
      {Op::kBltu, &A::Bltu, N(-1), 0, false},
      {Op::kBltu, &A::Bltu, 5, 5, false},
      {Op::kBgeu, &A::Bgeu, N(-1), 0, true},
      {Op::kBgeu, &A::Bgeu, 0, N(-1), false},
      {Op::kBgeu, &A::Bgeu, 5, 5, true},
  };
  return kVectors;
}

// A branch, then one self-loop for each way it can go: the pc tells which it took.
constexpr uint64_t kFallThrough = 4;
constexpr uint64_t kTaken = 8;

void EmitLandings(Assembler& as) {
  as.Bind("fall");
  as.J("fall");
  as.Bind("taken");
  as.J("taken");
}

TEST(SpecVectorTest, Branches) {
  for (const BranchVector& v : BranchVectors()) {
    const Emit program = [&v](Assembler& as) {
      (as.*v.emit)(a1, a2, "taken");
      EmitLandings(as);
    };
    ASSERT_EQ(FirstOp(program), v.op) << OpName(v.op);
    ExpectAllTiers(std::string(OpName(v.op)) + " " + Hex(v.a) + ", " + Hex(v.b), program, v.a,
                   v.b, Want(kSentinel, v.taken ? kTaken : kFallThrough));
  }
}

// slt/sltu/slti/sltiu followed by beqz/bnez on their result fuse into one lowered op;
// the compare's result stays architecturally visible.
TEST(SpecVectorTest, FusedCompareAndBranch) {
  struct Compare {
    const char* what;
    Emit emit;
    uint64_t a;
    uint64_t b;
    uint64_t want;
  };
  const Compare compares[] = {
      {"slt", [](Assembler& as) { as.Slt(a0, a1, a2); }, N(-1), 0, 1},
      {"slt", [](Assembler& as) { as.Slt(a0, a1, a2); }, 0, N(-1), 0},
      {"sltu", [](Assembler& as) { as.Sltu(a0, a1, a2); }, N(-1), 0, 0},
      {"sltu", [](Assembler& as) { as.Sltu(a0, a1, a2); }, 0, N(-1), 1},
      {"slti", [](Assembler& as) { as.Slti(a0, a1, 0); }, N(-1), 0, 1},
      {"slti", [](Assembler& as) { as.Slti(a0, a1, -3); }, 5, 0, 0},
      {"sltiu", [](Assembler& as) { as.Sltiu(a0, a1, -1); }, 0, 0, 1},
      {"sltiu", [](Assembler& as) { as.Sltiu(a0, a1, 5); }, kAll, 0, 0},
  };
  for (const Compare& c : compares) {
    for (const bool on_zero : {true, false}) {
      const std::string what = std::string(c.what) + (on_zero ? "+beqz " : "+bnez ") +
                               Hex(c.a) + ", " + Hex(c.b);
      const Emit program = [&c, on_zero](Assembler& as) {
        c.emit(as);
        if (on_zero) {
          as.Beqz(a0, "taken");
        } else {
          as.Bnez(a0, "taken");
        }
        EmitLandings(as);
      };
      const bool taken = on_zero == (c.want == 0);
      const uint64_t at = 4 + (taken ? kTaken : kFallThrough);  // one op before the branch
      std::unique_ptr<Rig> rig = ExpectAllTiers(what, program, c.a, c.b, Want(c.want, at));
      // A fused pair retires both members at once: a one-instruction budget misfits.
      const uint64_t deopts = rig->hart().threaded_deopts();
      rig->Run(c.a, c.b, 1);
      EXPECT_EQ(rig->hart().threaded_deopts(), deopts + 1) << what << ": the pair did not fuse";
    }
  }
}

// -- Loads and stores. ----------------------------------------------------------------

using MemEmit = void (Assembler::*)(Reg, Reg, int32_t);

struct MemVector {
  Op op;
  MemEmit emit;
  int32_t offset;
  End want;
};

// Stores write a2 = kStored into the two data words.
constexpr uint64_t kStored = 0x1122'3344'5566'7799;

End WantLoad(uint64_t a0) { return Want(a0, 4); }

End WantStore(uint64_t word0, uint64_t word1 = kWord1) {
  End e = Want(kSentinel, 4);
  e.word0 = word0;
  e.word1 = word1;
  return e;
}

const std::vector<MemVector>& MemVectors() {
  using A = Assembler;
  static const std::vector<MemVector> kVectors = {
      {Op::kLb, &A::Lb, 0, WantLoad(0xFFFF'FFFF'FFFF'FF88)},
      {Op::kLb, &A::Lb, 8, WantLoad(0x78)},
      {Op::kLb, &A::Lb, 7, WantLoad(0xFFFF'FFFF'FFFF'FFF1)},
      {Op::kLh, &A::Lh, 0, WantLoad(0xFFFF'FFFF'FFFF'9788)},
      {Op::kLh, &A::Lh, 8, WantLoad(0x5778)},
      {Op::kLw, &A::Lw, 0, WantLoad(0xFFFF'FFFF'B5A6'9788)},
      {Op::kLw, &A::Lw, 8, WantLoad(0x7566'5778)},
      {Op::kLw, &A::Lw, 4, WantLoad(0xFFFF'FFFF'F1E2'D3C4)},
      {Op::kLd, &A::Ld, 0, WantLoad(kWord0)},
      {Op::kLd, &A::Ld, 8, WantLoad(kWord1)},
      {Op::kLbu, &A::Lbu, 0, WantLoad(0x88)},
      {Op::kLbu, &A::Lbu, 8, WantLoad(0x78)},
      {Op::kLhu, &A::Lhu, 0, WantLoad(0x9788)},
      {Op::kLhu, &A::Lhu, 6, WantLoad(0xF1E2)},
      {Op::kLwu, &A::Lwu, 0, WantLoad(0xB5A6'9788)},
      {Op::kLwu, &A::Lwu, 4, WantLoad(0xF1E2'D3C4)},
      {Op::kSb, &A::Sb, 0, WantStore(0xF1E2'D3C4'B5A6'9799)},
      {Op::kSb, &A::Sb, 3, WantStore(0xF1E2'D3C4'99A6'9788)},
      {Op::kSh, &A::Sh, 0, WantStore(0xF1E2'D3C4'B5A6'7799)},
      {Op::kSh, &A::Sh, 10, WantStore(kWord0, 0x7162'5344'7799'5778)},
      {Op::kSw, &A::Sw, 0, WantStore(0xF1E2'D3C4'5566'7799)},
      {Op::kSw, &A::Sw, 4, WantStore(0x5566'7799'B5A6'9788)},
      {Op::kSd, &A::Sd, 0, WantStore(kStored)},
      {Op::kSd, &A::Sd, 8, WantStore(kWord0, kStored)},
  };
  return kVectors;
}

TEST(SpecVectorTest, LoadsAndStores) {
  for (const MemVector& v : MemVectors()) {
    const bool store =
        v.op == Op::kSb || v.op == Op::kSh || v.op == Op::kSw || v.op == Op::kSd;
    const Emit program =
        WithEndLoop([&v, store](Assembler& as) { (as.*v.emit)(store ? a2 : a0, a1, v.offset); });
    ASSERT_EQ(FirstOp(program), v.op) << OpName(v.op);
    ExpectAllTiers(std::string(OpName(v.op)) + " +" + std::to_string(v.offset), program, kData,
                   kStored, v.want, /*paged=*/true);
  }
  // A load into x0 reads memory and discards the value.
  ExpectAllTiers("lw x0", WithEndLoop([](Assembler& as) { as.Lw(zero, a1, 0); }), kData, 0,
                 WantLoad(kSentinel), /*paged=*/true);
}

// Every op the block tier runs inside a block, bar lui/auipc/jal/jalr (which no table
// row covers), has vectors above: a new table row needs new vectors.
TEST(SpecVectorTest, EveryTableOpHasVectors) {
  std::set<Op> covered;
  for (const RegVector& v : RegVectors()) {
    covered.insert(v.op);
  }
  for (const ImmVector& v : ImmVectors()) {
    covered.insert(v.op);
  }
  for (const BranchVector& v : BranchVectors()) {
    covered.insert(v.op);
  }
  for (const MemVector& v : MemVectors()) {
    covered.insert(v.op);
  }
  for (unsigned i = 0; i <= static_cast<unsigned>(Op::kHfenceGvma); ++i) {
    const Op op = static_cast<Op>(i);
    if (SuperblockClass(op) == SbClass::kBarrier || op == Op::kLui || op == Op::kAuipc ||
        op == Op::kJal || op == Op::kJalr) {
      continue;
    }
    EXPECT_TRUE(covered.count(op) != 0) << OpName(op) << " has no spec vectors";
  }
  EXPECT_EQ(covered.size(), 58u);
}

}  // namespace
}  // namespace vfm
