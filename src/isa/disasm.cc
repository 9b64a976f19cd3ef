#include "src/isa/disasm.h"

#include <cstdarg>
#include <cstdio>

#include "src/isa/csr.h"

namespace vfm {

const char* RegName(unsigned index) {
  static const char* kNames[32] = {
      "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
      "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
      "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
  return index < 32 ? kNames[index] : "x?";
}

namespace {

std::string Format(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* format, ...) {
  char buf[128];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

enum class Form {
  kNone,      // mnemonic only
  kRdImm,     // lui/auipc
  kRdRs1Imm,  // addi etc.
  kRdRs1Reg,  // add etc.
  kLoad,      // ld rd, imm(rs1)
  kStore,     // sd rs2, imm(rs1)
  kBranch,    // beq rs1, rs2, imm
  kJal,       // jal rd, imm
  kJalr,      // jalr rd, imm(rs1)
  kCsrReg,    // csrrw rd, csr, rs1
  kCsrImm,    // csrrwi rd, csr, zimm
  kAmo,       // amoadd.w rd, rs2, (rs1)
  kSfence,    // sfence.vma rs1, rs2
};

Form FormOf(Op op) {
  switch (op) {
    case Op::kLui:
    case Op::kAuipc:
      return Form::kRdImm;
    case Op::kJal:
      return Form::kJal;
    case Op::kJalr:
      return Form::kJalr;
#define VFM_X(name, ...) case Op::k##name:
    VFM_BRANCH_OPS(VFM_X)
      return Form::kBranch;
    VFM_LOAD_OPS(VFM_X)
      return Form::kLoad;
    VFM_STORE_OPS(VFM_X)
      return Form::kStore;
#undef VFM_X
#define VFM_X(name, form, cost, result) \
  case Op::k##name:                     \
    return Form::kRdRs1##form;
    VFM_ALU_OPS(VFM_X)
#undef VFM_X
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
      return Form::kCsrReg;
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      return Form::kCsrImm;
    case Op::kFence:
    case Op::kFenceI:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kSret:
    case Op::kMret:
    case Op::kWfi:
    case Op::kInvalid:
      return Form::kNone;
    case Op::kSfenceVma:
    case Op::kHfenceVvma:
    case Op::kHfenceGvma:
      return Form::kSfence;
    case Op::kLrW:
    case Op::kLrD:
    case Op::kScW:
    case Op::kScD:
    case Op::kAmoswapW:
    case Op::kAmoaddW:
    case Op::kAmoxorW:
    case Op::kAmoandW:
    case Op::kAmoorW:
    case Op::kAmominW:
    case Op::kAmomaxW:
    case Op::kAmominuW:
    case Op::kAmomaxuW:
    case Op::kAmoswapD:
    case Op::kAmoaddD:
    case Op::kAmoxorD:
    case Op::kAmoandD:
    case Op::kAmoorD:
    case Op::kAmominD:
    case Op::kAmomaxD:
    case Op::kAmominuD:
    case Op::kAmomaxuD:
      return Form::kAmo;
  }
  return Form::kNone;
}

}  // namespace

std::string Disassemble(const DecodedInstr& d) {
  const char* name = OpName(d.op);
  switch (FormOf(d.op)) {
    case Form::kNone:
      return name;
    case Form::kRdImm:
      return Format("%s %s, 0x%llx", name, RegName(d.rd),
                    static_cast<unsigned long long>(static_cast<uint64_t>(d.imm) >> 12));
    case Form::kRdRs1Imm:
      return Format("%s %s, %s, %lld", name, RegName(d.rd), RegName(d.rs1),
                    static_cast<long long>(d.imm));
    case Form::kRdRs1Reg:
      return Format("%s %s, %s, %s", name, RegName(d.rd), RegName(d.rs1), RegName(d.rs2));
    case Form::kLoad:
      return Format("%s %s, %lld(%s)", name, RegName(d.rd), static_cast<long long>(d.imm),
                    RegName(d.rs1));
    case Form::kStore:
      return Format("%s %s, %lld(%s)", name, RegName(d.rs2), static_cast<long long>(d.imm),
                    RegName(d.rs1));
    case Form::kBranch:
      return Format("%s %s, %s, %lld", name, RegName(d.rs1), RegName(d.rs2),
                    static_cast<long long>(d.imm));
    case Form::kJal:
      return Format("%s %s, %lld", name, RegName(d.rd), static_cast<long long>(d.imm));
    case Form::kJalr:
      return Format("%s %s, %lld(%s)", name, RegName(d.rd), static_cast<long long>(d.imm),
                    RegName(d.rs1));
    case Form::kCsrReg:
      return Format("%s %s, %s, %s", name, RegName(d.rd), CsrName(d.csr).c_str(),
                    RegName(d.rs1));
    case Form::kCsrImm:
      return Format("%s %s, %s, %u", name, RegName(d.rd), CsrName(d.csr).c_str(), d.zimm);
    case Form::kAmo:
      return Format("%s %s, %s, (%s)", name, RegName(d.rd), RegName(d.rs2), RegName(d.rs1));
    case Form::kSfence:
      return Format("%s %s, %s", name, RegName(d.rs1), RegName(d.rs2));
  }
  return name;
}

std::string Disassemble(uint32_t word) { return Disassemble(Decode(word)); }

}  // namespace vfm
