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

std::string Sprintf(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Sprintf(const char* format, ...) {
  char buf[128];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string Disassemble(const DecodedInstr& d) {
  const char* name = OpName(d.op);
  switch (RowOf(d.op).format) {
    case Format::kNone:
    case Format::kFence:
    case Format::kSystem:
      return name;
    case Format::kU: {
      const uint64_t field = ExtractBits(static_cast<uint64_t>(d.imm), 31, 12);
      return Sprintf("%s %s, 0x%llx", name, RegName(d.rd), static_cast<unsigned long long>(field));
    }
    case Format::kI:
    case Format::kShift:
    case Format::kShiftW:
      return Sprintf("%s %s, %s, %lld", name, RegName(d.rd), RegName(d.rs1),
                     static_cast<long long>(d.imm));
    case Format::kR:
      return Sprintf("%s %s, %s, %s", name, RegName(d.rd), RegName(d.rs1), RegName(d.rs2));
    case Format::kLoad:
      return Sprintf("%s %s, %lld(%s)", name, RegName(d.rd), static_cast<long long>(d.imm),
                     RegName(d.rs1));
    case Format::kS:
      return Sprintf("%s %s, %lld(%s)", name, RegName(d.rs2), static_cast<long long>(d.imm),
                     RegName(d.rs1));
    case Format::kB:
      return Sprintf("%s %s, %s, %lld", name, RegName(d.rs1), RegName(d.rs2),
                     static_cast<long long>(d.imm));
    case Format::kJ:
      return Sprintf("%s %s, %lld", name, RegName(d.rd), static_cast<long long>(d.imm));
    case Format::kCsr:
      return Sprintf("%s %s, %s, %s", name, RegName(d.rd), CsrName(d.csr).c_str(),
                     RegName(d.rs1));
    case Format::kCsrI:
      return Sprintf("%s %s, %s, %u", name, RegName(d.rd), CsrName(d.csr).c_str(), d.zimm);
    case Format::kAmo:
      return Sprintf("%s %s, %s, (%s)", name, RegName(d.rd), RegName(d.rs2), RegName(d.rs1));
    case Format::kLr:
      return Sprintf("%s %s, (%s)", name, RegName(d.rd), RegName(d.rs1));
    case Format::kSfence:
      return Sprintf("%s %s, %s", name, RegName(d.rs1), RegName(d.rs2));
  }
  return name;
}

std::string Disassemble(uint32_t word) { return Disassemble(Decode(word)); }

}  // namespace vfm
