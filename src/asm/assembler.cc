#include "src/asm/assembler.h"

#include <cstring>

#include "src/common/bits.h"
#include "src/common/check.h"

namespace vfm {

namespace {

constexpr uint32_t kOpLui = 0x37;
constexpr uint32_t kOpAuipc = 0x17;
constexpr uint32_t kOpJal = 0x6F;
constexpr uint32_t kOpJalr = 0x67;
constexpr uint32_t kOpBranch = 0x63;
constexpr uint32_t kOpLoad = 0x03;
constexpr uint32_t kOpStore = 0x23;
constexpr uint32_t kOpImm = 0x13;
constexpr uint32_t kOpImm32 = 0x1B;
constexpr uint32_t kOpReg = 0x33;
constexpr uint32_t kOpReg32 = 0x3B;
constexpr uint32_t kOpMiscMem = 0x0F;
constexpr uint32_t kOpSystem = 0x73;
constexpr uint32_t kOpAmo = 0x2F;

uint32_t EncodeJ(int64_t offset) {
  VFM_CHECK_MSG(offset >= -(1 << 20) && offset < (1 << 20) && (offset & 1) == 0,
                "jal offset out of range: %lld", static_cast<long long>(offset));
  const uint64_t imm = static_cast<uint64_t>(offset);
  return static_cast<uint32_t>((Bit(imm, 20) << 31) | (ExtractBits(imm, 10, 1) << 21) |
                               (Bit(imm, 11) << 20) | (ExtractBits(imm, 19, 12) << 12));
}

uint32_t EncodeB(int64_t offset) {
  VFM_CHECK_MSG(offset >= -(1 << 12) && offset < (1 << 12) && (offset & 1) == 0,
                "branch offset out of range: %lld", static_cast<long long>(offset));
  const uint64_t imm = static_cast<uint64_t>(offset);
  return static_cast<uint32_t>((Bit(imm, 12) << 31) | (ExtractBits(imm, 10, 5) << 25) |
                               (ExtractBits(imm, 4, 1) << 8) | (Bit(imm, 11) << 7));
}

}  // namespace

uint64_t Image::Symbol(const std::string& name) const {
  auto it = symbols.find(name);
  VFM_CHECK_MSG(it != symbols.end(), "undefined symbol: %s", name.c_str());
  return it->second;
}

void Assembler::Emit32(uint32_t word) {
  buffer_.push_back(static_cast<uint8_t>(word));
  buffer_.push_back(static_cast<uint8_t>(word >> 8));
  buffer_.push_back(static_cast<uint8_t>(word >> 16));
  buffer_.push_back(static_cast<uint8_t>(word >> 24));
}

void Assembler::Patch32(uint64_t offset, uint32_t word) {
  buffer_[offset] = static_cast<uint8_t>(word);
  buffer_[offset + 1] = static_cast<uint8_t>(word >> 8);
  buffer_[offset + 2] = static_cast<uint8_t>(word >> 16);
  buffer_[offset + 3] = static_cast<uint8_t>(word >> 24);
}

uint32_t Assembler::Load32(uint64_t offset) const {
  return static_cast<uint32_t>(buffer_[offset]) | (static_cast<uint32_t>(buffer_[offset + 1]) << 8) |
         (static_cast<uint32_t>(buffer_[offset + 2]) << 16) |
         (static_cast<uint32_t>(buffer_[offset + 3]) << 24);
}

void Assembler::Bind(const std::string& label) {
  if (labels_.count(label) != 0) {
    error_ = "label bound twice: " + label;
    return;
  }
  labels_[label] = pc();
}

void Assembler::Align(unsigned alignment) {
  while (!IsAligned(pc(), alignment)) {
    buffer_.push_back(0);
  }
}

void Assembler::Word32(uint32_t value) { Emit32(value); }

void Assembler::Word64(uint64_t value) {
  Emit32(static_cast<uint32_t>(value));
  Emit32(static_cast<uint32_t>(value >> 32));
}

void Assembler::Zero(uint64_t count) { buffer_.insert(buffer_.end(), count, 0); }

void Assembler::Ascii(const std::string& text) {
  buffer_.insert(buffer_.end(), text.begin(), text.end());
}

void Assembler::Asciz(const std::string& text) {
  Ascii(text);
  buffer_.push_back(0);
}

void Assembler::AddrWord(const std::string& label) {
  fixups_.push_back({buffer_.size(), label, FixupKind::kAddrWord});
  Word64(0);
}

void Assembler::EmitR(uint32_t funct7, Reg rs2, Reg rs1, uint32_t funct3, Reg rd,
                      uint32_t opcode) {
  Emit32((funct7 << 25) | (static_cast<uint32_t>(rs2) << 20) |
         (static_cast<uint32_t>(rs1) << 15) | (funct3 << 12) | (static_cast<uint32_t>(rd) << 7) |
         opcode);
}

void Assembler::EmitI(int32_t imm, Reg rs1, uint32_t funct3, Reg rd, uint32_t opcode) {
  VFM_CHECK_MSG(imm >= -2048 && imm <= 2047, "I-immediate out of range: %d", imm);
  Emit32((static_cast<uint32_t>(imm & 0xFFF) << 20) | (static_cast<uint32_t>(rs1) << 15) |
         (funct3 << 12) | (static_cast<uint32_t>(rd) << 7) | opcode);
}

void Assembler::EmitS(int32_t imm, Reg rs2, Reg rs1, uint32_t funct3, uint32_t opcode) {
  VFM_CHECK_MSG(imm >= -2048 && imm <= 2047, "S-immediate out of range: %d", imm);
  const uint32_t uimm = static_cast<uint32_t>(imm & 0xFFF);
  Emit32(((uimm >> 5) << 25) | (static_cast<uint32_t>(rs2) << 20) |
         (static_cast<uint32_t>(rs1) << 15) | (funct3 << 12) | ((uimm & 0x1F) << 7) | opcode);
}

void Assembler::EmitBranch(uint32_t funct3, Reg rs1, Reg rs2, const std::string& label) {
  const uint32_t skeleton = (static_cast<uint32_t>(rs2) << 20) |
                            (static_cast<uint32_t>(rs1) << 15) | (funct3 << 12) | kOpBranch;
  auto it = labels_.find(label);
  if (it != labels_.end()) {
    Emit32(skeleton | EncodeB(static_cast<int64_t>(it->second) - static_cast<int64_t>(pc())));
  } else {
    fixups_.push_back({buffer_.size(), label, FixupKind::kBranch});
    Emit32(skeleton);
  }
}

void Assembler::Lui(Reg rd, int32_t imm20) {
  Emit32((static_cast<uint32_t>(imm20) << 12) | (static_cast<uint32_t>(rd) << 7) | kOpLui);
}

void Assembler::Auipc(Reg rd, int32_t imm20) {
  Emit32((static_cast<uint32_t>(imm20) << 12) | (static_cast<uint32_t>(rd) << 7) | kOpAuipc);
}

void Assembler::Jal(Reg rd, const std::string& label) {
  const uint32_t skeleton = (static_cast<uint32_t>(rd) << 7) | kOpJal;
  auto it = labels_.find(label);
  if (it != labels_.end()) {
    Emit32(skeleton | EncodeJ(static_cast<int64_t>(it->second) - static_cast<int64_t>(pc())));
  } else {
    fixups_.push_back({buffer_.size(), label, FixupKind::kJal});
    Emit32(skeleton);
  }
}

void Assembler::Jalr(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 0, rd, kOpJalr); }

void Assembler::Beq(Reg rs1, Reg rs2, const std::string& l) { EmitBranch(0, rs1, rs2, l); }
void Assembler::Bne(Reg rs1, Reg rs2, const std::string& l) { EmitBranch(1, rs1, rs2, l); }
void Assembler::Blt(Reg rs1, Reg rs2, const std::string& l) { EmitBranch(4, rs1, rs2, l); }
void Assembler::Bge(Reg rs1, Reg rs2, const std::string& l) { EmitBranch(5, rs1, rs2, l); }
void Assembler::Bltu(Reg rs1, Reg rs2, const std::string& l) { EmitBranch(6, rs1, rs2, l); }
void Assembler::Bgeu(Reg rs1, Reg rs2, const std::string& l) { EmitBranch(7, rs1, rs2, l); }

void Assembler::Lb(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 0, rd, kOpLoad); }
void Assembler::Lh(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 1, rd, kOpLoad); }
void Assembler::Lw(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 2, rd, kOpLoad); }
void Assembler::Ld(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 3, rd, kOpLoad); }
void Assembler::Lbu(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 4, rd, kOpLoad); }
void Assembler::Lhu(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 5, rd, kOpLoad); }
void Assembler::Lwu(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 6, rd, kOpLoad); }

void Assembler::Sb(Reg rs2, Reg rs1, int32_t imm) { EmitS(imm, rs2, rs1, 0, kOpStore); }
void Assembler::Sh(Reg rs2, Reg rs1, int32_t imm) { EmitS(imm, rs2, rs1, 1, kOpStore); }
void Assembler::Sw(Reg rs2, Reg rs1, int32_t imm) { EmitS(imm, rs2, rs1, 2, kOpStore); }
void Assembler::Sd(Reg rs2, Reg rs1, int32_t imm) { EmitS(imm, rs2, rs1, 3, kOpStore); }

void Assembler::Addi(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 0, rd, kOpImm); }
void Assembler::Slti(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 2, rd, kOpImm); }
void Assembler::Sltiu(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 3, rd, kOpImm); }
void Assembler::Xori(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 4, rd, kOpImm); }
void Assembler::Ori(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 6, rd, kOpImm); }
void Assembler::Andi(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 7, rd, kOpImm); }

void Assembler::Slli(Reg rd, Reg rs1, unsigned shamt) {
  VFM_CHECK(shamt < 64);
  EmitI(static_cast<int32_t>(shamt), rs1, 1, rd, kOpImm);
}
void Assembler::Srli(Reg rd, Reg rs1, unsigned shamt) {
  VFM_CHECK(shamt < 64);
  EmitI(static_cast<int32_t>(shamt), rs1, 5, rd, kOpImm);
}
void Assembler::Srai(Reg rd, Reg rs1, unsigned shamt) {
  VFM_CHECK(shamt < 64);
  EmitI(static_cast<int32_t>(shamt | 0x400), rs1, 5, rd, kOpImm);
}

void Assembler::Add(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 0, rd, kOpReg); }
void Assembler::Sub(Reg rd, Reg rs1, Reg rs2) { EmitR(0x20, rs2, rs1, 0, rd, kOpReg); }
void Assembler::Sll(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 1, rd, kOpReg); }
void Assembler::Slt(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 2, rd, kOpReg); }
void Assembler::Sltu(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 3, rd, kOpReg); }
void Assembler::Xor(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 4, rd, kOpReg); }
void Assembler::Srl(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 5, rd, kOpReg); }
void Assembler::Sra(Reg rd, Reg rs1, Reg rs2) { EmitR(0x20, rs2, rs1, 5, rd, kOpReg); }
void Assembler::Or(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 6, rd, kOpReg); }
void Assembler::And(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 7, rd, kOpReg); }

void Assembler::Addiw(Reg rd, Reg rs1, int32_t imm) { EmitI(imm, rs1, 0, rd, kOpImm32); }
void Assembler::Addw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 0, rd, kOpReg32); }
void Assembler::Subw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x20, rs2, rs1, 0, rd, kOpReg32); }
void Assembler::Slliw(Reg rd, Reg rs1, unsigned shamt) {
  VFM_CHECK(shamt < 32);
  EmitI(static_cast<int32_t>(shamt), rs1, 1, rd, kOpImm32);
}
void Assembler::Srliw(Reg rd, Reg rs1, unsigned shamt) {
  VFM_CHECK(shamt < 32);
  EmitI(static_cast<int32_t>(shamt), rs1, 5, rd, kOpImm32);
}
void Assembler::Sraiw(Reg rd, Reg rs1, unsigned shamt) {
  VFM_CHECK(shamt < 32);
  EmitI(static_cast<int32_t>(shamt | 0x400), rs1, 5, rd, kOpImm32);
}
void Assembler::Sllw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 1, rd, kOpReg32); }
void Assembler::Srlw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x00, rs2, rs1, 5, rd, kOpReg32); }
void Assembler::Sraw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x20, rs2, rs1, 5, rd, kOpReg32); }

void Assembler::Fence() { Emit32((0x0FF << 20) | kOpMiscMem); }
void Assembler::FenceI() { Emit32((1 << 12) | kOpMiscMem); }
void Assembler::Ecall() { Emit32(kOpSystem); }
void Assembler::Ebreak() { Emit32((1 << 20) | kOpSystem); }

void Assembler::Mul(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 0, rd, kOpReg); }
void Assembler::Mulh(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 1, rd, kOpReg); }
void Assembler::Mulhsu(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 2, rd, kOpReg); }
void Assembler::Mulhu(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 3, rd, kOpReg); }
void Assembler::Div(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 4, rd, kOpReg); }
void Assembler::Divu(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 5, rd, kOpReg); }
void Assembler::Rem(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 6, rd, kOpReg); }
void Assembler::Remu(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 7, rd, kOpReg); }
void Assembler::Mulw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 0, rd, kOpReg32); }
void Assembler::Divw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 4, rd, kOpReg32); }
void Assembler::Divuw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 5, rd, kOpReg32); }
void Assembler::Remw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 6, rd, kOpReg32); }
void Assembler::Remuw(Reg rd, Reg rs1, Reg rs2) { EmitR(0x01, rs2, rs1, 7, rd, kOpReg32); }

void Assembler::LrW(Reg rd, Reg rs1) { EmitR(0x02 << 2, zero, rs1, 2, rd, kOpAmo); }
void Assembler::ScW(Reg rd, Reg rs2, Reg rs1) { EmitR(0x03 << 2, rs2, rs1, 2, rd, kOpAmo); }
void Assembler::AmoswapW(Reg rd, Reg rs2, Reg rs1) { EmitR(0x01 << 2, rs2, rs1, 2, rd, kOpAmo); }
void Assembler::AmoaddW(Reg rd, Reg rs2, Reg rs1) { EmitR(0x00 << 2, rs2, rs1, 2, rd, kOpAmo); }
void Assembler::AmoaddD(Reg rd, Reg rs2, Reg rs1) { EmitR(0x00 << 2, rs2, rs1, 3, rd, kOpAmo); }
void Assembler::AmoswapD(Reg rd, Reg rs2, Reg rs1) { EmitR(0x01 << 2, rs2, rs1, 3, rd, kOpAmo); }

void Assembler::Csrrw(Reg rd, uint16_t csr, Reg rs1) {
  Emit32((static_cast<uint32_t>(csr) << 20) | (static_cast<uint32_t>(rs1) << 15) | (1 << 12) |
         (static_cast<uint32_t>(rd) << 7) | kOpSystem);
}
void Assembler::Csrrs(Reg rd, uint16_t csr, Reg rs1) {
  Emit32((static_cast<uint32_t>(csr) << 20) | (static_cast<uint32_t>(rs1) << 15) | (2 << 12) |
         (static_cast<uint32_t>(rd) << 7) | kOpSystem);
}
void Assembler::Csrrc(Reg rd, uint16_t csr, Reg rs1) {
  Emit32((static_cast<uint32_t>(csr) << 20) | (static_cast<uint32_t>(rs1) << 15) | (3 << 12) |
         (static_cast<uint32_t>(rd) << 7) | kOpSystem);
}
void Assembler::Csrrwi(Reg rd, uint16_t csr, uint8_t zimm) {
  Emit32((static_cast<uint32_t>(csr) << 20) | (static_cast<uint32_t>(zimm & 0x1F) << 15) |
         (5 << 12) | (static_cast<uint32_t>(rd) << 7) | kOpSystem);
}
void Assembler::Csrrsi(Reg rd, uint16_t csr, uint8_t zimm) {
  Emit32((static_cast<uint32_t>(csr) << 20) | (static_cast<uint32_t>(zimm & 0x1F) << 15) |
         (6 << 12) | (static_cast<uint32_t>(rd) << 7) | kOpSystem);
}
void Assembler::Csrrci(Reg rd, uint16_t csr, uint8_t zimm) {
  Emit32((static_cast<uint32_t>(csr) << 20) | (static_cast<uint32_t>(zimm & 0x1F) << 15) |
         (7 << 12) | (static_cast<uint32_t>(rd) << 7) | kOpSystem);
}

void Assembler::Sret() { Emit32((0x08u << 25) | (2u << 20) | kOpSystem); }
void Assembler::Mret() { Emit32((0x18u << 25) | (2u << 20) | kOpSystem); }
void Assembler::Wfi() { Emit32((0x08u << 25) | (5u << 20) | kOpSystem); }
void Assembler::SfenceVma() { Emit32(0x09u << 25 | kOpSystem); }

void Assembler::Li(Reg rd, uint64_t value) {
  const int64_t v = static_cast<int64_t>(value);
  if (v >= -2048 && v <= 2047) {
    Addi(rd, zero, static_cast<int32_t>(v));
    return;
  }
  if (v >= INT32_MIN && v <= INT32_MAX) {
    const int32_t lo = static_cast<int32_t>(SignExtend(value & 0xFFF, 12));
    const int32_t hi = static_cast<int32_t>((static_cast<int64_t>(v) - lo) >> 12);
    Lui(rd, hi);
    if (lo != 0) {
      Addiw(rd, rd, lo);
    }
    return;
  }
  // General 64-bit case: materialize the upper bits, shift, add the low 12 bits.
  const int64_t lo = static_cast<int64_t>(SignExtend(value & 0xFFF, 12));
  // Subtract in unsigned arithmetic: v - lo can overflow int64 (e.g. INT64_MAX - -1).
  const uint64_t hi = (value - static_cast<uint64_t>(lo)) >> 12;
  Li(rd, SignExtend(hi, 52));
  Slli(rd, rd, 12);
  if (lo != 0) {
    Addi(rd, rd, static_cast<int32_t>(lo));
  }
}

void Assembler::La(Reg rd, const std::string& label) {
  auto it = labels_.find(label);
  if (it != labels_.end()) {
    const int64_t offset = static_cast<int64_t>(it->second) - static_cast<int64_t>(pc());
    const int64_t lo = static_cast<int64_t>(SignExtend(static_cast<uint64_t>(offset) & 0xFFF, 12));
    const int32_t hi = static_cast<int32_t>((offset - lo) >> 12);
    Auipc(rd, hi);
    Addi(rd, rd, static_cast<int32_t>(lo));
    return;
  }
  fixups_.push_back({buffer_.size(), label, FixupKind::kPcrelPair});
  Auipc(rd, 0);
  Addi(rd, rd, 0);
}

Result<Image> Assembler::Finish() {
  if (!error_.empty()) {
    return Result<Image>::Error(error_);
  }
  for (const Fixup& fixup : fixups_) {
    auto it = labels_.find(fixup.label);
    if (it == labels_.end()) {
      return Result<Image>::Error("undefined label: " + fixup.label);
    }
    const uint64_t target = it->second;
    const uint64_t insn_addr = base_ + fixup.offset;
    const int64_t offset = static_cast<int64_t>(target) - static_cast<int64_t>(insn_addr);
    switch (fixup.kind) {
      case FixupKind::kBranch:
        Patch32(fixup.offset, Load32(fixup.offset) | EncodeB(offset));
        break;
      case FixupKind::kJal:
        Patch32(fixup.offset, Load32(fixup.offset) | EncodeJ(offset));
        break;
      case FixupKind::kPcrelPair: {
        const int64_t lo =
            static_cast<int64_t>(SignExtend(static_cast<uint64_t>(offset) & 0xFFF, 12));
        const int64_t hi = (offset - lo) >> 12;
        VFM_CHECK(hi >= INT32_MIN && hi <= INT32_MAX);
        Patch32(fixup.offset,
                Load32(fixup.offset) | (static_cast<uint32_t>(static_cast<int32_t>(hi)) << 12));
        const uint32_t addi = Load32(fixup.offset + 4);
        Patch32(fixup.offset + 4, addi | (static_cast<uint32_t>(lo & 0xFFF) << 20));
        break;
      }
      case FixupKind::kAddrWord: {
        buffer_[fixup.offset] = static_cast<uint8_t>(target);
        for (unsigned i = 1; i < 8; ++i) {
          buffer_[fixup.offset + i] = static_cast<uint8_t>(target >> (8 * i));
        }
        break;
      }
    }
  }
  Image image;
  image.base = base_;
  image.bytes = buffer_;
  image.symbols = labels_;
  image.entry = image.SymbolOr("_start", base_);
  return image;
}

}  // namespace vfm
