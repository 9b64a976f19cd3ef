#include "src/asm/assembler.h"

#include <cstring>

#include "src/common/bits.h"
#include "src/common/check.h"

namespace vfm {

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

void Assembler::EmitToLabel(DecodedInstr instr, const std::string& label) {
  auto it = labels_.find(label);
  if (it != labels_.end()) {
    instr.imm = static_cast<int64_t>(it->second) - static_cast<int64_t>(pc());
  } else {
    fixups_.push_back({buffer_.size(), label, FixupKind::kPcrel});
  }
  EmitOp(instr);
}

void Assembler::PatchImm(uint64_t offset, int64_t imm) {
  DecodedInstr instr = Decode(Load32(offset));
  instr.imm = imm;
  Patch32(offset, Encode(instr));
}

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
      case FixupKind::kPcrel:
        PatchImm(fixup.offset, offset);
        break;
      case FixupKind::kPcrelPair: {
        const int64_t lo =
            static_cast<int64_t>(SignExtend(static_cast<uint64_t>(offset) & 0xFFF, 12));
        const int64_t hi = (offset - lo) >> 12;
        VFM_CHECK(hi >= INT32_MIN && hi <= INT32_MAX);
        PatchImm(fixup.offset, hi * 4096);  // auipc
        PatchImm(fixup.offset + 4, lo);     // addi
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
