#include "src/cosim/program.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/common/rng.h"
#include "src/isa/csr.h"
#include "src/isa/priv.h"

namespace vfm {
namespace {

// Device addresses mirror the default MemoryMap (src/sim/machine.h); the lockstep
// engine builds its machines with that map (only ram_size is shrunk).
constexpr uint64_t kClintBase = 0x200'0000;
constexpr uint64_t kClintMtime = kClintBase + 0xBFF8;
constexpr uint64_t kClintMtimecmp = kClintBase + 0x4000;
constexpr uint64_t kUartBase = 0x1000'0000;
constexpr uint64_t kFinisherBase = 0x10'0000;

// Sv39 PTE flag bits.
constexpr uint64_t kPteV = 1, kPteR = 2, kPteW = 4, kPteX = 8, kPteU = 16;
constexpr uint64_t kPteA = 64, kPteD = 128;

// Registers generated code may freely clobber. Reserved and excluded:
//   x0 zero, x1 ra, x2 sp, x4 tp  — conventions / never used;
//   x3 gp                         — per-hart save-area pointer (the trap handlers
//                                   depend on it being valid at all times);
//   x27 s11                       — loop counter of kLoop actions;
//   x30 t5, x31 t6                — M-handler scratch. The handler saves and
//                                   restores them, but keeping them out of the pool
//                                   means a handler bug cannot masquerade as
//                                   generated-program state.
constexpr Reg kPool[] = {t0, t1, t2, s0, s1, a0, a1, a2, a3, a4, a5, a6,
                         a7, s2, s3, s4, s5, s6, s7, s8, s9, s10, t3, t4};
constexpr unsigned kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

Reg PickReg(Rng& rng) { return kPool[rng.NextBelow(kPoolSize)]; }

// addi rd, rd, imm, with imm wrapped to its 12-bit field.
uint32_t EncodeAddi(unsigned rd, int32_t imm) {
  const auto imm12 = static_cast<int64_t>(SignExtend(static_cast<uint64_t>(imm) & 0xFFF, 12));
  return Encode({.op = Op::kAddi,
                 .rd = static_cast<uint8_t>(rd),
                 .rs1 = static_cast<uint8_t>(rd),
                 .imm = imm12});
}

// Clamps generated CSR-write values so programs stay productive: interrupts the
// handlers cannot clear are never delegated or set, ecalls always reach M-mode (the
// escalation semantic the mode tracking relies on), the machine timer interrupt stays
// enabled, and TVM/TSR stay clear so S-mode satp/sfence/sret behave as the generator
// assumes. Everything else — including MPRV, SUM, MXR, MIE/SIE, delegation of every
// fault cause — is fuzzed freely.
uint64_t AdjustCsrValue(uint16_t csr, uint64_t v) {
  switch (csr) {
    case kCsrMie:
      return (v & 0xAAA) | 0x80;  // MTIE always on; M/S enable bits random
    case kCsrSie:
      return v & 0x222;
    case kCsrMip:
    case kCsrSip:
      return v & 0x2;  // SSIP only: both handlers can clear it
    case kCsrMideleg:
      return v & 0x2;  // delegating STIP/SEIP would starve the S handler
    case kCsrMedeleg:
      return v & 0xB0FF;  // all fault causes; never ecall-from-U/S (bits 8, 9)
    case kCsrMstatus:
      return v & ~((uint64_t{1} << MstatusBits::kTvm) | (uint64_t{1} << MstatusBits::kTsr));
    default:
      return v;
  }
}

// CSR targets per generation-time privilege. Inaccessible entries are kept in the
// lower-privilege lists on purpose: they trap, the handler skips, and the trap itself
// is part of the compared behaviour.
const uint16_t kCsrWriteM[] = {kCsrMscratch, kCsrMepc,  kCsrMcause, kCsrMtval,   kCsrMstatus,
                               kCsrMie,      kCsrMip,   kCsrMideleg, kCsrMedeleg, kCsrSscratch,
                               kCsrSepc,     kCsrScause, kCsrStval,  kCsrSstatus, kCsrSie,
                               kCsrSip,      kCsrScounteren, kCsrMcounteren, kCsrMenvcfg,
                               kCsrSenvcfg};
const uint16_t kCsrWriteS[] = {kCsrSscratch, kCsrSepc, kCsrScause,     kCsrStval,  kCsrSstatus,
                               kCsrSie,      kCsrSip,  kCsrScounteren, kCsrSenvcfg,
                               kCsrMscratch /* traps */, kCsrMstatus /* traps */};
const uint16_t kCsrWriteU[] = {kCsrSscratch /* traps */, kCsrMstatus /* traps */};
const uint16_t kCsrReadAny[] = {kCsrMhartid, kCsrMvendorid, kCsrMisa,   kCsrTime,
                                kCsrCycle,   kCsrInstret,   kCsrMstatus, kCsrMip};
const uint16_t kCsrReadSU[] = {kCsrTime, kCsrCycle, kCsrInstret, kCsrSstatus, kCsrSip};

template <size_t N>
uint16_t PickFrom(Rng& rng, const uint16_t (&list)[N]) {
  return list[rng.NextBelow(N)];
}

// A data-region virtual address valid (or deliberately faulting) for the assumed
// context, with optional misalignment.
uint64_t PickDataAddr(Rng& rng, PrivMode mode, bool paged, unsigned size) {
  uint64_t off = rng.NextBelow(CosimLayout::kDataSize - 16) & ~uint64_t{7};
  uint64_t base = CosimLayout::kDataPhys;
  switch (mode) {
    case PrivMode::kMachine:
      // The paged window from M is bare phys 0xC000'0000: unmapped, a guaranteed
      // access fault the handler skips. Keep it rare.
      base = (paged && rng.Chance(1, 10)) ? CosimLayout::kDataVaddr : CosimLayout::kDataPhys;
      break;
    case PrivMode::kSupervisor:
      base = (paged && rng.Chance(2, 5)) ? CosimLayout::kDataVaddr : CosimLayout::kDataPhys;
      break;
    case PrivMode::kUser:
      if (paged) {
        base = rng.Chance(2, 5) ? (CosimLayout::kUserAlias + 0x10'0000)
                                : CosimLayout::kDataVaddr;
      } else {
        base = CosimLayout::kDataPhys;
      }
      break;
  }
  if (size > 1 && rng.Chance(1, 5)) {
    off += rng.NextInRange(1, size - 1);  // misaligned: traps, firmware-style skip
  }
  return base + off;
}

Action MakeAction(Rng& rng, PrivMode& mode, bool& paged, unsigned& wfi_left,
                  const GenOptions& opts, bool in_loop);

Action MakeLoop(Rng& rng, PrivMode& mode, bool& paged, unsigned& wfi_left,
                const GenOptions& opts) {
  Action act;
  act.kind = ActionKind::kLoop;
  act.a = rng.NextInRange(2, 8);  // iteration count in s11
  const unsigned body = static_cast<unsigned>(rng.NextInRange(2, 5));
  for (unsigned i = 0; i < body; ++i) {
    act.body.push_back(MakeAction(rng, mode, paged, wfi_left, opts, /*in_loop=*/true));
  }
  return act;
}

Action MakeAction(Rng& rng, PrivMode& mode, bool& paged, unsigned& wfi_left,
                  const GenOptions& opts, bool in_loop) {
  Action act;
  act.mode_hint = static_cast<uint8_t>(mode);
  act.paged_hint = paged;
  act.rd = static_cast<uint8_t>(PickReg(rng));
  act.ra = static_cast<uint8_t>(PickReg(rng));
  act.rb = static_cast<uint8_t>(PickReg(rng));

  // Weighted kind choice. Loop bodies are restricted to straight-line kinds so any
  // subset of top-level actions still assembles (labels stay action-local).
  struct Choice {
    ActionKind kind;
    unsigned weight;
  };
  Choice table[16];
  unsigned n = 0, total = 0;
  auto add = [&](ActionKind k, unsigned w) {
    if (w == 0) {
      return;
    }
    table[n++] = {k, w};
    total += w;
  };
  if (in_loop) {
    add(ActionKind::kAlu, 10);
    add(ActionKind::kLoadStore, 8);
    add(ActionKind::kAmo, 3);
    add(ActionKind::kUartPutc, 2);
  } else {
    add(ActionKind::kAlu, 18);
    add(ActionKind::kLoadStore, 14);
    add(ActionKind::kCsrOp, 14);
    add(ActionKind::kPmpWrite, mode == PrivMode::kMachine ? 6 : 1);
    add(ActionKind::kSatpSwitch, mode != PrivMode::kUser ? 5 : 0);
    add(ActionKind::kModeSwitch, 8);
    add(ActionKind::kTrapOp, 5);
    add(ActionKind::kFenceOp, 5);
    add(ActionKind::kSelfModify, 4);
    add(ActionKind::kTimer, 7);
    add(ActionKind::kLoop, 5);
    add(ActionKind::kAmo, 4);
    add(ActionKind::kUartPutc, 3);
  }
  uint64_t pick = rng.NextBelow(total);
  ActionKind kind = table[0].kind;
  for (unsigned i = 0; i < n; ++i) {
    if (pick < table[i].weight) {
      kind = table[i].kind;
      break;
    }
    pick -= table[i].weight;
  }
  act.kind = kind;

  switch (kind) {
    case ActionKind::kAlu:
      act.sub = static_cast<uint8_t>(rng.NextBelow(13));
      act.a = act.sub == 12 ? rng.NextAdversarial() : (rng.Next() & 0xFFF);
      break;

    case ActionKind::kLoadStore: {
      const unsigned size_log = static_cast<unsigned>(rng.NextBelow(4));
      const bool is_store = rng.Chance(1, 2);
      const bool is_unsigned = rng.Chance(1, 2);
      act.sub = static_cast<uint8_t>((is_store ? 0x10 : 0) | (size_log << 1) |
                                     (is_unsigned ? 1 : 0));
      act.a = PickDataAddr(rng, mode, paged, 1u << size_log);
      break;
    }

    case ActionKind::kCsrOp: {
      static const uint8_t kFunct3[] = {1, 2, 3, 5, 6, 7};
      act.sub = kFunct3[rng.NextBelow(6)];
      const bool read_only = rng.Chance(1, 4);
      if (read_only) {
        act.csr = mode == PrivMode::kMachine ? PickFrom(rng, kCsrReadAny)
                                             : PickFrom(rng, kCsrReadSU);
        act.sub = 2;  // csrrs rd, csr, x0: a pure read
        act.a = 0;
        act.ra = 0;
      } else {
        switch (mode) {
          case PrivMode::kMachine:
            act.csr = PickFrom(rng, kCsrWriteM);
            break;
          case PrivMode::kSupervisor:
            act.csr = PickFrom(rng, kCsrWriteS);
            break;
          case PrivMode::kUser:
            act.csr = PickFrom(rng, kCsrWriteU);
            break;
        }
        act.a = act.sub >= 5 ? rng.NextBelow(32)  // zimm for immediate forms
                             : AdjustCsrValue(act.csr, rng.NextAdversarial());
      }
      break;
    }

    case ActionKind::kPmpWrite:
      if (rng.Chance(1, 2)) {
        act.sub = 0;  // pmpaddr[j], j in 0..6 (entry 7 is the catch-all, never touched)
        act.csr = CsrPmpaddr(static_cast<unsigned>(rng.NextBelow(7)));
        if (rng.Chance(1, 2)) {
          act.a = rng.NextAdversarial();
        } else {
          // A NAPOT-ish range around RAM or a device, so entries actually match.
          const uint64_t bases[] = {CosimLayout::kRamBase, CosimLayout::kDataPhys,
                                    kClintBase, kUartBase, kFinisherBase};
          const uint64_t base = bases[rng.NextBelow(5)];
          const unsigned bits = static_cast<unsigned>(rng.NextInRange(10, 21));
          act.a = (base >> 2) | (((uint64_t{1} << (bits - 2)) - 1) >> 1);
        }
      } else {
        act.sub = 1;  // pmpcfg0, byte 7 pinned to the catch-all, L bits never set
        uint64_t value = 0;
        for (unsigned byte = 0; byte < 7; ++byte) {
          uint8_t cfg = rng.Chance(7, 10) ? static_cast<uint8_t>(0x07 | (rng.NextBelow(4) << 3))
                                          : static_cast<uint8_t>(rng.Next() & 0x7F);
          value |= static_cast<uint64_t>(cfg) << (8 * byte);
        }
        value |= uint64_t{0x1F} << 56;
        act.csr = kCsrPmpcfg0;
        act.a = value;
      }
      break;

    case ActionKind::kSatpSwitch: {
      const bool on = rng.Chance(3, 5);
      if (on) {
        act.a = (uint64_t{8} << 60) | (CosimLayout::kPtRoot >> 12);
        if (rng.Chance(1, 4)) {
          act.a |= (rng.Next() & 0xFFFF) << 44;  // random ASID, WARL-legalized
        }
      } else {
        act.a = 0;
      }
      paged = on;
      break;
    }

    case ActionKind::kModeSwitch: {
      unsigned subs[3];
      unsigned count = 0;
      switch (mode) {
        case PrivMode::kMachine:
          subs[count++] = 0;  // mret -> S
          subs[count++] = 1;  // mret -> U
          break;
        case PrivMode::kSupervisor:
          subs[count++] = 2;  // sret -> U
          break;
        case PrivMode::kUser:
          break;
      }
      subs[count++] = 3;  // ecall: escalate to M from anywhere
      act.sub = static_cast<uint8_t>(subs[rng.NextBelow(count)]);
      switch (act.sub) {
        case 0:
          mode = PrivMode::kSupervisor;
          break;
        case 1:
        case 2:
          // U-mode runs at the alias window when paged (the identity window is U=0).
          act.b = paged ? 1 : 0;
          mode = PrivMode::kUser;
          break;
        case 3:
          mode = PrivMode::kMachine;
          break;
      }
      break;
    }

    case ActionKind::kTrapOp:
      act.sub = static_cast<uint8_t>(rng.NextBelow(3));
      act.csr = 0x5C0;  // sub 2: an unimplemented CSR, a guaranteed illegal instruction
      break;

    case ActionKind::kFenceOp:
      act.sub = static_cast<uint8_t>(rng.NextBelow(4));
      act.a = rng.Chance(1, 2) ? CosimLayout::kDataVaddr + (rng.Next() & 0xF000)
                               : CosimLayout::kDataPhys + (rng.Next() & 0xF000);
      break;

    case ActionKind::kSelfModify:
      // Patched instruction: addi rd, ra, imm — harmless, visibly changes rd.
      act.b = static_cast<int32_t>(rng.Next() & 0x7FF);
      // Sub 1 is the hot-patch variant (the store executes inside a warm, lowered
      // block). Derived from the already-drawn register picks rather than
      // a fresh rng call, so the action stream of existing seed files is unchanged.
      act.sub = static_cast<uint8_t>((act.rd ^ act.ra) & 1);
      break;

    case ActionKind::kTimer: {
      unsigned subs[5];
      unsigned count = 0;
      subs[count++] = 0;  // arm mtimecmp[0]
      if (opts.harts > 1) {
        subs[count++] = 1;  // IPI hart 1
      }
      subs[count++] = 2;  // self-IPI
      subs[count++] = 3;  // SSIP injection
      if (wfi_left > 0 && mode != PrivMode::kUser) {
        subs[count++] = 4;  // arm + wfi
      }
      act.sub = static_cast<uint8_t>(subs[rng.NextBelow(count)]);
      act.a = act.sub == 4 ? rng.NextInRange(300, 1200) : rng.NextInRange(200, 2000);
      if (act.sub == 4) {
        --wfi_left;
      }
      break;
    }

    case ActionKind::kLoop:
      return MakeLoop(rng, mode, paged, wfi_left, opts);

    case ActionKind::kAmo: {
      act.sub = static_cast<uint8_t>(rng.NextBelow(4));
      const unsigned align = act.sub == 0 ? 8 : 4;
      act.a = (PickDataAddr(rng, mode, paged, align) & ~uint64_t{align - 1});
      if (rng.Chance(1, 10)) {
        act.a += 2;  // misaligned AMO: always a trap
      }
      break;
    }

    case ActionKind::kUartPutc:
      act.a = static_cast<uint64_t>('A' + rng.NextBelow(26));
      break;
  }
  return act;
}

// ---- Emission. ---------------------------------------------------------------------

std::string Lbl(unsigned idx, const char* tag) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "a%u_%s", idx, tag);
  return buf;
}

void EmitAction(Assembler& a, const Action& act, unsigned idx, unsigned depth);

void EmitLoadStore(Assembler& a, const Action& act) {
  const Reg addr = static_cast<Reg>(act.ra);
  const Reg val = static_cast<Reg>(act.rd);
  const bool is_store = (act.sub & 0x10) != 0;
  const unsigned size_log = (act.sub >> 1) & 3;
  const bool uns = (act.sub & 1) != 0;
  a.Li(addr, act.a);
  if (is_store) {
    switch (size_log) {
      case 0: a.Sb(val, addr, 0); break;
      case 1: a.Sh(val, addr, 0); break;
      case 2: a.Sw(val, addr, 0); break;
      default: a.Sd(val, addr, 0); break;
    }
  } else {
    switch (size_log) {
      case 0: uns ? a.Lbu(val, addr, 0) : a.Lb(val, addr, 0); break;
      case 1: uns ? a.Lhu(val, addr, 0) : a.Lh(val, addr, 0); break;
      case 2: uns ? a.Lwu(val, addr, 0) : a.Lw(val, addr, 0); break;
      default: a.Ld(val, addr, 0); break;
    }
  }
}

void EmitAlu(Assembler& a, const Action& act) {
  const Reg rd = static_cast<Reg>(act.rd);
  const Reg ra = static_cast<Reg>(act.ra);
  const Reg rb = static_cast<Reg>(act.rb);
  const int32_t imm = static_cast<int32_t>(act.a & 0x7FF);
  switch (act.sub) {
    case 0: a.Add(rd, ra, rb); break;
    case 1: a.Sub(rd, ra, rb); break;
    case 2: a.Xor(rd, ra, rb); break;
    case 3: a.Or(rd, ra, rb); break;
    case 4: a.And(rd, ra, rb); break;
    case 5: a.Sll(rd, ra, rb); break;
    case 6: a.Srl(rd, ra, rb); break;
    case 7: a.Mul(rd, ra, rb); break;
    case 8: a.Divu(rd, ra, rb); break;
    case 9: a.Rem(rd, ra, rb); break;
    case 10: a.Addw(rd, ra, rb); break;
    case 11: a.Addi(rd, ra, imm); break;
    default: a.Li(rd, act.a); break;
  }
}

void EmitCsrOp(Assembler& a, const Action& act) {
  const Reg rd = static_cast<Reg>(act.rd);
  const Reg rs = static_cast<Reg>(act.ra);
  if (act.sub >= 5) {
    const uint8_t zimm = static_cast<uint8_t>(act.a & 0x1F);
    switch (act.sub) {
      case 5: a.Csrrwi(rd, act.csr, zimm); break;
      case 6: a.Csrrsi(rd, act.csr, zimm); break;
      default: a.Csrrci(rd, act.csr, zimm); break;
    }
    return;
  }
  if (rs != zero) {
    a.Li(rs, act.a);
  }
  switch (act.sub) {
    case 1: a.Csrrw(rd, act.csr, rs); break;
    case 2: a.Csrrs(rd, act.csr, rs); break;
    default: a.Csrrc(rd, act.csr, rs); break;
  }
}

void EmitModeSwitch(Assembler& a, const Action& act, unsigned idx, unsigned depth) {
  const Reg rA = static_cast<Reg>(act.ra);
  const Reg rB = static_cast<Reg>(act.rb);
  const std::string cont = Lbl(idx, depth == 0 ? "cont" : "lcont");
  switch (act.sub) {
    case 0:  // M -> S
      a.La(rA, cont);
      a.Csrw(kCsrMepc, rA);
      a.Li(rA, uint64_t{3} << MstatusBits::kMppLo);
      a.Csrc(kCsrMstatus, rA);
      a.Li(rA, uint64_t{1} << MstatusBits::kMppLo);
      a.Csrs(kCsrMstatus, rA);
      a.Mret();
      break;
    case 1:  // M -> U (at the alias window when paged)
      a.La(rA, cont);
      if (act.b != 0) {
        a.Li(rB, CosimLayout::kAliasOffset);
        a.Add(rA, rA, rB);
      }
      a.Csrw(kCsrMepc, rA);
      a.Li(rA, uint64_t{3} << MstatusBits::kMppLo);
      a.Csrc(kCsrMstatus, rA);
      a.Mret();
      break;
    case 2:  // S -> U
      a.La(rA, cont);
      if (act.b != 0) {
        a.Li(rB, CosimLayout::kAliasOffset);
        a.Add(rA, rA, rB);
      }
      a.Csrw(kCsrSepc, rA);
      a.Li(rA, uint64_t{1} << MstatusBits::kSpp);
      a.Csrc(kCsrSstatus, rA);
      a.Sret();
      break;
    default:  // any -> M: the handler bumps MPP to M on ecall-from-U/S
      a.Ecall();
      break;
  }
  a.Bind(cont);
}

void EmitTimer(Assembler& a, const Action& act) {
  const Reg rA = static_cast<Reg>(act.ra);
  const Reg rB = static_cast<Reg>(act.rb);
  switch (act.sub) {
    case 0:  // arm mtimecmp[0] = mtime + delta
    case 4:
      a.Li(rA, kClintMtime);
      a.Ld(rB, rA, 0);
      a.Addi(rB, rB, static_cast<int32_t>(act.a));
      a.Li(rA, kClintMtimecmp);
      a.Sd(rB, rA, 0);
      if (act.sub == 4) {
        a.Wfi();
      }
      break;
    case 1:  // IPI to hart 1
      a.Li(rA, kClintBase + 4);
      a.Li(rB, 1);
      a.Sw(rB, rA, 0);
      break;
    case 2:  // self-IPI (fires once MIE+MSIE are on; the handler clears it)
      a.Li(rA, kClintBase);
      a.Li(rB, 1);
      a.Sw(rB, rA, 0);
      break;
    default:  // SSIP injection
      a.Csrrsi(zero, act.mode_hint == static_cast<uint8_t>(PrivMode::kMachine) ? kCsrMip : kCsrSip,
               2);
      break;
  }
}

void EmitAmo(Assembler& a, const Action& act) {
  const Reg addr = static_cast<Reg>(act.ra);
  const Reg rd = static_cast<Reg>(act.rd);
  const Reg rs = static_cast<Reg>(act.rb);
  a.Li(addr, act.a);
  switch (act.sub) {
    case 0: a.AmoaddD(rd, rs, addr); break;
    case 1: a.AmoswapW(rd, rs, addr); break;
    case 2:
      a.LrW(rd, addr);
      a.ScW(rd, rs, addr);
      break;
    default: a.AmoaddW(rd, rs, addr); break;
  }
}

void EmitAction(Assembler& a, const Action& act, unsigned idx, unsigned depth) {
  switch (act.kind) {
    case ActionKind::kAlu:
      EmitAlu(a, act);
      break;
    case ActionKind::kLoadStore:
      EmitLoadStore(a, act);
      break;
    case ActionKind::kCsrOp:
      EmitCsrOp(a, act);
      break;
    case ActionKind::kPmpWrite: {
      const Reg rA = static_cast<Reg>(act.ra);
      a.Li(rA, act.a);
      a.Csrw(act.csr, rA);
      break;
    }
    case ActionKind::kSatpSwitch: {
      const Reg rA = static_cast<Reg>(act.ra);
      a.Li(rA, act.a);
      a.Csrw(kCsrSatp, rA);
      a.SfenceVma();
      break;
    }
    case ActionKind::kModeSwitch:
      EmitModeSwitch(a, act, idx, depth);
      break;
    case ActionKind::kTrapOp:
      switch (act.sub) {
        case 0: a.Ebreak(); break;
        case 1: a.Word32(0); break;  // guaranteed undecodable
        default: a.Csrrw(static_cast<Reg>(act.rd), act.csr, static_cast<Reg>(act.ra)); break;
      }
      break;
    case ActionKind::kFenceOp:
      switch (act.sub) {
        case 0: a.FenceI(); break;
        case 1: a.Fence(); break;
        case 2: a.SfenceVma(); break;
        default: {
          const Reg rA = static_cast<Reg>(act.ra);
          a.Li(rA, act.a);
          a.SfenceVma(rA);  // per-address form
          break;
        }
      }
      break;
    case ActionKind::kSelfModify: {
      if (act.sub == 1) {
        // Hot patch: the patching store sits inside a loop whose block warms up
        // (and, with the block tier on, runs lowered). The store target is a
        // data scratch word until the iteration before last redirects it at the
        // site, so the invalidating store executes from within the hot block and
        // the final iteration fetches the patched word. Deliberately no fence.i:
        // this exercises the store-to-exec-page invalidation path, mid-dispatch.
        // Fixed registers (t0-t2, s2, plus the s11 loop convention) guarantee the
        // shape regardless of the drawn act registers.
        const std::string head = Lbl(idx, "hothead");
        const std::string site = Lbl(idx, "hotsite");
        const std::string skip = Lbl(idx, "hotskip");
        const uint64_t scratch =
            CosimLayout::kDataPhys +
            ((static_cast<uint64_t>(act.b) * 2654435761u) & 0xFF8);
        a.Li(t0, scratch);
        a.Li(t1, EncodeAddi(s2, static_cast<int32_t>(act.b)));
        a.Li(s2, 0);
        a.Li(s11, 12);
        a.Bind(head);
        a.Bind(site);
        a.Addi(s2, s2, 1);  // patched to addi s2, s2, act.b mid-loop
        a.Sw(t1, t0, 0);
        a.Addi(s11, s11, -1);
        a.Li(t2, 2);
        a.Bne(s11, t2, skip);
        a.La(t0, site);  // executed once: the next store lands on the site
        a.Bind(skip);
        a.Bnez(s11, head);
        break;
      }
      const Reg rA = static_cast<Reg>(act.ra);
      const Reg rB = static_cast<Reg>(act.rb);
      const std::string site = Lbl(idx, "patch");
      a.La(rA, site);
      a.Li(rB, EncodeAddi(act.rd, static_cast<int32_t>(act.b)));
      a.Sw(rB, rA, 0);
      a.FenceI();
      a.Bind(site);
      a.Nop();  // overwritten by the store above before the pc arrives here
      break;
    }
    case ActionKind::kTimer:
      EmitTimer(a, act);
      break;
    case ActionKind::kLoop: {
      const std::string head = Lbl(idx, "loop");
      a.Li(s11, act.a);
      a.Bind(head);
      for (unsigned i = 0; i < act.body.size(); ++i) {
        EmitAction(a, act.body[i], idx, depth + 1);
      }
      a.Addi(s11, s11, -1);
      a.Bnez(s11, head);
      break;
    }
    case ActionKind::kAmo:
      EmitAmo(a, act);
      break;
    case ActionKind::kUartPutc: {
      const Reg rA = static_cast<Reg>(act.ra);
      const Reg rB = static_cast<Reg>(act.rb);
      a.Li(rA, kUartBase);
      a.Li(rB, act.a);
      a.Sb(rB, rA, 0);
      break;
    }
  }
}

// The fixed M-mode trap handler. Recursion-proof by construction: the first three
// instructions cannot fault (register/CSR only) and clear MPRV, after which every
// memory access runs in M-mode bare with no locked PMP entries — always permitted.
// gp (valid from the first prologue instructions on) points at the hart's save area:
//   0(gp) saved t5, 8(gp) saved t6, 16(gp) trap counter, 32(gp) hart-1 wake counter.
// Clobbers mscratch (documented program behaviour, identical across configurations).
void EmitMHandler(Assembler& a, const CosimProgram& p) {
  a.Bind("m_handler");
  a.Csrrw(t6, kCsrMscratch, t6);  // mscratch := old t6
  a.Lui(t6, 0x20);                // 1 << MstatusBits::kMprv
  a.Csrc(kCsrMstatus, t6);        // memory ops below must not translate via MPRV
  a.Sd(t5, gp, 0);
  a.Csrr(t5, kCsrMscratch);
  a.Sd(t5, gp, 8);
  // Count the trap; past the limit, end the program through the finisher (a fault
  // cascade is legal program behaviour, not a hang).
  a.Ld(t5, gp, 16);
  a.Addi(t5, t5, 1);
  a.Sd(t5, gp, 16);
  a.Li(t6, p.opts.trap_limit);
  a.Blt(t5, t6, "m_under");
  a.Li(t5, kFinisherBase);
  a.Li(t6, (uint64_t{kCosimExitTrapLimit} << 16) | 0x5555);
  a.Sw(t6, t5, 0);
  a.Bind("m_under");
  a.Csrr(t5, kCsrMcause);
  a.Bge(t5, zero, "m_exc");
  // Interrupt: rearm this hart's mtimecmp, drop its MSIP, clear the software
  // S-level bits, and resume at the interrupted pc.
  a.Li(t6, CosimLayout::kSavePhys);
  a.Sub(t6, gp, t6);
  a.Srli(t6, t6, 6);  // hart index
  a.Slli(t5, t6, 3);
  a.Li(t6, kClintMtimecmp);
  a.Add(t5, t5, t6);
  a.Li(t6, kClintMtime);
  a.Ld(t6, t6, 0);
  a.Addi(t6, t6, 1500);
  a.Sd(t6, t5, 0);
  a.Li(t6, CosimLayout::kSavePhys);
  a.Sub(t6, gp, t6);
  a.Srli(t6, t6, 6);
  a.Slli(t6, t6, 2);
  a.Li(t5, kClintBase);
  a.Add(t5, t5, t6);
  a.Sw(zero, t5, 0);
  a.Li(t5, 0x222);
  a.Csrc(kCsrMip, t5);
  a.J("m_ret");
  a.Bind("m_exc");
  a.Li(t6, 8);
  a.Beq(t5, t6, "m_ecall");
  a.Li(t6, 9);
  a.Beq(t5, t6, "m_ecall");
  // Any other exception: skip the faulting instruction, firmware-style.
  a.Csrr(t5, kCsrMepc);
  a.Addi(t5, t5, 4);
  a.Csrw(kCsrMepc, t5);
  a.J("m_ret");
  a.Bind("m_ecall");
  // ecall from U/S escalates to M-mode; continuation addresses in the U-mode alias
  // window are normalized back to the identity window, where M executes.
  a.Csrr(t5, kCsrMepc);
  a.Addi(t5, t5, 4);
  a.Li(t6, CosimLayout::kUserAlias);
  a.Bltu(t5, t6, "m_noadj");
  a.Li(t6, CosimLayout::kAliasOffset);
  a.Sub(t5, t5, t6);
  a.Bind("m_noadj");
  a.Csrw(kCsrMepc, t5);
  a.Li(t5, uint64_t{3} << MstatusBits::kMppLo);
  a.Csrs(kCsrMstatus, t5);
  a.Bind("m_ret");
  a.Ld(t6, gp, 8);
  a.Ld(t5, gp, 0);
  a.Mret();
}

// The fixed S-mode handler: register-only (no memory access, so it cannot recurse
// under any paging or PMP state). Clobbers sscratch. Interrupts clear SSIP (the only
// S interrupt the generator allows to be delegated); exceptions skip the instruction.
void EmitSHandler(Assembler& a) {
  a.Bind("s_handler");
  a.Csrrw(t6, kCsrSscratch, t6);
  a.Csrr(t6, kCsrScause);
  a.Bge(t6, zero, "s_exc");
  a.Csrrci(zero, kCsrSip, 2);
  a.J("s_done");
  a.Bind("s_exc");
  a.Csrr(t6, kCsrSepc);
  a.Addi(t6, t6, 4);
  a.Csrw(kCsrSepc, t6);
  a.Bind("s_done");
  a.Csrrw(t6, kCsrSscratch, t6);
  a.Sret();
}

// Hart 1 (two-hart programs): a WFI echo loop. MIE stays clear so pending machine
// interrupts wake the hart without trapping; every wake bumps a counter, clears its
// MSIP, and rearms its timer — deterministic cross-hart interleaving fodder.
void EmitSecondary(Assembler& a) {
  a.Bind("secondary");
  a.Li(t1, 0x88);  // MTIE | MSIE
  a.Csrw(kCsrMie, t1);
  a.Li(t1, kClintMtime);
  a.Ld(t2, t1, 0);
  a.Addi(t2, t2, 1500);
  a.Li(t1, kClintMtimecmp + 8);
  a.Sd(t2, t1, 0);
  a.Bind("sec_loop");
  a.Wfi();
  a.Ld(t1, gp, 32);
  a.Addi(t1, t1, 1);
  a.Sd(t1, gp, 32);
  a.Li(t1, kClintBase + 4);
  a.Sw(zero, t1, 0);
  a.Li(t1, kClintMtime);
  a.Ld(t2, t1, 0);
  a.Addi(t2, t2, 1500);
  a.Li(t1, kClintMtimecmp + 8);
  a.Sd(t2, t1, 0);
  a.J("sec_loop");
}

void EmitPrologue(Assembler& a, const CosimProgram& p) {
  a.Bind("_start");
  a.Csrr(t0, kCsrMhartid);
  a.Li(gp, CosimLayout::kSavePhys);
  a.Slli(t1, t0, 6);
  a.Add(gp, gp, t1);
  for (int32_t off = 0; off <= 32; off += 8) {
    a.Sd(zero, gp, off);
  }
  a.La(t1, "m_handler");
  a.Csrw(kCsrMtvec, t1);
  a.La(t1, "s_handler");
  a.Csrw(kCsrStvec, t1);
  // PMP entry 7: NAPOT over everything, RWX — the catch-all generated PMP writes
  // never touch, so some access path always exists for every privilege.
  a.Li(t1, uint64_t{0x1F} << 56);
  a.Csrw(kCsrPmpcfg0, t1);
  a.Li(t1, (uint64_t{1} << 54) - 1);
  a.Csrw(CsrPmpaddr(7), t1);
  if (p.opts.harts > 1) {
    a.Beqz(t0, "primary");
    a.J("secondary");
    a.Bind("primary");
  }
  // Build the Sv39 page tables (guest-built, like a real kernel would).
  a.Li(t1, CosimLayout::kPtRoot);
  a.Li(t2, kPteV | kPteR | kPteW | kPteX | kPteA | kPteD);  // root[0]: devices
  a.Sd(t2, t1, 0);
  a.Li(t2, ((CosimLayout::kRamBase >> 12) << 10) | kPteV | kPteR | kPteW | kPteX | kPteA | kPteD);
  a.Sd(t2, t1, 16);  // root[2]: identity RAM
  a.Li(t2, ((CosimLayout::kPtL1 >> 12) << 10) | kPteV);
  a.Sd(t2, t1, 24);  // root[3] -> L1 (the 4 KiB user-data window)
  a.Li(t2, ((CosimLayout::kRamBase >> 12) << 10) | kPteV | kPteR | kPteW | kPteX | kPteU | kPteA |
               kPteD);
  a.Sd(t2, t1, 32);  // root[4]: U=1 alias of RAM
  a.Li(t1, CosimLayout::kPtL1);
  a.Li(t2, ((CosimLayout::kPtL0 >> 12) << 10) | kPteV);
  a.Sd(t2, t1, 0);
  // L0[0..15]: user data pages with A/D clear — walks do hardware A/D updates.
  a.Li(t1, CosimLayout::kPtL0);
  a.Li(t2, ((CosimLayout::kDataPhys >> 12) << 10) | kPteV | kPteR | kPteW | kPteU);
  a.Li(t3, 16);
  a.Bind("pt_fill");
  a.Sd(t2, t1, 0);
  a.Addi(t1, t1, 8);
  a.Li(t4, uint64_t{1} << 10);
  a.Add(t2, t2, t4);
  a.Addi(t3, t3, -1);
  a.Bnez(t3, "pt_fill");
  // First timer deadline and MTIE, so timer interrupts run throughout.
  a.Li(t1, kClintMtime);
  a.Ld(t2, t1, 0);
  a.Addi(t2, t2, 2000);
  a.Li(t1, kClintMtimecmp);
  a.Sd(t2, t1, 0);
  a.Li(t1, 0x80);
  a.Csrw(kCsrMie, t1);
  // Seed the pool registers with deterministic junk derived from the program seed.
  Rng rng(p.seed ^ 0x9E37'79B9'7F4A'7C15ull);
  for (unsigned i = 0; i < kPoolSize; ++i) {
    a.Li(kPool[i], rng.NextAdversarial());
  }
}

}  // namespace

CosimProgram GenerateProgram(uint64_t seed, const GenOptions& opts) {
  CosimProgram p;
  p.seed = seed;
  p.opts = opts;
  Rng rng(seed ^ 0xC051'F00D'5EED'0001ull);
  PrivMode mode = PrivMode::kMachine;
  bool paged = false;
  unsigned wfi_left = 3;
  for (unsigned i = 0; i < opts.num_actions; ++i) {
    p.actions.push_back(MakeAction(rng, mode, paged, wfi_left, opts, /*in_loop=*/false));
  }
  p.keep.resize(p.actions.size());
  for (uint32_t i = 0; i < p.keep.size(); ++i) {
    p.keep[i] = i;
  }
  return p;
}

Result<Image> BuildCosimImage(const CosimProgram& p) {
  Assembler a(CosimLayout::kRamBase);
  EmitPrologue(a, p);
  for (uint32_t idx : p.keep) {
    if (idx < p.actions.size()) {
      EmitAction(a, p.actions[idx], idx, 0);
    }
  }
  // Epilogue: normalize to M-mode (ecall escalation works from any mode and any
  // address window), report success through the finisher, and park.
  a.Ecall();
  a.Li(t0, kFinisherBase);
  a.Li(t1, (uint64_t{kCosimExitDone} << 16) | 0x5555);
  a.Sw(t1, t0, 0);
  a.Bind("cosim_park");
  a.Wfi();
  a.J("cosim_park");
  EmitMHandler(a, p);
  EmitSHandler(a);
  if (p.opts.harts > 1) {
    EmitSecondary(a);
  }
  return a.Finish();
}

std::string SaveSeedFile(const CosimProgram& p) {
  std::ostringstream out;
  char buf[64];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, p.seed);
  out << "vfm-cosim v1\n";
  out << "seed " << buf << "\n";
  out << "harts " << p.opts.harts << "\n";
  out << "actions " << p.opts.num_actions << "\n";
  out << "budget " << p.opts.budget << "\n";
  out << "traplimit " << p.opts.trap_limit << "\n";
  if (p.opts.snapshot_at != 0) {
    out << "snapshot " << p.opts.snapshot_at << "\n";
  }
  if (p.opts.trace_at != 0) {
    out << "trace " << p.opts.trace_at << "\n";
  }
  if (p.keep.size() == p.actions.size()) {
    out << "keep all\n";
  } else {
    out << "keep";
    for (uint32_t idx : p.keep) {
      out << ' ' << idx;
    }
    out << "\n";
  }
  return out.str();
}

Result<CosimProgram> ParseSeedFile(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("vfm-cosim", 0) != 0) {
    return Result<CosimProgram>::Error("not a vfm-cosim seed file");
  }
  uint64_t seed = 0;
  GenOptions opts;
  bool keep_all = true;
  std::vector<uint32_t> keep;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key) || key.empty() || key[0] == '#') {
      continue;
    }
    if (key == "seed") {
      std::string v;
      ls >> v;
      seed = std::strtoull(v.c_str(), nullptr, 0);
    } else if (key == "harts") {
      ls >> opts.harts;
    } else if (key == "actions") {
      ls >> opts.num_actions;
    } else if (key == "budget") {
      ls >> opts.budget;
    } else if (key == "traplimit") {
      ls >> opts.trap_limit;
    } else if (key == "snapshot") {
      ls >> opts.snapshot_at;
    } else if (key == "trace") {
      ls >> opts.trace_at;
    } else if (key == "keep") {
      std::string first;
      ls >> first;
      if (first != "all") {
        keep_all = false;
        keep.push_back(static_cast<uint32_t>(std::strtoul(first.c_str(), nullptr, 0)));
        uint32_t idx;
        while (ls >> idx) {
          keep.push_back(idx);
        }
      }
    } else {
      return Result<CosimProgram>::Error("unknown seed-file key: " + key);
    }
  }
  if (opts.harts < 1 || opts.harts > 2 || opts.num_actions == 0 || opts.num_actions > 4096) {
    return Result<CosimProgram>::Error("seed file out of range (harts/actions)");
  }
  CosimProgram p = GenerateProgram(seed, opts);
  if (!keep_all) {
    for (uint32_t idx : keep) {
      if (idx >= p.actions.size()) {
        return Result<CosimProgram>::Error("keep index out of range");
      }
    }
    p.keep = std::move(keep);
  }
  return p;
}

}  // namespace vfm
