// Unit tests for the hart simulator: CSR access rules, trap entry and delegation,
// xRET, interrupts, WFI, Sv39 translation, PMP enforcement, and the MPRV path.

#include <gtest/gtest.h>

#include <tuple>

#include "src/asm/assembler.h"
#include "src/common/bits.h"
#include "src/sim/machine.h"
#include "src/sim/mmu.h"

namespace vfm {
namespace {

class SimTest : public ::testing::Test {
 protected:
  SimTest() {
    MachineConfig config;
    config.hart_count = 1;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
  }

  // Executes one instruction word at the current pc/priv.
  StepResult Exec(uint32_t word) {
    machine_->bus().Write(hart_->pc(), 4, word);
    return hart_->Tick();
  }

  std::unique_ptr<Machine> machine_;
  Hart* hart_;
};

constexpr uint64_t kRam = 0x8000'0000;

TEST_F(SimTest, ResetState) {
  EXPECT_EQ(hart_->priv(), PrivMode::kMachine);
  EXPECT_EQ(hart_->gpr(0), 0u);
  EXPECT_EQ(hart_->csrs().Get(kCsrMisa) & MisaBit('S'), MisaBit('S'));
  EXPECT_EQ(ExtractBits(hart_->csrs().mstatus(), 33, 32), 2u);  // UXL = 64-bit
}

TEST_F(SimTest, GprZeroHardwired) {
  hart_->set_gpr(0, 1234);
  EXPECT_EQ(hart_->gpr(0), 0u);
}

TEST_F(SimTest, CsrReadWriteMachine) {
  hart_->set_pc(kRam);
  hart_->set_gpr(5, 0xABCD);  // t0
  // csrrw x6, mscratch, x5
  Exec(0x34029373);
  EXPECT_EQ(hart_->csrs().Get(kCsrMscratch), 0xABCDu);
  EXPECT_EQ(hart_->pc(), kRam + 4);
}

TEST_F(SimTest, CsrAccessFromUserTraps) {
  hart_->set_pc(kRam);
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_priv(PrivMode::kUser);
  const StepResult result = Exec(0x34029373);  // csrrw on mscratch from U
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
  EXPECT_EQ(hart_->priv(), PrivMode::kMachine);
  EXPECT_EQ(hart_->csrs().Get(kCsrMepc), kRam);
  EXPECT_EQ(hart_->csrs().Get(kCsrMtval), 0x34029373u);
}

TEST_F(SimTest, TimeCsrTrapsWhenAbsent) {
  hart_->set_pc(kRam);
  const StepResult result = Exec(0xC0102573);  // csrr a0, time (rdtime)
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
}

TEST_F(SimTest, TrapEntrySetsStatusStack) {
  hart_->set_pc(kRam);
  uint64_t mstatus = hart_->csrs().mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kMie, 1);
  hart_->csrs().set_mstatus(mstatus);
  hart_->csrs().Set(kCsrMtvec, kRam + 0x100);
  hart_->TakeTrap(CauseValue(ExceptionCause::kBreakpoint), 0x42);
  mstatus = hart_->csrs().mstatus();
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMie), 0u);
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMpie), 1u);
  EXPECT_EQ(ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo), 3u);
  EXPECT_EQ(hart_->csrs().Get(kCsrMcause), 3u);
  EXPECT_EQ(hart_->csrs().Get(kCsrMtval), 0x42u);
  EXPECT_EQ(hart_->pc(), kRam + 0x100);
}

TEST_F(SimTest, DelegatedTrapGoesToSupervisor) {
  hart_->csrs().Set(kCsrMedeleg, uint64_t{1} << 8);  // delegate ecall-from-U
  hart_->csrs().Set(kCsrStvec, kRam + 0x200);
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_priv(PrivMode::kUser);
  hart_->set_pc(kRam);
  const StepResult result = Exec(0x00000073);  // ecall
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_target, PrivMode::kSupervisor);
  EXPECT_FALSE(result.entered_mmode);
  EXPECT_EQ(hart_->priv(), PrivMode::kSupervisor);
  EXPECT_EQ(hart_->csrs().Get(kCsrScause), 8u);
  EXPECT_EQ(hart_->csrs().Get(kCsrSepc), kRam);
  EXPECT_EQ(hart_->pc(), kRam + 0x200);
  EXPECT_EQ(Bit(hart_->csrs().mstatus(), MstatusBits::kSpp), 0u);  // from U
}

TEST_F(SimTest, EcallCausesByPriv) {
  hart_->set_pc(kRam);
  EXPECT_EQ(Exec(0x00000073).trap_cause, CauseValue(ExceptionCause::kEcallFromM));
  hart_->set_priv(PrivMode::kSupervisor);
  hart_->set_pc(kRam);
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  EXPECT_EQ(Exec(0x00000073).trap_cause, CauseValue(ExceptionCause::kEcallFromS));
}

TEST_F(SimTest, MretRestoresPrivAndPc) {
  hart_->csrs().Set(kCsrMepc, kRam + 0x40);
  uint64_t mstatus = hart_->csrs().mstatus();
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, 1);  // S
  mstatus = SetBit(mstatus, MstatusBits::kMpie, 1);
  mstatus = SetBit(mstatus, MstatusBits::kMprv, 1);
  hart_->csrs().set_mstatus(mstatus);
  hart_->set_pc(kRam);
  Exec(0x30200073);  // mret
  EXPECT_EQ(hart_->priv(), PrivMode::kSupervisor);
  EXPECT_EQ(hart_->pc(), kRam + 0x40);
  mstatus = hart_->csrs().mstatus();
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMie), 1u);   // from MPIE
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMprv), 0u);  // cleared: target < M
  EXPECT_EQ(ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo), 0u);
}

TEST_F(SimTest, MretFromSupervisorIsIllegal) {
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_priv(PrivMode::kSupervisor);
  hart_->set_pc(kRam);
  const StepResult result = Exec(0x30200073);
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
}

TEST_F(SimTest, SretHonorsTsr) {
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  uint64_t mstatus = hart_->csrs().mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kTsr, 1);
  hart_->csrs().set_mstatus(mstatus);
  hart_->set_priv(PrivMode::kSupervisor);
  hart_->set_pc(kRam);
  const StepResult result = Exec(0x10200073);  // sret
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
}

TEST_F(SimTest, InterruptPriorityAndDelegation) {
  CsrFile& csrs = hart_->csrs();
  csrs.Set(kCsrMie, (uint64_t{1} << 7) | (uint64_t{1} << 5) | (uint64_t{1} << 1));
  csrs.Set(kCsrMideleg, 0x222);
  csrs.SetInterruptLine(InterruptCause::kMachineTimer, true);
  csrs.set_mip_sw(uint64_t{1} << 5);  // STIP also pending
  // From S-mode: MTI (not delegated) wins over STI.
  hart_->set_priv(PrivMode::kSupervisor);
  EXPECT_EQ(hart_->PendingInterrupt().value_or(0), CauseValue(InterruptCause::kMachineTimer));
  // Clear MTI: STI remains, delegated, requires SIE in S-mode.
  csrs.SetInterruptLine(InterruptCause::kMachineTimer, false);
  EXPECT_FALSE(hart_->PendingInterrupt().has_value());
  csrs.set_mstatus(SetBit(csrs.mstatus(), MstatusBits::kSie, 1));
  EXPECT_EQ(hart_->PendingInterrupt().value_or(0),
            CauseValue(InterruptCause::kSupervisorTimer));
  // From U-mode the delegated interrupt fires regardless of SIE.
  csrs.set_mstatus(SetBit(csrs.mstatus(), MstatusBits::kSie, 0));
  hart_->set_priv(PrivMode::kUser);
  EXPECT_TRUE(hart_->PendingInterrupt().has_value());
}

TEST_F(SimTest, MachineInterruptMaskedByMieBit) {
  CsrFile& csrs = hart_->csrs();
  csrs.SetInterruptLine(InterruptCause::kMachineTimer, true);
  csrs.Set(kCsrMie, 0);
  EXPECT_FALSE(hart_->PendingInterrupt().has_value());
  csrs.Set(kCsrMie, uint64_t{1} << 7);
  // In M-mode, mstatus.MIE gates machine interrupts.
  EXPECT_FALSE(hart_->PendingInterrupt().has_value());
  csrs.set_mstatus(SetBit(csrs.mstatus(), MstatusBits::kMie, 1));
  EXPECT_TRUE(hart_->PendingInterrupt().has_value());
}

TEST_F(SimTest, WfiParksAndWakes) {
  hart_->set_pc(kRam);
  Exec(0x10500073);  // wfi
  EXPECT_TRUE(hart_->waiting());
  EXPECT_EQ(hart_->pc(), kRam + 4);
  // Parked: ticks do nothing until an enabled interrupt is pending.
  StepResult result = hart_->Tick();
  EXPECT_TRUE(result.waiting);
  hart_->csrs().Set(kCsrMie, uint64_t{1} << 7);
  hart_->csrs().SetInterruptLine(InterruptCause::kMachineTimer, true);
  machine_->bus().Write(kRam + 4, 4, 0x00000013);  // nop at resume point
  result = hart_->Tick();
  EXPECT_FALSE(result.waiting);
  EXPECT_FALSE(hart_->waiting());
}

TEST_F(SimTest, MisalignedLoadTrapsWithAddress) {
  hart_->set_pc(kRam);
  hart_->set_gpr(6, kRam + 0x101);  // t1
  // lw t0, 0(t1)
  const StepResult result = Exec(0x00032283);
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kLoadAddrMisaligned));
  EXPECT_EQ(hart_->csrs().Get(kCsrMtval), kRam + 0x101);
}

TEST_F(SimTest, LoadSignExtension) {
  hart_->set_pc(kRam);
  machine_->bus().Write(kRam + 0x100, 8, 0xFFFF'FFFF'FFFF'FF80ull);
  hart_->set_gpr(6, kRam + 0x100);
  Exec(0x00030283);  // lb t0, 0(t1)
  EXPECT_EQ(hart_->gpr(5), 0xFFFF'FFFF'FFFF'FF80ull);
  hart_->set_pc(kRam);
  Exec(0x00034283);  // lbu t0, 0(t1)
  EXPECT_EQ(hart_->gpr(5), 0x80u);
}

TEST_F(SimTest, PmpDeniesSupervisorLoad) {
  // One NAPOT entry covering RAM with X-only.
  CsrFile& csrs = hart_->csrs();
  csrs.pmp().SetCfg(0, PmpCfg::FromByte(0x1C));  // NAPOT, X only
  csrs.pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_priv(PrivMode::kSupervisor);
  hart_->set_pc(kRam);
  hart_->set_gpr(6, kRam + 0x100);
  const StepResult result = Exec(0x00033283);  // ld t0, 0(t1)
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kLoadAccessFault));
}

TEST_F(SimTest, MprvUsesMppForDataAccess) {
  CsrFile& csrs = hart_->csrs();
  // PMP: everything X-only (denies S loads), so an MPRV load from M with MPP=S faults.
  csrs.pmp().SetCfg(0, PmpCfg::FromByte(0x1C));
  csrs.pmp().SetAddr(0, ~uint64_t{0} >> 10);
  uint64_t mstatus = csrs.mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kMprv, 1);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, 1);
  csrs.set_mstatus(mstatus);
  hart_->set_pc(kRam);
  hart_->set_gpr(6, kRam + 0x100);
  const StepResult result = Exec(0x00033283);  // ld t0, 0(t1)
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kLoadAccessFault));
}

// ---- Sv39 translation. --------------------------------------------------------

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : pmp_(0) {
    bus_.AddRam(kRam, 16 << 20);
    // Root table at kRam; map VA 0x4000_0000 (1 GiB region 1) to PA kRam via a 1 GiB
    // superpage, and a 4 KiB fine mapping under region 0.
    root_ = kRam;
    const uint64_t giga_pte = ((kRam >> 12) << 10) | 0xCF;  // V R W X A D
    bus_.Write(root_ + 8 * 1, 8, giga_pte);
    // Region 0: two-level walk to a 4 KiB page: L2[0] -> table at kRam+0x1000,
    // L1[0] -> table at kRam+0x2000, L0[3] -> PA kRam+0x5000.
    bus_.Write(root_ + 0, 8, (((kRam + 0x1000) >> 12) << 10) | 0x01);
    bus_.Write(kRam + 0x1000, 8, (((kRam + 0x2000) >> 12) << 10) | 0x01);
    bus_.Write(kRam + 0x2000 + 8 * 3, 8, (((kRam + 0x5000) >> 12) << 10) | 0xDF);  // RW, U
    params_.satp = (uint64_t{8} << 60) | (root_ >> 12);
    params_.priv = PrivMode::kSupervisor;
  }

  Bus bus_;
  PmpBank pmp_;  // zero entries: machine-permissive, S/U... no entries -> deny!
  uint64_t root_;
  TranslateParams params_;
};

TEST_F(MmuTest, BareModePassThrough) {
  TranslateParams bare;
  bare.satp = 0;
  bare.priv = PrivMode::kSupervisor;
  const TranslateResult result = TranslateSv39(&bus_, pmp_, bare, 0x1234, AccessType::kLoad);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.paddr, 0x1234u);
}

TEST_F(MmuTest, GigapageTranslation) {
  const TranslateResult result =
      TranslateSv39(&bus_, pmp_, params_, 0x4000'0123, AccessType::kLoad);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.paddr, kRam + 0x123);
  EXPECT_EQ(result.walk_levels, 1u);
}

TEST_F(MmuTest, FourKbWalk) {
  TranslateParams user = params_;
  user.priv = PrivMode::kUser;  // the 4 KiB leaf is a user page
  const TranslateResult result =
      TranslateSv39(&bus_, pmp_, user, 0x3000 + 0x45, AccessType::kStore);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.paddr, kRam + 0x5000 + 0x45);
  EXPECT_EQ(result.walk_levels, 3u);
}

TEST_F(MmuTest, AdBitsUpdatedInMemory) {
  // Install a clean PTE (no A/D) and verify the hardware-update behaviour.
  bus_.Write(kRam + 0x2000 + 8 * 3, 8, (((kRam + 0x5000) >> 12) << 10) | 0x17);  // V R W U
  TranslateParams user = params_;
  user.priv = PrivMode::kUser;
  ASSERT_TRUE(TranslateSv39(&bus_, pmp_, user, 0x3000, AccessType::kLoad).ok);
  uint64_t pte = 0;
  bus_.Read(kRam + 0x2000 + 8 * 3, 8, &pte);
  EXPECT_NE(pte & PteBits::kAccessed, 0u);
  EXPECT_EQ(pte & PteBits::kDirty, 0u);  // loads set A only
  ASSERT_TRUE(TranslateSv39(&bus_, pmp_, user, 0x3000, AccessType::kStore).ok);
  bus_.Read(kRam + 0x2000 + 8 * 3, 8, &pte);
  EXPECT_NE(pte & PteBits::kDirty, 0u);
}

TEST_F(MmuTest, UserPageBlockedForSupervisorWithoutSum) {
  const TranslateResult no_sum =
      TranslateSv39(&bus_, pmp_, params_, 0x3000, AccessType::kLoad);
  EXPECT_FALSE(no_sum.ok);
  EXPECT_EQ(no_sum.fault, ExceptionCause::kLoadPageFault);
  TranslateParams with_sum = params_;
  with_sum.sum = true;
  EXPECT_TRUE(TranslateSv39(&bus_, pmp_, with_sum, 0x3000, AccessType::kLoad).ok);
  // Fetch from a user page is never allowed for S, SUM or not.
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, with_sum, 0x3000, AccessType::kFetch).ok);
}

TEST_F(MmuTest, UserAccessToUserPage) {
  TranslateParams user = params_;
  user.priv = PrivMode::kUser;
  EXPECT_TRUE(TranslateSv39(&bus_, pmp_, user, 0x3000, AccessType::kLoad).ok);
  // The gigapage is not U-accessible.
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, user, 0x4000'0000, AccessType::kLoad).ok);
}

TEST_F(MmuTest, NonCanonicalAddressFaults) {
  const TranslateResult result =
      TranslateSv39(&bus_, pmp_, params_, uint64_t{1} << 45, AccessType::kLoad);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.fault, ExceptionCause::kLoadPageFault);
  // But sign-extended canonical high addresses walk normally (and miss here).
  const TranslateResult high = TranslateSv39(&bus_, pmp_, params_,
                                             0xFFFF'FFC0'0000'0000ull, AccessType::kLoad);
  EXPECT_FALSE(high.ok);  // unmapped, still a page fault (not a crash)
}

TEST_F(MmuTest, InvalidAndReservedPtes) {
  bus_.Write(root_ + 8 * 2, 8, 0x2 | 0x4);  // W without R, V=0 too
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, params_, 0x8000'0000ull, AccessType::kLoad).ok);
  bus_.Write(root_ + 8 * 2, 8, 0x1 | 0x4);  // V=1, W=1, R=0: reserved
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, params_, 0x8000'0000ull, AccessType::kLoad).ok);
}

TEST_F(MmuTest, MisalignedSuperpageFaults) {
  // A 1 GiB leaf whose ppn low bits are nonzero is a misaligned superpage.
  bus_.Write(root_ + 8 * 2, 8, (((kRam + 0x1000) >> 12) << 10) | 0xCF);
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, params_, 0x8000'0000ull, AccessType::kLoad).ok);
}

// -- Decoded-instruction cache invalidation (DESIGN.md §2b). ------------------------

TEST_F(SimTest, DecodeCacheHitsOnReexecution) {
  hart_->set_pc(kRam);
  machine_->bus().Write(kRam, 4, 0x00100293);  // addi t0, zero, 1
  hart_->Tick();
  EXPECT_EQ(hart_->decode_cache_misses(), 1u);
  EXPECT_EQ(hart_->decode_cache_hits(), 0u);
  hart_->set_pc(kRam);
  hart_->Tick();
  EXPECT_EQ(hart_->decode_cache_misses(), 1u);
  EXPECT_EQ(hart_->decode_cache_hits(), 1u);
  EXPECT_EQ(hart_->gpr(5), 1u);
}

TEST_F(SimTest, StoreIntoExecutedPageInvalidatesDecodeCache) {
  hart_->set_pc(kRam);
  Exec(0x00100293);  // addi t0, zero, 1 — executed, so its page is now tracked
  EXPECT_EQ(hart_->gpr(5), 1u);
  // Overwrite the same location and re-execute: the stale decode must not be used.
  hart_->set_pc(kRam);
  Exec(0x00200293);  // addi t0, zero, 2
  EXPECT_EQ(hart_->gpr(5), 2u);
  EXPECT_EQ(hart_->decode_cache_hits(), 0u);  // both executions were misses
  EXPECT_EQ(hart_->decode_cache_misses(), 2u);
}

TEST_F(SimTest, FenceIInvalidatesDecodeCache) {
  machine_->bus().Write(kRam, 4, 0x00100293);      // addi t0, zero, 1
  machine_->bus().Write(kRam + 4, 4, 0x0000100F);  // fence.i
  hart_->set_pc(kRam);
  hart_->Tick();  // addi: miss, fill
  hart_->Tick();  // fence.i: bumps the local generation
  const uint64_t hits_before = hart_->decode_cache_hits();
  hart_->set_pc(kRam);
  hart_->Tick();  // the cached addi entry is stale now: must miss and refill
  EXPECT_EQ(hart_->decode_cache_hits(), hits_before);
  // The refilled entry is valid again: the next re-execution hits.
  hart_->set_pc(kRam);
  hart_->Tick();
  EXPECT_EQ(hart_->decode_cache_hits(), hits_before + 1);
}

TEST_F(MmuTest, MxrMakesExecutableReadable) {
  // Map an X-only user page at L0[4].
  bus_.Write(kRam + 0x2000 + 8 * 4, 8, (((kRam + 0x6000) >> 12) << 10) | 0xD9);  // V X A D, U
  TranslateParams user = params_;
  user.priv = PrivMode::kUser;
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, user, 0x4000, AccessType::kLoad).ok);
  user.mxr = true;
  EXPECT_TRUE(TranslateSv39(&bus_, pmp_, user, 0x4000, AccessType::kLoad).ok);
}

// -- Software TLB (DESIGN.md §2d). --------------------------------------------------

class TlbTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRoot = kRam + 0x1000;

  TlbTest() {
    MachineConfig config;
    config.hart_count = 1;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
    SetupPaging(*machine_);
    hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    hart_->csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
    hart_->set_priv(PrivMode::kSupervisor);
  }

  // Identity 1 GiB superpage over the RAM region (code and page tables execute and
  // are stored through it) plus fine 4 KiB S-mode RW mappings: VA 0x3000 ->
  // kRam+0x5000 and VA 0x4000 -> kRam+0x6000, via root[0] -> L1 (kRam+0x2000) ->
  // L0 (kRam+0x3000).
  static void SetupPaging(Machine& machine) {
    Bus& bus = machine.bus();
    bus.Write(kRoot + 8 * 2, 8, ((kRam >> 12) << 10) | 0xCF);  // V R W X A D
    bus.Write(kRoot + 0, 8, (((kRam + 0x2000) >> 12) << 10) | 0x01);
    bus.Write(kRam + 0x2000, 8, (((kRam + 0x3000) >> 12) << 10) | 0x01);
    bus.Write(kRam + 0x3000 + 8 * 3, 8, (((kRam + 0x5000) >> 12) << 10) | 0xC7);  // V R W A D
    bus.Write(kRam + 0x3000 + 8 * 4, 8, (((kRam + 0x6000) >> 12) << 10) | 0xC7);
  }

  std::unique_ptr<Machine> machine_;
  Hart* hart_;
};

TEST_F(TlbTest, CountersTrackPagedTranslations) {
  hart_->set_pc(kRam + 0x8000);
  hart_->set_gpr(5, 0x3000);                            // t0
  machine_->bus().Write(kRam + 0x8000, 4, 0x0002B303);  // ld t1, 0(t0)
  hart_->Tick();
  // The first execution walks twice: the fetch and the load.
  EXPECT_EQ(hart_->tlb_misses(), 2u);
  EXPECT_EQ(hart_->tlb_hits(), 0u);
  hart_->set_pc(kRam + 0x8000);
  hart_->Tick();
  // Re-execution: the decode cache skips the fetch translation entirely, and the
  // load translation is served by the TLB.
  EXPECT_EQ(hart_->tlb_misses(), 2u);
  EXPECT_EQ(hart_->tlb_hits(), 1u);
  EXPECT_EQ(hart_->tlb_flushes(), 0u);
}

TEST_F(TlbTest, SfenceVmaFlushesAndRecounts) {
  hart_->set_pc(kRam + 0x8000);
  hart_->set_gpr(5, 0x3000);                                // t0
  machine_->bus().Write(kRam + 0x8000, 4, 0x0002B303);      // ld t1, 0(t0)
  machine_->bus().Write(kRam + 0x8000 + 4, 4, 0x12000073);  // sfence.vma x0, x0
  hart_->Tick();
  hart_->Tick();
  EXPECT_EQ(hart_->tlb_flushes(), 1u);
  const uint64_t misses = hart_->tlb_misses();
  hart_->set_pc(kRam + 0x8000);
  hart_->Tick();  // decode-cache hit, but the load must re-walk after the flush
  EXPECT_EQ(hart_->tlb_misses(), misses + 1);
}

TEST_F(TlbTest, CycleAccountingIdenticalWithTlbDisabled) {
  // The TLB is a host-side cache only: the same paging-heavy program must charge
  // exactly the same simulated cycles with the TLB on and off.
  const auto run = [](bool enabled) {
    MachineConfig config;
    if (!enabled) {
      config.tuning.tlb_entries = 0;
    }
    Machine machine(config);
    Hart& hart = machine.hart(0);
    SetupPaging(machine);
    hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    hart.csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
    hart.set_priv(PrivMode::kSupervisor);
    Assembler a(kRam + 0x8000);
    a.Li(t0, 0x3000);
    a.Li(t1, 0x4000);
    a.Li(s2, 0);
    a.Li(s3, 50);
    a.Bind("loop");
    a.Ld(t2, t0, 0);
    a.Ld(t2, t1, 0);
    a.Sd(s2, t0, 8);
    a.SfenceVma();
    a.Addi(s2, s2, 1);
    a.Blt(s2, s3, "loop");
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    for (int i = 0; i < 1000; ++i) {
      machine.StepAll();
    }
    return std::make_tuple(hart.cycles(), hart.instret(), hart.pc(), hart.gpr(s2));
  };
  const auto with_tlb = run(true);
  const auto without_tlb = run(false);
  EXPECT_EQ(with_tlb, without_tlb);
}

TEST_F(TlbTest, DisabledTlbCountsNothing) {
  MachineConfig config;
  config.tuning.tlb_entries = 0;
  Machine machine(config);
  Hart& hart = machine.hart(0);
  SetupPaging(machine);
  hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart.csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
  hart.set_priv(PrivMode::kSupervisor);
  hart.set_pc(kRam + 0x8000);
  hart.set_gpr(5, 0x3000);
  machine.bus().Write(kRam + 0x8000, 4, 0x0002B303);  // ld t1, 0(t0)
  hart.Tick();
  hart.set_pc(kRam + 0x8000);
  hart.Tick();
  EXPECT_EQ(hart.tlb_hits(), 0u);
  EXPECT_EQ(hart.tlb_misses(), 0u);
}

TEST_F(TlbTest, SuperblockHostFastPathCycleParity) {
  // Paged S-mode loads/stores inside superblocks take the host-pointer fast path;
  // the same program must charge identical cycles and count identical decode-cache
  // and TLB hits with the block engine on and off.
  const auto run = [](uint32_t sb_entries) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    SetupPaging(machine);
    hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    hart.csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
    hart.set_priv(PrivMode::kSupervisor);
    Assembler a(kRam + 0x8000);
    a.Li(t0, 0x3000);
    a.Li(t1, 0x4000);
    a.Li(s2, 0);
    a.Li(s3, 200);
    a.Bind("loop");
    a.Ld(t2, t0, 0);
    a.Sd(s2, t1, 0);
    a.Lw(a4, t1, 0);
    a.Addi(s2, s2, 1);
    a.Blt(s2, s3, "loop");
    a.Wfi();
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    machine.RunUntilFinished(20000);  // parks in WFI; ends by budget
    return std::make_tuple(hart.cycles(), hart.instret(), hart.pc(), hart.gpr(s2),
                           hart.decode_cache_hits(), hart.decode_cache_misses(),
                           hart.tlb_hits(), hart.tlb_misses(),
                           hart.host_fastpath_hits() > 0);
  };
  const auto with_blocks = run(2048);
  const auto without_blocks = run(0);
  EXPECT_TRUE(std::get<8>(with_blocks));    // the fast path actually engaged
  EXPECT_FALSE(std::get<8>(without_blocks));
  EXPECT_EQ(std::get<0>(with_blocks), std::get<0>(without_blocks));
  EXPECT_EQ(std::get<1>(with_blocks), std::get<1>(without_blocks));
  EXPECT_EQ(std::get<2>(with_blocks), std::get<2>(without_blocks));
  EXPECT_EQ(std::get<3>(with_blocks), std::get<3>(without_blocks));
  EXPECT_EQ(std::get<4>(with_blocks), std::get<4>(without_blocks));
  EXPECT_EQ(std::get<5>(with_blocks), std::get<5>(without_blocks));
  EXPECT_EQ(std::get<6>(with_blocks), std::get<6>(without_blocks));
  EXPECT_EQ(std::get<7>(with_blocks), std::get<7>(without_blocks));
}

// -- Superblock execution engine (DESIGN.md §2f). -----------------------------------

class SuperblockTest : public ::testing::Test {
 protected:
  SuperblockTest() {
    MachineConfig config;
    config.hart_count = 1;
    config.tuning.superblock_entries = 2048;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
  }

  // Three simple instructions followed by a WFI barrier: a three-instruction block.
  void LoadStraightLine(uint64_t base = kRam) {
    machine_->bus().Write(base, 4, 0x00100293);       // addi t0, zero, 1
    machine_->bus().Write(base + 4, 4, 0x00200313);   // addi t1, zero, 2
    machine_->bus().Write(base + 8, 4, 0x00300393);   // addi t2, zero, 3
    machine_->bus().Write(base + 12, 4, 0x10500073);  // wfi
  }

  // One pass over the straight line via the batched entry point.
  void RunPass(uint64_t base = kRam) {
    hart_->set_pc(base);
    hart_->RunBatch(3, ~uint64_t{0});
  }

  // Pass 1 decodes per-instruction, pass 2 builds the block, pass 3 hits it.
  void WarmBlock(uint64_t base = kRam) {
    const uint64_t hits = hart_->superblock_hits();
    const uint64_t instrs = hart_->superblock_instrs();
    LoadStraightLine(base);
    RunPass(base);
    RunPass(base);
    RunPass(base);
    ASSERT_EQ(hart_->superblock_hits(), hits + 1);
    ASSERT_EQ(hart_->superblock_instrs(), instrs + 6);
  }

  std::unique_ptr<Machine> machine_;
  Hart* hart_;
};

TEST_F(SuperblockTest, FenceIInvalidatesSuperblock) {
  WarmBlock();
  // The fence.i word goes to a page nothing has executed from, so the write itself
  // invalidates nothing — only the fence.i execution does.
  machine_->bus().Write(kRam + 0x1000, 4, 0x0000100F);
  hart_->set_pc(kRam + 0x1000);
  hart_->Tick();
  RunPass();  // stale block: must not be dispatched, decode cache refills
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  RunPass();  // rebuild
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
}

TEST_F(SuperblockTest, StoreToExecPageInvalidatesBlock) {
  WarmBlock();
  EXPECT_EQ(hart_->gpr(t2), 3u);
  // Overwrite the third instruction of the cached block in guest RAM.
  machine_->bus().Write(kRam + 8, 4, 0x00700393);  // addi t2, zero, 7
  hart_->set_gpr(t2, 0);
  RunPass();  // stale block must not be dispatched
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
  RunPass();  // rebuilt with the new instruction
  hart_->set_gpr(t2, 0);
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
}

TEST_F(SuperblockTest, PmpRewriteInvalidatesBlock) {
  WarmBlock();
  // The PMP generation is folded into the block stamp exactly as into the decode
  // cache's: any reconfiguration forces a revalidating rebuild.
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  RunPass();
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
}

TEST_F(SuperblockTest, SatpChangeIsPartOfBlockKey) {
  WarmBlock();
  // A satp write is a barrier op, so a switch can never happen inside a block; the
  // hazard is dispatching a block built under another address space. Blocks are
  // keyed on the effective satp (even in M-mode, where it does not affect fetch),
  // so the switched hart must rebuild rather than reuse.
  hart_->csrs().Set(kCsrSatp, (uint64_t{8} << 60) | ((kRam + 0x1000) >> 12));
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  RunPass();
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
}

TEST(SuperblockMachineTest, SelfModifyingLoopMatchesPerInstruction) {
  // A loop that patches its own body between passes: with the block engine on, the
  // store lands while a cached superblock over the loop is live. The patched
  // instruction must take effect exactly as in per-instruction execution, with
  // identical retired-instruction, cycle, and decode-cache-hit counts.
  const auto run = [](uint32_t sb_entries) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    Assembler a(kRam);
    a.Li(s2, 0);
    a.Li(s3, 10);
    a.La(a3, "patch");
    a.Li(a4, 0x00790913);  // addi s2, s2, 7 — the replacement word
    a.Li(s5, 0);
    a.Bind("outer");
    a.Li(s4, 0);
    a.Bind("loop");
    a.Bind("patch");
    a.Addi(s2, s2, 1);
    a.Addi(s4, s4, 1);
    a.Blt(s4, s3, "loop");
    a.Sw(a4, a3, 0);  // patch the loop body between passes
    a.Addi(s5, s5, 1);
    a.Li(t0, 2);
    a.Blt(s5, t0, "outer");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    const bool finished = machine.RunUntilFinished(100000);
    return std::make_tuple(finished, hart.gpr(s2), hart.cycles(), hart.instret(),
                           hart.pc(), hart.decode_cache_hits(),
                           hart.decode_cache_misses());
  };
  const auto with_blocks = run(2048);
  const auto without_blocks = run(0);
  EXPECT_TRUE(std::get<0>(with_blocks));
  EXPECT_EQ(std::get<1>(with_blocks), 80u);  // 10 * 1 + 10 * 7
  EXPECT_EQ(with_blocks, without_blocks);
}

// -- Lowered blocks and deopt (DESIGN.md §2f). ------------------------------------

class ThreadedTierTest : public SuperblockTest {
 protected:
  // Pass 1 decodes per-instruction; pass 2 builds the block, which is lowered as it
  // is built, so that very dispatch already runs threaded.
  void WarmLowered() {
    LoadStraightLine();
    RunPass();
    RunPass();
    ASSERT_EQ(hart_->threaded_promotions(), 1u);
    ASSERT_EQ(hart_->threaded_blocks(), 1u);
    ASSERT_EQ(hart_->threaded_instrs(), 3u);
  }
};

TEST_F(ThreadedTierTest, FirstValidDispatchRunsLowered) {
  LoadStraightLine();
  RunPass();  // per-instruction decode: no block yet
  EXPECT_EQ(hart_->threaded_promotions(), 0u);
  EXPECT_EQ(hart_->threaded_blocks(), 0u);
  RunPass();  // builds and lowers the block, then runs it threaded
  EXPECT_EQ(hart_->threaded_promotions(), 1u);
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->threaded_instrs(), 3u);
  RunPass();  // the valid block is reused, not lowered again
  EXPECT_EQ(hart_->threaded_promotions(), 1u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
  EXPECT_EQ(hart_->threaded_instrs(), 6u);
  EXPECT_EQ(hart_->gpr(t0), 1u);
  EXPECT_EQ(hart_->gpr(t1), 2u);
  EXPECT_EQ(hart_->gpr(t2), 3u);
}

TEST_F(ThreadedTierTest, FenceIInvalidatesLoweredBlock) {
  WarmLowered();
  machine_->bus().Write(kRam + 0x1000, 4, 0x0000100F);  // fence.i
  hart_->set_pc(kRam + 0x1000);
  hart_->Tick();
  hart_->set_gpr(t2, 0);
  RunPass();  // stale lowering must not be dispatched; per-instruction refill
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->threaded_promotions(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 3u);  // identical architectural outcome either way
  RunPass();  // rebuilt and lowered again
  EXPECT_EQ(hart_->threaded_promotions(), 2u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
}

TEST_F(ThreadedTierTest, StoreToExecPageInvalidatesLoweredBlock) {
  WarmLowered();
  EXPECT_EQ(hart_->gpr(t2), 3u);
  // Overwrite the third instruction of the lowered block in guest RAM.
  machine_->bus().Write(kRam + 8, 4, 0x00700393);  // addi t2, zero, 7
  hart_->set_gpr(t2, 0);
  RunPass();  // stale: per-instruction execution already sees the patched word
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
  hart_->set_gpr(t2, 0);
  RunPass();  // rebuilt from the new bytes and lowered again
  EXPECT_EQ(hart_->threaded_promotions(), 2u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
}

TEST_F(ThreadedTierTest, PmpRewriteInvalidatesLoweredBlock) {
  WarmLowered();
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_gpr(t2, 0);
  RunPass();  // stamp mismatch: no stale threaded dispatch
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 3u);
  RunPass();
  EXPECT_EQ(hart_->threaded_promotions(), 2u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
}

TEST_F(ThreadedTierTest, SatpChangeInvalidatesLoweredBlock) {
  WarmLowered();
  // Blocks (and their lowerings) are keyed on the effective satp: a switched address
  // space must rebuild rather than reuse the lowering.
  hart_->csrs().Set(kCsrSatp, (uint64_t{8} << 60) | ((kRam + 0x1000) >> 12));
  hart_->set_gpr(t2, 0);
  RunPass();
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 3u);
  RunPass();
  EXPECT_EQ(hart_->threaded_promotions(), 2u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
}

TEST(ThreadedMachineTest, SelfModifyingStoreInLoweredBlockDeopts) {
  // A patching store that walks one page per iteration through data RAM (host-
  // pointer fast path, no code invalidation), then lands on the code page on
  // iteration 11 — so the invalidating store executes *inside* the lowered block.
  // The mid-block deopt must hand the rest of the block to per-instruction
  // execution bit-identically: with the block tier on or off, the run must retire
  // the same instructions in the same simulated cycles.
  const auto run = [](uint32_t sb_entries, uint64_t* deopts) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    Assembler a(kRam + 0xC000);
    a.Li(s2, 0);
    a.Li(s3, 14);
    a.Li(s4, 0);
    a.Li(a4, 0x00790913);  // addi s2, s2, 7 — the replacement word
    a.La(a3, "patch");
    a.Li(a6, 11 * 0x1000);
    a.Sub(a3, a3, a6);  // the store target starts 11 pages below the code page
    a.Li(a6, 0x1000);
    a.Bind("loop");
    a.Bind("patch");
    a.Addi(s2, s2, 1);  // patched to +7 once the store reaches the code page
    a.Sw(a4, a3, 0);
    a.Add(a3, a3, a6);
    a.Addi(s4, s4, 1);
    a.Blt(s4, s3, "loop");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    const bool finished = machine.RunUntilFinished(100000);
    *deopts = hart.threaded_deopts();
    return std::make_tuple(finished, hart.gpr(s2), hart.cycles(), hart.instret(),
                           hart.pc(), hart.decode_cache_hits(),
                           hart.decode_cache_misses());
  };
  uint64_t lowered_deopts = 0;
  uint64_t off_deopts = 0;
  const auto lowered = run(2048, &lowered_deopts);
  const auto off = run(0, &off_deopts);
  EXPECT_TRUE(std::get<0>(lowered));
  EXPECT_EQ(std::get<1>(lowered), 26u);  // 12 * 1 + 2 * 7
  EXPECT_GE(lowered_deopts, 1u);         // the store fired inside a lowered block
  EXPECT_EQ(off_deopts, 0u);
  EXPECT_EQ(lowered, off);
}

// -- Page-local code invalidation (DESIGN.md §2b). -----------------------------------
// Stores invalidate cached code only when they overwrite a 64-byte granule holding
// instructions a cached entry decoded, and then only the entries of that one page.

TEST_F(SuperblockTest, StoreOutsideCodeGranulesKeepsDecodesAndBlocks) {
  WarmBlock();
  const uint64_t invalidations = machine_->bus().code_generation();
  // Data next to code: same page, but granules no cached entry decoded (the block
  // occupies granule 0; firmware trap frames and kernel data slots look like this).
  machine_->bus().Write(kRam + 0x40, 8, 0x1122334455667788);
  machine_->bus().Write(kRam + 0xFF8, 8, 0x99);
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
  EXPECT_EQ(machine_->bus().code_generation(), invalidations);
  const uint64_t decode_hits = hart_->decode_cache_hits();
  const uint64_t decode_misses = hart_->decode_cache_misses();
  hart_->set_pc(kRam);
  hart_->Tick();
  EXPECT_EQ(hart_->decode_cache_hits(), decode_hits + 1);
  EXPECT_EQ(hart_->decode_cache_misses(), decode_misses);
}

TEST_F(SuperblockTest, StoreIntoCodeGranuleBesideInstructionsInvalidates) {
  WarmBlock();
  const uint64_t invalidations = machine_->bus().code_generation();
  // Bytes 0x20..0x27 share granule 0 with the block but hold none of its words:
  // tracking is per granule, so this still counts as a store into code.
  machine_->bus().Write(kRam + 0x20, 8, 0);
  EXPECT_EQ(machine_->bus().code_generation(), invalidations + 1);
  const uint64_t decode_misses = hart_->decode_cache_misses();
  RunPass();  // stale block and decodes: per-instruction refill
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  EXPECT_EQ(hart_->decode_cache_misses(), decode_misses + 3);
  RunPass();  // rebuild
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
}

TEST_F(SuperblockTest, MisalignedStoreStraddlingIntoCodeGranuleInvalidates) {
  WarmBlock(kRam + 0x40);  // granule 1
  const uint64_t invalidations = machine_->bus().code_generation();
  machine_->bus().Write(kRam + 0x38, 8, 0);  // all of granule 0: no code there
  EXPECT_EQ(machine_->bus().code_generation(), invalidations);
  // Starts in granule 0 and ends in granule 1, overwriting the block's first word
  // with addi t2, zero, 7.
  machine_->bus().Write(kRam + 0x3C, 8, 0x0070039300000000);
  EXPECT_EQ(machine_->bus().code_generation(), invalidations + 1);
  hart_->set_gpr(t0, 0);
  RunPass(kRam + 0x40);
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  EXPECT_EQ(hart_->gpr(t0), 0u);  // the old addi t0, zero, 1 no longer runs
}

TEST_F(SuperblockTest, MisalignedStoreStraddlingIntoCodePageInvalidates) {
  WarmBlock(kRam + 0x1000);
  const uint64_t invalidations = machine_->bus().code_generation();
  // Starts at the end of a page nothing executed from, ends in the code page's
  // first granule.
  machine_->bus().Write(kRam + 0xFFC, 8, 0x0070039300000000);
  EXPECT_EQ(machine_->bus().code_generation(), invalidations + 1);
  hart_->set_gpr(t0, 0);
  RunPass(kRam + 0x1000);
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  EXPECT_EQ(hart_->gpr(t0), 0u);
}

TEST_F(SuperblockTest, WriteBytesIntoCodeInvalidates) {
  WarmBlock();
  const uint32_t word = 0x00700393;  // addi t2, zero, 7
  ASSERT_TRUE(machine_->bus().WriteBytes(kRam + 8, &word, sizeof word));
  hart_->set_gpr(t2, 0);
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
}

TEST_F(ThreadedTierTest, StoreToOneCodePageKeepsOtherPagesLoweredBlocks) {
  constexpr uint64_t kPageA = kRam;
  constexpr uint64_t kPageB = kRam + 0x2000;
  WarmBlock(kPageA);
  WarmBlock(kPageB);
  const uint64_t promotions = hart_->threaded_promotions();
  machine_->bus().Write(kPageA + 8, 4, 0x00700393);  // addi t2, zero, 7
  RunPass(kPageB);  // page B's lowering is untouched by a store to page A
  EXPECT_EQ(hart_->superblock_hits(), 3u);
  EXPECT_EQ(hart_->threaded_promotions(), promotions);
  EXPECT_EQ(hart_->gpr(t2), 3u);
  RunPass(kPageA);  // page A's is stale
  EXPECT_EQ(hart_->superblock_hits(), 3u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
}

TEST_F(TlbTest, StoreToFetchWalkPteInvalidatesDecodeCache) {
  // Code at VA 0x4000 through a 4 KiB mapping (L0[4], made executable) onto
  // kRam+0x6000; a second copy of the word, differing in its immediate, at
  // kRam+0x7000. Remapping VA 0x4000 stores only into the page table, never into
  // either code page: the cached decode must still go.
  Bus& bus = machine_->bus();
  bus.Write(kRam + 0x3000 + 8 * 4, 8, (((kRam + 0x6000) >> 12) << 10) | 0xCF);  // V R W X A D
  bus.Write(kRam + 0x6000, 4, 0x00100293);  // addi t0, zero, 1
  bus.Write(kRam + 0x7000, 4, 0x00200293);  // addi t0, zero, 2
  hart_->set_pc(0x4000);
  hart_->Tick();
  ASSERT_EQ(hart_->gpr(t0), 1u);
  hart_->set_pc(0x4000);
  hart_->Tick();
  ASSERT_EQ(hart_->decode_cache_hits(), 1u);
  const uint64_t pt_invalidations = bus.pt_generation();
  bus.Write(kRam + 0x3000 + 8 * 4, 8, (((kRam + 0x7000) >> 12) << 10) | 0xCF);
  EXPECT_EQ(bus.pt_generation(), pt_invalidations + 1);
  hart_->set_pc(0x4000);
  hart_->Tick();
  EXPECT_EQ(hart_->gpr(t0), 2u);
  EXPECT_EQ(hart_->decode_cache_hits(), 1u);
}

TEST(QuantumCodeInvalidationTest, BarrierStoreInvalidatesOtherHartsBlock) {
  // Hart 1 spins in a counting loop whose increment hart 0 patches from +1 to +7.
  // Under the quantum schedule hart 0's store is buffered and reaches RAM at a
  // barrier; hart 1's lowered loop must then go stale, so the loop ends with some
  // +7 iterations. Serial and parallel segments must agree bit for bit.
  const auto run = [](bool parallel) {
    MachineConfig config;
    config.hart_count = 2;
    config.tuning.quantum_harts = !parallel;
    config.tuning.parallel_harts = parallel;
    Machine machine(config);
    Assembler a(kRam);
    a.Csrr(t0, kCsrMhartid);
    a.Bnez(t0, "hart1");
    a.Li(t1, 2000);  // hart 0: let hart 1 build and run its block first
    a.Bind("delay");
    a.Addi(t1, t1, -1);
    a.Bnez(t1, "delay");
    a.La(a3, "patch");
    a.Li(a4, 0x00790913);  // addi s2, s2, 7
    a.Sw(a4, a3, 0);
    a.Bind("park");
    a.J("park");
    a.Align(4096);  // hart 1's loop on its own page
    a.Bind("hart1");
    a.Li(s2, 0);
    a.Li(s3, 20000);
    a.Li(s4, 0);
    a.Bind("loop");
    a.Bind("patch");
    a.Addi(s2, s2, 1);
    a.Addi(s4, s4, 1);
    a.Blt(s4, s3, "loop");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    const bool finished = machine.RunUntilFinished(1'000'000);
    const Hart& hart1 = machine.hart(1);
    return std::make_tuple(finished, hart1.gpr(s2), hart1.instret(), hart1.cycles(),
                           machine.hart(0).instret());
  };
  const auto serial = run(false);
  EXPECT_TRUE(std::get<0>(serial));
  const uint64_t s2 = std::get<1>(serial);
  EXPECT_GT(s2, 20000u);          // the patch took effect...
  EXPECT_LT(s2, 7u * 20000u);     // ...after hart 1 had run its loop unpatched
  EXPECT_EQ((s2 - 20000) % 6, 0u);
  EXPECT_EQ(serial, run(true));
}

// Fused ops retire several instructions at once, so a batch boundary that falls
// inside one cannot be honoured by the op: the block deopts at the op's first
// member and RunBatch Tick()s the members up to the exact boundary. The loop below
// carries a four-member li/addi/xori constant chain and a fused slt+bnez, and is run
// with boundaries at every offset — through tiny max_batch_instructions, and through
// stop-cycle edges a few cycles apart — against the decode-cache-only tuning (the
// dcache-notlb lockstep point), which has no block tier.
class FusedOpBoundaryTest : public ::testing::Test {
 protected:
  // Hart state after every batch: (pc, instret, cycles, batch executed, retired).
  using BatchTrace = std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>>;
  struct Outcome {
    BatchTrace trace;
    bool finished = false;
    uint64_t s4 = 0;
    uint64_t deopts = 0;
  };

  // Runs the loop in batches of at most `max_batch` instructions, each also ending
  // at a stop-cycle edge `stop_step` cycles out (0: no edge).
  static Outcome Run(bool block_tier, uint32_t max_batch, uint64_t stop_step) {
    MachineConfig config;
    config.tuning.decode_cache_entries = 16384;
    config.tuning.tlb_entries = 0;
    config.tuning.superblock_entries = block_tier ? 2048 : 0;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    Assembler a(kRam);
    a.Li(s2, 0);
    a.Li(s3, 40);
    a.Li(s4, 0);
    a.Bind("loop");
    a.Li(a0, 0x12345678);  // lui + addiw: the head of a constant chain
    a.Addi(a0, a0, 3);
    a.Xori(a0, a0, 0x55);
    a.Add(s4, s4, a0);
    a.Add(s4, s4, s2);
    a.Addi(s2, s2, 1);
    a.Slt(t0, s2, s3);  // fuses with the bnez below
    a.Bnez(t0, "loop");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    Outcome out;
    for (int i = 0; i < 10000 && !machine.finisher().finished(); ++i) {
      const uint64_t stop = stop_step == 0 ? ~uint64_t{0} : hart.cycles() + stop_step;
      const Hart::BatchResult batch = hart.RunBatch(max_batch, stop);
      out.trace.emplace_back(hart.pc(), hart.instret(), hart.cycles(), batch.executed,
                             batch.retired);
    }
    out.finished = machine.finisher().finished();
    out.s4 = hart.gpr(s4);
    out.deopts = hart.threaded_deopts();
    return out;
  }
};

TEST_F(FusedOpBoundaryTest, MaxBatchBoundaryInsideFusedOpsMatchesDecodeCacheOnly) {
  for (const uint32_t max_batch : {1u, 2u, 3u, 5u, 7u, 11u}) {
    SCOPED_TRACE(max_batch);
    const Outcome lowered = Run(true, max_batch, 0);
    const Outcome reference = Run(false, max_batch, 0);
    EXPECT_TRUE(lowered.finished);
    EXPECT_EQ(lowered.s4, reference.s4);
    EXPECT_EQ(lowered.trace, reference.trace);
    EXPECT_GE(lowered.deopts, 1u);  // a boundary really fell inside a fused op
  }
}

TEST_F(FusedOpBoundaryTest, StopCycleEdgeInsideFusedOpsMatchesDecodeCacheOnly) {
  for (const uint64_t stop_step : {1u, 2u, 3u, 5u, 7u, 13u}) {
    SCOPED_TRACE(stop_step);
    const Outcome lowered = Run(true, 4096, stop_step);
    const Outcome reference = Run(false, 4096, stop_step);
    EXPECT_TRUE(lowered.finished);
    EXPECT_EQ(lowered.s4, reference.s4);
    EXPECT_EQ(lowered.trace, reference.trace);
    EXPECT_GE(lowered.deopts, 1u);
  }
}

// -- WFI idle fast-forward (Machine::FastForwardIdle). ------------------------------

TEST(IdleFastForwardTest, WakesOnExactCycleOfPerInstructionLoop) {
  // A hart that parks in WFI until an mtimecmp deadline must wake on exactly the
  // same cycle whether the machine single-steps every idle round or fast-forwards.
  const auto run = [](bool batched) {
    MachineConfig config;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    Assembler a(kRam);
    a.Li(t0, 0x200'0000 + Clint::kMtimecmpBase);
    a.Li(t1, 40);  // wake at mtime tick 40
    a.Sd(t1, t0, 0);
    a.Li(t2, uint64_t{1} << 7);  // mie.MTIE; mstatus.MIE stays 0, so no trap is taken
    a.Csrw(kCsrMie, t2);
    a.Wfi();
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    bool finished = false;
    if (batched) {
      finished = machine.RunUntilFinished(100000);
    } else {
      for (uint64_t round = 0; round < 100000 && !machine.finisher().finished();
           ++round) {
        machine.StepAll();
      }
      finished = machine.finisher().finished();
    }
    return std::make_tuple(finished, hart.cycles(), hart.instret(),
                           machine.clint().mtime());
  };
  const auto fast_forwarded = run(true);
  const auto stepped = run(false);
  EXPECT_TRUE(std::get<0>(fast_forwarded));
  EXPECT_EQ(fast_forwarded, stepped);
}

}  // namespace
}  // namespace vfm
