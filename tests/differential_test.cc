// Cross-implementation differential properties. Three independent implementations of
// the privileged architecture live in this repository (the hart simulator, the
// monitor's virtual hart, the reference model); src/verif checks monitor-vs-reference,
// and this suite closes the triangle by stepping the *simulator* against the
// reference model, and by checking full-system invariants across world switches.

#include <array>

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/common/state.h"
#include "src/isa/disasm.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/refmodel/refmodel.h"
#include "src/sim/machine.h"
#include "src/workloads/workloads.h"

namespace vfm {
namespace {

// ---- Hart-vs-refmodel stepping of privileged instructions. -----------------------
//
// The sweep is value-parameterized over the decode-cache x TLB matrix: the simulator
// claims both accelerations are behavior-invisible, so the refmodel agreement must
// hold identically under every tuning (the same property the cosim fuzzer checks
// end-to-end on whole programs).

struct TuningCase {
  const char* name;
  SimTuning tuning;
};

class HartVsRefTest : public ::testing::TestWithParam<TuningCase> {
 protected:
  void SetUp() override {
    MachineConfig config;
    config.hart_count = 1;
    config.tuning = GetParam().tuning;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
    ref_config_.pmp_entries = 8;
  }

  // Loads an identical random privileged state into the hart and the model.
  void RandomizeBoth(Rng& rng) {
    CsrFile& csrs = hart_->csrs();
    const uint16_t sweep[] = {kCsrMstatus, kCsrMie,  kCsrMideleg, kCsrMedeleg, kCsrMtvec,
                              kCsrMepc,    kCsrMcause, kCsrMscratch, kCsrStvec, kCsrSepc,
                              kCsrSscratch, kCsrSatp, kCsrScounteren, kCsrMcounteren,
                              kCsrScause,  kCsrStval, kCsrMtval,   kCsrMenvcfg};
    for (uint16_t addr : sweep) {
      csrs.Set(addr, rng.NextAdversarial());
    }
    csrs.set_mip_sw(rng.Next());
    // The reference model has no memory: keep translation bare so the hart's fetch
    // always succeeds and both implementations see the same instruction.
    csrs.Set(kCsrSatp, 0);
    // Mirror into the reference state.
    ref_ = RefState();
    ref_.mstatus = csrs.Get(kCsrMstatus);
    ref_.mie = csrs.Get(kCsrMie);
    ref_.mip = csrs.Get(kCsrMip);
    ref_.mideleg = csrs.Get(kCsrMideleg);
    ref_.medeleg = csrs.Get(kCsrMedeleg);
    ref_.mtvec = csrs.Get(kCsrMtvec);
    ref_.mepc = csrs.Get(kCsrMepc);
    ref_.mcause = csrs.Get(kCsrMcause);
    ref_.mtval = csrs.Get(kCsrMtval);
    ref_.mscratch = csrs.Get(kCsrMscratch);
    ref_.stvec = csrs.Get(kCsrStvec);
    ref_.sepc = csrs.Get(kCsrSepc);
    ref_.sscratch = csrs.Get(kCsrSscratch);
    ref_.satp = csrs.Get(kCsrSatp);
    ref_.scounteren = csrs.Get(kCsrScounteren);
    ref_.mcounteren = csrs.Get(kCsrMcounteren);
    ref_.scause = csrs.Get(kCsrScause);
    ref_.stval = csrs.Get(kCsrStval);
    ref_.menvcfg = csrs.Get(kCsrMenvcfg);
    ref_.mcycle = csrs.Get(kCsrMcycle);
    ref_.minstret = csrs.Get(kCsrMinstret);

    const PrivMode priv =
        std::array{PrivMode::kUser, PrivMode::kSupervisor, PrivMode::kMachine}[rng.NextBelow(3)];
    hart_->set_priv(priv);
    ref_.priv = priv;
    // Open all memory so instruction fetch at any privilege works.
    hart_->csrs().pmp().SetCfg(7, PmpCfg::FromByte(0x1F));
    hart_->csrs().pmp().SetAddr(7, (uint64_t{1} << 54) - 1);
    hart_->set_pc(0x8000'0000);
    hart_->set_waiting(false);  // a wfi from a previous iteration must not leak
    ref_.pc = 0x8000'0000;
    for (unsigned i = 1; i < 32; ++i) {
      const uint64_t value = rng.NextAdversarial();
      hart_->set_gpr(i, value);
      ref_.gpr[i] = value;
    }
  }

  void CompareCsrs(const char* context) {
    const uint16_t sweep[] = {kCsrMstatus, kCsrMie,   kCsrMideleg, kCsrMedeleg, kCsrMtvec,
                              kCsrMepc,    kCsrMcause, kCsrMtval,  kCsrMscratch, kCsrStvec,
                              kCsrSepc,    kCsrSscratch, kCsrSatp, kCsrScause,  kCsrStval,
                              kCsrSstatus, kCsrSie,   kCsrSip};
    for (uint16_t addr : sweep) {
      ASSERT_EQ(hart_->csrs().Get(addr), RefCsrGet(ref_config_, ref_, addr))
          << context << ": " << CsrName(addr);
    }
    ASSERT_EQ(hart_->pc(), ref_.pc) << context << ": pc";
    ASSERT_EQ(hart_->priv(), ref_.priv) << context << ": priv";
    for (unsigned i = 0; i < 32; ++i) {
      ASSERT_EQ(hart_->gpr(i), ref_.gpr[i]) << context << ": x" << i;
    }
  }

  std::unique_ptr<Machine> machine_;
  Hart* hart_;
  RefConfig ref_config_;
  RefState ref_;
};

TEST_P(HartVsRefTest, PrivilegedInstructionStepAgreement) {
  Rng rng(0xD1FF);
  static const uint32_t kFixed[] = {0x30200073, 0x10200073, 0x10500073,
                                    0x00000073, 0x00100073, 0x12000073};
  for (int iter = 0; iter < 12'000; ++iter) {
    RandomizeBoth(rng);
    uint32_t raw;
    if (rng.Chance(1, 3)) {
      raw = kFixed[rng.NextBelow(std::size(kFixed))];
    } else {
      static const unsigned kFunct3[6] = {1, 2, 3, 5, 6, 7};
      static const uint16_t kCsrs[] = {kCsrMstatus, kCsrMscratch, kCsrMie,  kCsrMip,
                                       kCsrSstatus, kCsrSatp,     kCsrSepc, kCsrMtvec,
                                       kCsrTime,    kCsrMhartid,  kCsrSie};
      raw = (static_cast<uint32_t>(kCsrs[rng.NextBelow(std::size(kCsrs))]) << 20) |
            (static_cast<uint32_t>(rng.NextBelow(32)) << 15) |
            (kFunct3[rng.NextBelow(6)] << 12) | (static_cast<uint32_t>(rng.NextBelow(32)) << 7) |
            0x73;
    }
    machine_->bus().Write(hart_->pc(), 4, raw);
    const DecodedInstr instr = Decode(raw);
    // Interrupts are sampled before execution, in both implementations.
    const std::optional<uint64_t> interrupt = RefPendingInterrupt(ref_);
    hart_->Tick();
    if (interrupt.has_value()) {
      RefTrapEntry(&ref_, *interrupt, 0);
    } else {
      const RefStepResult expected = RefStep(ref_config_, ref_, instr);
      ref_ = expected.state;
    }
    CompareCsrs(Disassemble(instr).c_str());
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST_P(HartVsRefTest, InterruptSelectionAgreement) {
  Rng rng(0x1D7);
  for (int iter = 0; iter < 20'000; ++iter) {
    RandomizeBoth(rng);
    // Randomize hardware lines as well.
    hart_->csrs().SetInterruptLine(InterruptCause::kMachineTimer, rng.Chance(1, 2));
    hart_->csrs().SetInterruptLine(InterruptCause::kMachineSoftware, rng.Chance(1, 2));
    hart_->csrs().SetInterruptLine(InterruptCause::kSupervisorExternal, rng.Chance(1, 2));
    ref_.mip = hart_->csrs().Get(kCsrMip);
    ASSERT_EQ(hart_->PendingInterrupt(), RefPendingInterrupt(ref_)) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TuningMatrix, HartVsRefTest,
    ::testing::Values(TuningCase{"NocacheNotlb", {0, 4096, 0, 0}},
                      TuningCase{"DcacheNotlb", {16384, 4096, 0, 0}},
                      TuningCase{"NocacheTlb", {0, 4096, 4096, 0}},
                      TuningCase{"TinyDcacheTlb", {64, 4096, 64, 0}},
                      TuningCase{"TinySuperblock", {64, 4096, 64, 4}},
                      TuningCase{"Threaded", {16384, 4096, 4096, 2048}}),
    [](const ::testing::TestParamInfo<TuningCase>& tc) { return tc.param.name; });

// ---- Full-system invariant: world switches never perturb OS state. ---------------

TEST(WorldSwitchPropertyTest, RoundTripPreservesSupervisorState) {
  Rng rng(0x505);
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  for (int iter = 0; iter < 24; ++iter) {
    const uint64_t sscratch = rng.Next();
    const uint64_t stvec_base = 0x8041'0000 + (rng.Next() & 0xFFC);
    const uint64_t sepc = 0x8042'0000 + (rng.Next() & 0xFFC);
    KernelConfig config;
    config.base = profile.kernel_base;
    KernelBuilder kb(config);
    Assembler& a = kb.assembler();
    // Plant random supervisor state (stvec is planted via sscratch-like storage: the
    // kernel must keep a working stvec, so scratch registers carry the test values).
    a.Li(t0, sscratch);
    a.Csrw(kCsrSscratch, t0);
    a.Li(t0, sepc);
    a.Csrw(kCsrSepc, t0);
    a.Li(s2, stvec_base);
    // A non-offloaded SBI call: full world switch round trip through the firmware.
    a.Li(a7, SbiExt::kBase);
    a.Li(a6, SbiFunc::kGetSpecVersion);
    a.Ecall();
    // Read everything back.
    a.Csrr(a0, kCsrSscratch);
    kb.EmitStoreResult(KernelSlots::kScratch);
    a.Csrr(a0, kCsrSepc);
    kb.EmitStoreResult(KernelSlots::kScratch + 1);
    a.Mv(a0, s2);
    kb.EmitStoreResult(KernelSlots::kScratch + 2);
    kb.EmitFinish(/*pass=*/true);
    System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
    ASSERT_TRUE(system.machine->RunUntilFinished(30'000'000));
    EXPECT_EQ(system.ReadResult(KernelSlots::kScratch), sscratch);
    EXPECT_EQ(system.ReadResult(KernelSlots::kScratch + 1), sepc);
    EXPECT_EQ(system.ReadResult(KernelSlots::kScratch + 2), stvec_base);
  }
}

// ---- Monitored runs with the host caches on and off. -----------------------------
//
// The decode cache, TLB and block tier are keyed on the physical PMP bank's content,
// which the monitor rewrites on every world switch, and they cache identity
// translations for the deprivileged firmware. They must stay invisible: the
// memcached-latency guest, which takes every offloaded trap cause, must end in the
// same hart state, cycles, monitor counters and console output with them on and off.

struct MonitoredRun {
  std::vector<uint8_t> hart_state;     // Hart::SaveState
  std::vector<uint8_t> monitor_state;  // Monitor::SaveState
  MonitorStats stats;
  std::string uart;
  uint64_t cycles = 0;
  uint64_t instret = 0;
  uint64_t requests = 0;
  uint64_t check = 0;
};

MonitoredRun RunMemcachedLatency(DeployMode mode, bool host_caches) {
  PlatformProfile platform = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  if (!host_caches) {
    platform.machine.tuning.decode_cache_entries = 0;
    platform.machine.tuning.tlb_entries = 0;
    platform.machine.tuning.superblock_entries = 0;
  }
  WorkloadProfile profile = MemcachedLatencyProfile();
  profile.requests = 30;
  profile.misaligned_per_request = 1;  // every offloaded cause in the mix
  profile.rfences_per_request = 1;
  System system = BootSystem(platform, mode, BuildWorkloadKernel(platform, profile));
  EXPECT_TRUE(system.machine->RunUntilFinished(200'000'000));
  MonitoredRun run;
  const Hart& hart = system.machine->hart(0);
  StateWriter hart_writer;
  hart.SaveState(hart_writer);
  run.hart_state = hart_writer.Take();
  StateWriter monitor_writer;
  system.monitor->SaveState(monitor_writer);
  run.monitor_state = monitor_writer.Take();
  run.stats = system.monitor->stats();
  run.uart = system.machine->uart().output();
  run.cycles = hart.cycles();
  run.instret = hart.instret();
  run.requests = system.ReadResult(KernelSlots::kScratch);
  run.check = system.ReadResult(KernelSlots::kScratch + 1);
  return run;
}

TEST(MonitoredCachesTest, CachesOnAndOffAgree) {
  for (DeployMode mode : {DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    SCOPED_TRACE(DeployModeName(mode));
    const MonitoredRun cached = RunMemcachedLatency(mode, true);
    const MonitoredRun reference = RunMemcachedLatency(mode, false);
    EXPECT_EQ(cached.requests, 30u);
    EXPECT_GT(cached.stats.os_traps, 30u);
    EXPECT_EQ(cached.requests, reference.requests);
    EXPECT_EQ(cached.check, reference.check);
    EXPECT_EQ(cached.cycles, reference.cycles);
    EXPECT_EQ(cached.instret, reference.instret);
    EXPECT_EQ(cached.uart, reference.uart);
    EXPECT_TRUE(cached.hart_state == reference.hart_state);
    EXPECT_TRUE(cached.monitor_state == reference.monitor_state);
    const MonitorStats& a = cached.stats;
    const MonitorStats& b = reference.stats;
    EXPECT_EQ(a.os_traps, b.os_traps);
    EXPECT_EQ(a.firmware_traps, b.firmware_traps);
    EXPECT_EQ(a.emulated_instrs, b.emulated_instrs);
    EXPECT_EQ(a.world_switches, b.world_switches);
    EXPECT_EQ(a.injected_interrupts, b.injected_interrupts);
    EXPECT_EQ(a.mmio_emulations, b.mmio_emulations);
    EXPECT_EQ(a.mprv_emulations, b.mprv_emulations);
    EXPECT_EQ(a.fastpath_hits, b.fastpath_hits);
    EXPECT_EQ(a.policy_denials, b.policy_denials);
    for (unsigned i = 0; i < static_cast<unsigned>(OsTrapCause::kCount); ++i) {
      EXPECT_EQ(a.os_traps_by_cause[i], b.os_traps_by_cause[i]) << "cause " << i;
    }
  }
}

}  // namespace
}  // namespace vfm
