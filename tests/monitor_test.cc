// Integration-grade unit tests for the monitor (src/core/monitor): trap dispatch,
// world switches, shadow-CSR round trips, virtual-device emulation, fast path vs
// re-injection equivalence, and the deny actions.

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

constexpr uint64_t kBudget = 30'000'000;

Image KernelWith(const PlatformProfile& profile,
                 const std::function<void(KernelBuilder&)>& body,
                 uint64_t timer_interval = 0) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.timer_interval = timer_interval;
  KernelBuilder kb(config);
  body(kb);
  kb.EmitFinish(/*pass=*/true);
  return kb.Finish();
}

TEST(MonitorTest, FirmwarePmpWritesReachPhysicalBank) {
  // After boot, the firmware's PMP programming (entries 0 and 1) must be installed in
  // the physical bank at the vPMP slots, with OS-world semantics.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder&) {}));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  const PmpBank& phys = system.machine->hart(0).csrs().pmp();
  // vPMP 0 (firmware self-protection, ---) landed at the first virtual slot.
  const PmpCfg slot0 = phys.GetCfg(VpmpLayout::kVpmpFirst);
  EXPECT_EQ(slot0.a, PmpAddrMode::kNapot);
  EXPECT_FALSE(slot0.r);
  // vPMP 1 (all-memory RWX) at the next slot.
  const PmpCfg slot1 = phys.GetCfg(VpmpLayout::kVpmpFirst + 1);
  EXPECT_TRUE(slot1.r && slot1.w && slot1.x);
  // Which means: the OS cannot read firmware memory, but can read its own.
  EXPECT_FALSE(phys.Check(profile.firmware_base, 8, AccessType::kLoad,
                          PrivMode::kSupervisor));
  EXPECT_TRUE(phys.Check(profile.kernel_base, 8, AccessType::kLoad,
                         PrivMode::kSupervisor));
}

TEST(MonitorTest, MonitorMemoryInvisibleToOs) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  // A kernel that tries to read monitor memory: the load must fault. The fault is
  // delegated (load access fault is in the firmware's medeleg), so the kernel's
  // handler sees it; our kernel treats it as fatal and the machine stops with code 1.
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(t0, profile.monitor_base);
  a.Ld(t1, t0, 0);  // should never succeed
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_NE(system.machine->finisher().exit_code(), 0u);
}

TEST(MonitorTest, TimeReadValuesMatchAcrossConfigurations) {
  // The emulated time value must be architecturally equivalent whether it comes from
  // the fast path, the virtualized firmware, or native firmware.
  for (DeployMode mode :
       {DeployMode::kNative, DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    SCOPED_TRACE(DeployModeName(mode));
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    System system = BootSystem(profile, mode, KernelWith(profile, [](KernelBuilder& kb) {
                                 kb.EmitTimeRead();
                                 kb.EmitStoreResult(KernelSlots::kScratch);
                                 kb.EmitTimeRead();
                                 kb.EmitStoreResult(KernelSlots::kScratch + 1);
                               }));
    ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
    const uint64_t first = system.ReadResult(KernelSlots::kScratch);
    const uint64_t second = system.ReadResult(KernelSlots::kScratch + 1);
    EXPECT_GT(first, 0u);
    EXPECT_GE(second, first);  // time is monotonic through every path
  }
}

TEST(MonitorTest, WorldSwitchPreservesOsSupervisorState) {
  // The OS's S-CSRs must survive a round trip through the virtualized firmware
  // (shadow save/install, §4.1).
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(t0, 0x1234'5678);
  a.Csrw(kCsrSscratch, t0);
  a.Li(a7, SbiExt::kBase);  // not fast-pathed: a full world switch round trip
  a.Li(a6, SbiFunc::kGetSpecVersion);
  a.Ecall();
  a.Csrr(a0, kCsrSscratch);
  kb.EmitStoreResult(KernelSlots::kScratch);
  a.Mv(a0, a1);  // the SBI result came back through a1
  kb.EmitStoreResult(KernelSlots::kScratch + 1);
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.ReadResult(KernelSlots::kScratch), 0x1234'5678u);
  EXPECT_EQ(system.ReadResult(KernelSlots::kScratch + 1), 0x0200'0000u);  // spec version
  EXPECT_GE(system.monitor->stats().world_switches, 1u);
}

TEST(MonitorTest, VirtualClintMmioEmulation) {
  // The firmware reads mtime through the protected CLINT window; the monitor
  // emulates the access (mmio_emulations > 0 after a no-offload time read).
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               kb.EmitTimeRead();
                             }));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_GT(system.monitor->stats().mmio_emulations, 0u);
  EXPECT_GT(system.monitor->stats().emulated_instrs, 0u);
}

TEST(MonitorTest, FastPathCountsAndAvoidsWorldSwitches) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               for (int i = 0; i < 50; ++i) {
                                 kb.EmitTimeRead();
                               }
                               kb.EmitSetTimerRelative(1'000'000);
                             }));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  const MonitorStats& stats = system.monitor->stats();
  EXPECT_GE(stats.fastpath_hits, 51u);
  EXPECT_GE(stats.os_traps_by_cause[static_cast<unsigned>(OsTrapCause::kTimeRead)], 50u);
  EXPECT_GE(stats.os_traps_by_cause[static_cast<unsigned>(OsTrapCause::kSetTimer)], 1u);
  // The boot mret plus possibly a banner's worth of putchar switches, but the fast
  // path ops themselves caused none: far fewer switches than fast-path hits.
  EXPECT_LT(stats.world_switches, stats.fastpath_hits);
}

TEST(MonitorTest, NoOffloadReinjectsEverything) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               for (int i = 0; i < 20; ++i) {
                                 kb.EmitTimeRead();
                               }
                             }));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  const MonitorStats& stats = system.monitor->stats();
  EXPECT_EQ(stats.fastpath_hits, 0u);
  EXPECT_GE(stats.world_switches, 20u);
}

TEST(MonitorTest, WorldSwitchRoundTripsKeepCachedCode) {
  // Each non-offloaded time read is a world-switch round trip, and each switch
  // rewrites the physical PMP bank. Returning to the OS restores the configuration
  // the OS's code was decoded and lowered under, and the firmware world's
  // configuration recurs too, so a loop of such reads stops re-decoding and
  // rebuilding after its first iterations.
  struct Counts {
    uint64_t world_switches;
    uint64_t decode_misses;
    uint64_t blocks_built;
  };
  const auto run = [](uint64_t iterations) {
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    System system =
        BootSystem(profile, DeployMode::kMiralisNoOffload,
                   KernelWith(profile, [iterations](KernelBuilder& kb) {
                     Assembler& a = kb.assembler();
                     a.Li(s7, iterations);
                     a.Bind("time_loop");
                     kb.EmitTimeRead();
                     a.Addi(s7, s7, -1);
                     a.Bnez(s7, "time_loop");
                   }));
    EXPECT_TRUE(system.machine->RunUntilFinished(kBudget));
    const Hart& hart = system.machine->hart(0);
    return Counts{system.monitor->stats().world_switches, hart.decode_cache_misses(),
                  hart.threaded_promotions()};
  };
  const Counts short_run = run(20);
  const Counts long_run = run(220);
  const uint64_t extra_switches = long_run.world_switches - short_run.world_switches;
  EXPECT_GE(extra_switches, 200u);
  EXPECT_LT(long_run.decode_misses - short_run.decode_misses, extra_switches / 10);
  EXPECT_LT(long_run.blocks_built - short_run.blocks_built, extra_switches / 10);
}

TEST(MonitorTest, TimerInterruptInjectionIntoFirmware) {
  // With no offload, timer delivery requires injecting a virtual M-timer interrupt
  // into the firmware, which then raises STIP for the OS.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(
      profile, DeployMode::kMiralisNoOffload,
      KernelWith(
          profile,
          [](KernelBuilder& kb) {
            kb.EmitSetTimerRelative(100);
            kb.EmitWaitSlotAtLeast(KernelSlots::kTimerTicks, 3);
          },
          /*timer_interval=*/300));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_GE(system.ReadResult(KernelSlots::kTimerTicks), 3u);
  EXPECT_GT(system.monitor->stats().injected_interrupts, 0u);
}

TEST(MonitorTest, LogAndContinueDenyMode) {
  // Production deny behaviour (§5.2): log, return arbitrary values, keep running.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system;
  system.machine = std::make_unique<Machine>(profile.machine);
  // A firmware that reads OS memory in its trap path would be denied under a policy;
  // here we exercise DenyAction directly through a monitor with the relaxed config.
  MonitorConfig mconfig;
  mconfig.monitor_base = profile.monitor_base;
  mconfig.monitor_size = profile.monitor_size;
  mconfig.firmware_entry = profile.firmware_base;
  mconfig.stop_on_policy_deny = false;
  Monitor monitor(system.machine.get(), mconfig);
  Hart& hart = system.machine->hart(0);
  // Stage a fake firmware load instruction and trap state.
  const uint32_t ld = 0x00033283;  // ld t0, 0(t1)
  system.machine->bus().Write(profile.firmware_base, 4, ld);
  hart.csrs().Set(kCsrMepc, profile.firmware_base);
  monitor.Boot();
  monitor.DenyAction(hart, "test access", 0x1234);
  EXPECT_FALSE(system.machine->finisher().finished());
  EXPECT_EQ(monitor.stats().policy_denials, 1u);
  EXPECT_EQ(hart.pc(), profile.firmware_base + 4);  // skipped past the instruction
  EXPECT_EQ(hart.gpr(5), 0u);                       // rd zeroed
}

TEST(MonitorTest, StatsClassifyCauses) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               kb.EmitTimeRead();
                               kb.EmitSendIpi(1);
                               kb.EmitRemoteFence(1);
                               kb.EmitMisalignedLoad();
                             }));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  const auto& causes = system.monitor->stats().os_traps_by_cause;
  EXPECT_GE(causes[static_cast<unsigned>(OsTrapCause::kTimeRead)], 1u);
  EXPECT_GE(causes[static_cast<unsigned>(OsTrapCause::kIpi)], 1u);
  EXPECT_GE(causes[static_cast<unsigned>(OsTrapCause::kRemoteFence)], 1u);
  EXPECT_GE(causes[static_cast<unsigned>(OsTrapCause::kMisaligned)], 1u);
}

TEST(MonitorTest, CustomCsrsVirtualizedOnP550) {
  // The P550 profile exposes four custom M-mode CSRs; a firmware writing them (as the
  // real board's firmware does for speculation control) must work virtualized. Our
  // opensbi-sim doesn't touch them, so exercise through the virtual CSR file.
  PlatformProfile profile = MakePlatform(PlatformKind::kP550Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder&) {}));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  VCsrFile& vcsr = system.monitor->vctx(0).csrs();
  EXPECT_TRUE(vcsr.Exists(kCsrCustom0));
  EXPECT_TRUE(vcsr.Write(kCsrCustom0, PrivMode::kMachine, 0x5EC));
  EXPECT_EQ(vcsr.Get(kCsrCustom0), 0x5ECu);
}

}  // namespace
}  // namespace vfm
