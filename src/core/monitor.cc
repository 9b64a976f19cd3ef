#include "src/core/monitor.h"

#include "src/common/bits.h"
#include "src/common/check.h"
#include "src/common/log.h"
#include "src/isa/disasm.h"
#include "src/isa/sbi.h"

#include "src/common/state.h"

namespace vfm {

namespace {

constexpr uint64_t kMonitorMie = InterruptMask(InterruptCause::kMachineTimer) |
                                 InterruptMask(InterruptCause::kMachineSoftware);
constexpr uint64_t kStipMask = InterruptMask(InterruptCause::kSupervisorTimer);
constexpr uint64_t kSsipMask = InterruptMask(InterruptCause::kSupervisorSoftware);

// ABI GPR indices used by the SBI calling convention.
constexpr unsigned kA0 = 10;
constexpr unsigned kA1 = 11;
constexpr unsigned kA6 = 16;
constexpr unsigned kA7 = 17;

bool OffloadAllowed(const MonitorConfig& config, OsTrapCause cause) {
  return config.offload_enabled &&
         (config.offload_mask & (uint32_t{1} << static_cast<unsigned>(cause))) != 0;
}

// Snapshots the trap the hart just delivered to M-mode from its machine CSRs.
TrapInfo CurrentMachineTrap(Hart& hart) {
  CsrFile& pcsr = hart.csrs();
  TrapInfo trap;
  trap.cause = pcsr.Get(kCsrMcause);
  trap.tval = pcsr.Get(kCsrMtval);
  trap.epc = pcsr.mepc();
  trap.priv = static_cast<PrivMode>(
      ExtractBits(pcsr.mstatus(), MstatusBits::kMppHi, MstatusBits::kMppLo));
  return trap;
}

}  // namespace

const char* OsTrapCauseName(OsTrapCause cause) {
  switch (cause) {
    case OsTrapCause::kTimeRead:
      return "time-read";
    case OsTrapCause::kSetTimer:
      return "set-timer";
    case OsTrapCause::kMisaligned:
      return "misaligned";
    case OsTrapCause::kIpi:
      return "ipi";
    case OsTrapCause::kRemoteFence:
      return "remote-fence";
    case OsTrapCause::kOther:
      return "other";
    case OsTrapCause::kCount:
      break;
  }
  return "?";
}

Monitor::Monitor(Machine* machine, const MonitorConfig& config)
    : machine_(machine),
      config_(config),
      vclint_(&machine->clint(), machine->hart_count()) {
  const HartIsaConfig& isa = machine_->config().isa;
  vhart_template_.pmp_entries = VpmpLayout::VirtualEntries(isa.pmp_entries);
  vhart_template_.has_time_csr = isa.has_time_csr;
  vhart_template_.has_sstc = isa.has_sstc;
  vhart_template_.has_custom_csrs = isa.has_custom_csrs;
  vhart_template_.has_h_ext = isa.has_h_ext;
  for (unsigned i = 0; i < machine_->hart_count(); ++i) {
    VhartConfig vhart = vhart_template_;
    vhart.hart_index = i;
    harts_.push_back(std::make_unique<HartState>(vhart));
    Clint* clint = &machine_->clint();
    harts_.back()->vctx.csrs().set_time_source([clint] { return clint->mtime(); });
  }
}

void Monitor::SetPolicy(PolicyModule* policy) {
  policy_ = policy;
  if (policy_ != nullptr) {
    policy_->OnInit(*this);
  }
}

void Monitor::ChargeCsrAccesses(Hart& hart, unsigned count) {
  machine_->ChargeCycles(hart.index(), count * machine_->config().cost.hal_csr_access);
}

void Monitor::ChargeTlbFlush(Hart& hart) {
  // Everywhere the modeled hardware would flush its TLB (world switches, remote-fence
  // delivery, policy context switches), the simulator's software TLB is flushed too,
  // which keeps the "charged a flush" and "actually flushed" states in lockstep.
  // Correctness does not rest on it: TLB entries are keyed on the physical PMP
  // bank's content id, so an entry never hits under a configuration it was not
  // filled under. Decoded code and blocks do not depend on the TLB and survive the
  // flush; a switch back to a configuration they were built under finds them valid.
  hart.FlushTlb();
  machine_->ChargeCycles(hart.index(), machine_->config().cost.tlb_flush);
}

void Monitor::RebuildPmp(Hart& hart) {
  HartState& hs = state(hart);
  VpmpInputs inputs;
  inputs.monitor = {true, config_.monitor_base, config_.monitor_size, false, false, false};
  // The device window must be NAPOT-encodable: round the CLINT size up to a power of
  // two (the padding covers unmapped bus space, which would fault anyway).
  uint64_t vdev_size = 1;
  while (vdev_size < Clint::kSize) {
    vdev_size <<= 1;
  }
  inputs.vdev = {true, machine_->config().map.clint_base, vdev_size, false, false, false};
  inputs.firmware_world = hs.in_firmware;
  inputs.mprv_emulation =
      hs.in_firmware && Bit(hs.vctx.csrs().mstatus(), MstatusBits::kMprv) != 0 &&
      ExtractBits(hs.vctx.csrs().mstatus(), MstatusBits::kMppHi, MstatusBits::kMppLo) !=
          static_cast<uint64_t>(PrivMode::kMachine);
  if (policy_ != nullptr) {
    inputs.policy = policy_->PolicySlot(hart.index());
    inputs.firmware_default_override = policy_->FirmwareDefaultOverride(hart.index());
    inputs.suppress_vpmp = policy_->SuppressVpmp(hart.index());
  }
  ComputePhysicalPmp(hs.vctx.csrs(), inputs, &hart.csrs().pmp());
  ChargeCsrAccesses(hart, hart.csrs().pmp().entry_count() + 2);
}

void Monitor::Boot() {
  machine_->SetMmodeOwner(this);
  for (unsigned i = 0; i < machine_->hart_count(); ++i) {
    Hart& hart = machine_->hart(i);
    HartState& hs = *harts_[i];
    hs.vctx.set_pc(config_.firmware_entry);
    hs.vctx.set_priv(PrivMode::kMachine);
    hs.in_firmware = true;

    CsrFile& pcsr = hart.csrs();
    pcsr.Set(kCsrMedeleg, 0);
    pcsr.Set(kCsrMideleg, 0);
    pcsr.Set(kCsrMie, kMonitorMie);
    pcsr.Set(kCsrMtvec, config_.monitor_base);  // never fetched: the owner hook runs
    pcsr.Set(kCsrSatp, 0);
    hart.set_gpr(kA0, i);  // hart id, per the RISC-V boot convention
    hart.set_gpr(kA1, 0);  // no device tree in this platform model
    RebuildPmp(hart);
    hart.set_priv(PrivMode::kUser);  // vM-mode is physical U-mode
    hart.set_pc(config_.firmware_entry);
  }
  VFM_LOG_INFO("monitor", "booting virtual firmware at 0x%llx on %u hart(s)",
               static_cast<unsigned long long>(config_.firmware_entry),
               machine_->hart_count());
}

void Monitor::OnMachineTrap(Hart& hart) {
  RefreshVirtualClintLines();
  machine_->ChargeCycles(hart.index(), machine_->config().cost.monitor_dispatch);
  HartState& hs = state(hart);
  if (hs.in_firmware) {
    ++stats_.firmware_traps;
    HandleFirmwareTrap(hart);
  } else {
    ++stats_.os_traps;
    HandleOsTrap(hart);
  }
}

DecodedInstr Monitor::FetchFirmwareInstr(Hart& hart) {
  uint64_t word = 0;
  machine_->bus().Read(hart.csrs().mepc(), 4, &word);
  machine_->ChargeCycles(hart.index(), machine_->config().cost.hal_mem_access);
  return Decode(static_cast<uint32_t>(word));
}

// ---------------------------------------------------------------------------
// Firmware-world trap handling (software emulation, §4.1).
// ---------------------------------------------------------------------------

void Monitor::HandleFirmwareTrap(Hart& hart) {
  HartState& hs = state(hart);
  const TrapInfo trap = CurrentMachineTrap(hart);
  hs.vctx.set_pc(trap.epc);

  if (trap.is_interrupt()) {
    HandleMachineInterrupt(hart, trap.cause);
    return;
  }

  switch (static_cast<ExceptionCause>(trap.cause)) {
    case ExceptionCause::kIllegalInstr:
      EmulateFirmwareInstr(hart);
      return;
    case ExceptionCause::kEcallFromU: {
      // An ecall from vM-mode: the firmware calling its own environment.
      if (policy_ != nullptr &&
          policy_->OnFirmwareEcall(*this, hart.index()) == PolicyDecision::kHandled) {
        return;
      }
      hs.vctx.TakeVirtualTrap(CauseValue(ExceptionCause::kEcallFromM), 0);
      ResumeFirmware(hart);
      return;
    }
    case ExceptionCause::kLoadAccessFault:
    case ExceptionCause::kStoreAccessFault:
    case ExceptionCause::kLoadAddrMisaligned:
    case ExceptionCause::kStoreAddrMisaligned:
      HandleFirmwareMemFault(hart, trap);
      return;
    default: {
      // Breakpoints, fetch faults, and anything else the virtual machine would
      // deliver to M-mode are re-injected into the virtual firmware.
      if (policy_ != nullptr &&
          policy_->OnFirmwareTrap(*this, hart.index(), trap) == PolicyDecision::kHandled) {
        return;
      }
      hs.vctx.TakeVirtualTrap(trap.cause, trap.tval);
      ResumeFirmware(hart);
      return;
    }
  }
}

void Monitor::EmulateFirmwareInstr(Hart& hart) {
  HartState& hs = state(hart);
  const DecodedInstr instr = Decode(static_cast<uint32_t>(hart.csrs().Get(kCsrMtval)));
  ++stats_.emulated_instrs;

  uint64_t gprs[32];
  for (unsigned i = 0; i < 32; ++i) {
    gprs[i] = hart.gpr(i);
  }
  const EmulationResult result = hs.vctx.EmulatePrivileged(instr, gprs);
  for (unsigned i = 1; i < 32; ++i) {
    hart.set_gpr(i, gprs[i]);
  }
  ChargeCsrAccesses(hart, result.work_units + 4);

  // Writes to the virtual PMP or to mstatus (MPRV) change the physical protection
  // configuration and require reinstallation plus a TLB flush (§4.2).
  const bool touches_pmp =
      instr.csr >= kCsrPmpcfg0 && instr.csr < kCsrPmpaddr0 + 64 &&
      (instr.op == Op::kCsrrw || instr.op == Op::kCsrrs || instr.op == Op::kCsrrc ||
       instr.op == Op::kCsrrwi || instr.op == Op::kCsrrsi || instr.op == Op::kCsrrci);
  const bool touches_mstatus = instr.csr == kCsrMstatus || instr.csr == kCsrSstatus;
  if (touches_pmp || touches_mstatus) {
    RebuildPmp(hart);
    ChargeTlbFlush(hart);
  }

  switch (result.outcome) {
    case EmulationOutcome::kAdvance:
    case EmulationOutcome::kRedirect:
    case EmulationOutcome::kVirtualTrap:
      ResumeFirmware(hart);
      return;
    case EmulationOutcome::kWfi:
      hart.set_waiting(true);
      ResumeFirmware(hart);
      return;
    case EmulationOutcome::kReturnToLower:
      // A pending, enabled virtual M-level interrupt preempts the return to direct
      // execution (vM-level interrupts are unmaskable from virtual S/U-mode), exactly
      // as the reference machine would take it on the first instruction after mret.
      // Delegated S-level interrupts instead fire natively once the OS runs.
      if (hs.vctx.PendingVirtualMachineInterrupt().has_value()) {
        ResumeFirmware(hart);  // performs the injection
        return;
      }
      WorldSwitchToOs(hart);
      return;
  }
}

void Monitor::HandleFirmwareMemFault(Hart& hart, const TrapInfo& trap) {
  HartState& hs = state(hart);
  const uint64_t cause = trap.cause;
  const uint64_t addr = trap.tval;
  const MemoryMap& map = machine_->config().map;

  // Virtual CLINT window: the only MMIO device the monitor emulates itself (§4.3).
  if (addr >= map.clint_base && addr < map.clint_base + Clint::kSize) {
    if (EmulateVirtClintAccess(hart, addr)) {
      return;
    }
  }

  // MPRV emulation: the firmware accesses memory through the OS page tables (§4.2).
  const uint64_t vmstatus = hs.vctx.csrs().mstatus();
  const bool mprv = Bit(vmstatus, MstatusBits::kMprv) != 0 &&
                    ExtractBits(vmstatus, MstatusBits::kMppHi, MstatusBits::kMppLo) !=
                        static_cast<uint64_t>(PrivMode::kMachine);
  if (mprv) {
    if (EmulateMprvAccess(hart, cause, addr)) {
      return;
    }
  }

  if (policy_ != nullptr) {
    const PolicyDecision decision = policy_->OnFirmwareTrap(*this, hart.index(), trap);
    if (decision == PolicyDecision::kHandled) {
      return;
    }
    if (decision == PolicyDecision::kDeny) {
      DenyAction(hart, "firmware memory access", addr);
      return;
    }
  }

  // Default: the fault is architecturally visible to the virtual firmware.
  hs.vctx.TakeVirtualTrap(cause, addr);
  ResumeFirmware(hart);
}

bool Monitor::EmulateVirtClintAccess(Hart& hart, uint64_t addr) {
  HartState& hs = state(hart);
  const DecodedInstr instr = FetchFirmwareInstr(hart);
  const MemAccess access = MemAccessOf(instr.op);
  if (access.size == 0) {
    return false;  // not a plain load/store (e.g. an AMO): not emulated
  }
  const uint64_t offset = addr - machine_->config().map.clint_base;
  ++stats_.mmio_emulations;
  ChargeCsrAccesses(hart, 6);

  if (access.load()) {
    uint64_t value = 0;
    if (!vclint_.Read(offset, access.size, &value)) {
      return false;
    }
    hart.set_gpr(instr.rd, access.Extend(value));
  } else {
    if (!vclint_.Write(offset, access.size, hart.gpr(instr.rs2))) {
      return false;
    }
    RefreshVirtualClintLines();
    // A virtual mtimecmp write retargets that hart's physical comparator; a virtual
    // msip write pokes the target hart so the monitor can inject the interrupt there.
    if (offset >= Clint::kMtimecmpBase &&
        offset < Clint::kMtimecmpBase + 8 * machine_->hart_count()) {
      const unsigned target = static_cast<unsigned>((offset - Clint::kMtimecmpBase) / 8);
      Hart& target_hart = machine_->hart(target);
      ReprogramPhysTimer(target_hart);
    } else if (offset < 4 * machine_->hart_count()) {
      const unsigned target = static_cast<unsigned>(offset / 4);
      if (target != hart.index() && vclint_.VirtualMsip(target)) {
        SendPhysIpi(target);
      }
    }
  }
  hs.vctx.set_pc(hart.csrs().mepc() + 4);
  ResumeFirmware(hart);
  return true;
}

bool Monitor::EmulateMprvAccess(Hart& hart, uint64_t cause, uint64_t addr) {
  HartState& hs = state(hart);
  const DecodedInstr instr = FetchFirmwareInstr(hart);
  const MemAccess access = MemAccessOf(instr.op);
  if (access.size == 0) {
    return false;
  }
  ++stats_.mprv_emulations;
  const uint64_t vmstatus = hs.vctx.csrs().mstatus();
  const PrivMode eff_priv = static_cast<PrivMode>(
      ExtractBits(vmstatus, MstatusBits::kMppHi, MstatusBits::kMppLo));
  const uint64_t satp = hs.vctx.csrs().Get(kCsrSatp);

  // The reference machine would check this access against the firmware's own PMP
  // configuration at the effective privilege, not against the host bank (whose
  // X-only cover exists precisely to force this trap).
  const VCsrFile& vcsr = hs.vctx.csrs();
  PmpBank& vbank = hs.mprv_pmp;
  for (unsigned i = 0; i < vcsr.config().pmp_entries; ++i) {
    vbank.SetCfg(i, PmpCfg::FromByte(vcsr.pmpcfg_byte(i)));
    vbank.SetAddr(i, vcsr.pmpaddr(i));
  }

  const bool is_load = access.load();
  uint64_t assembled = 0;
  for (unsigned i = 0; i < access.size; ++i) {
    machine_->ChargeCycles(hart.index(), machine_->config().cost.hal_mem_access +
                                             machine_->config().cost.page_walk_level);
    if (is_load) {
      uint64_t byte = 0;
      const Hart::MemResult r = hart.ReadMemoryAs(eff_priv, satp, addr + i, 1, &byte, &vbank);
      if (!r.ok) {
        hs.vctx.TakeVirtualTrap(CauseValue(r.cause), addr + i);
        ResumeFirmware(hart);
        return true;
      }
      assembled |= byte << (8 * i);
    } else {
      const uint64_t byte = (hart.gpr(instr.rs2) >> (8 * i)) & 0xFF;
      const Hart::MemResult r = hart.WriteMemoryAs(eff_priv, satp, addr + i, 1, byte, &vbank);
      if (!r.ok) {
        hs.vctx.TakeVirtualTrap(CauseValue(r.cause), addr + i);
        ResumeFirmware(hart);
        return true;
      }
    }
  }
  (void)cause;
  if (is_load) {
    hart.set_gpr(instr.rd, access.Extend(assembled));
  }
  hs.vctx.set_pc(hart.csrs().mepc() + 4);
  ResumeFirmware(hart);
  return true;
}

// ---------------------------------------------------------------------------
// OS-world trap handling (fast path or re-injection, §3.4/§4.1).
// ---------------------------------------------------------------------------

void Monitor::HandleOsTrap(Hart& hart) {
  const TrapInfo trap = CurrentMachineTrap(hart);

  if (trap.is_interrupt()) {
    if (policy_ != nullptr &&
        policy_->OnInterrupt(*this, hart.index(), trap) == PolicyDecision::kHandled) {
      return;
    }
    HandleMachineInterrupt(hart, trap.cause);
    return;
  }

  if (policy_ != nullptr) {
    const PolicyDecision decision = policy_->OnOsTrap(*this, hart.index(), trap);
    if (decision == PolicyDecision::kHandled) {
      return;
    }
    if (decision == PolicyDecision::kDeny) {
      DenyAction(hart, "OS trap", trap.cause);
      return;
    }
  }

  switch (static_cast<ExceptionCause>(trap.cause)) {
    case ExceptionCause::kEcallFromS:
    case ExceptionCause::kEcallFromU:
    case ExceptionCause::kEcallFromVs:
      HandleOsEcall(hart);
      return;
    case ExceptionCause::kIllegalInstr: {
      const DecodedInstr instr = Decode(static_cast<uint32_t>(trap.tval));
      const bool time_read =
          (instr.op == Op::kCsrrs || instr.op == Op::kCsrrw || instr.op == Op::kCsrrc ||
           instr.op == Op::kCsrrsi || instr.op == Op::kCsrrci) &&
          instr.csr == kCsrTime;
      if (time_read) {
        RecordOsTrap(OsTrapCause::kTimeRead);
        if (OffloadAllowed(config_, OsTrapCause::kTimeRead) &&
            FastPathTimeRead(hart, instr)) {
          return;
        }
      } else {
        RecordOsTrap(OsTrapCause::kOther);
      }
      WorldSwitchToFirmware(hart, trap);
      return;
    }
    case ExceptionCause::kLoadAddrMisaligned:
    case ExceptionCause::kStoreAddrMisaligned:
      RecordOsTrap(OsTrapCause::kMisaligned);
      if (OffloadAllowed(config_, OsTrapCause::kMisaligned) &&
          EmulateMisalignedOs(hart, trap)) {
        return;
      }
      WorldSwitchToFirmware(hart, trap);
      return;
    default:
      RecordOsTrap(OsTrapCause::kOther);
      WorldSwitchToFirmware(hart, trap);
      return;
  }
}

void Monitor::HandleOsEcall(Hart& hart) {
  HartState& hs = state(hart);
  const uint64_t ext = hart.gpr(kA7);
  const uint64_t fid = hart.gpr(kA6);

  if (policy_ != nullptr &&
      policy_->OnOsEcall(*this, hart.index()) == PolicyDecision::kHandled) {
    return;
  }

  if (ext == SbiExt::kTime && fid == SbiFunc::kSetTimer) {
    RecordOsTrap(OsTrapCause::kSetTimer);
  } else if (ext == SbiExt::kIpi) {
    RecordOsTrap(OsTrapCause::kIpi);
  } else if (ext == SbiExt::kRfence) {
    RecordOsTrap(OsTrapCause::kRemoteFence);
  } else {
    RecordOsTrap(OsTrapCause::kOther);
  }

  if (FastPathSbi(hart, ext, fid)) {
    return;
  }
  (void)hs;
  TrapInfo trap = CurrentMachineTrap(hart);
  trap.tval = 0;  // ecalls carry no tval
  WorldSwitchToFirmware(hart, trap);
}

bool Monitor::FastPathSbi(Hart& hart, uint64_t ext, uint64_t fid) {
  HartState& hs = state(hart);
  CsrFile& pcsr = hart.csrs();

  if (ext == SbiExt::kTime && fid == SbiFunc::kSetTimer &&
      OffloadAllowed(config_, OsTrapCause::kSetTimer)) {
    hs.os_timer_deadline = hart.gpr(kA0);
    pcsr.set_mip_sw(pcsr.mip_sw() & ~kStipMask);
    ReprogramPhysTimer(hart);
    ++stats_.fastpath_hits;
    ChargeCsrAccesses(hart, 6);
    hart.set_gpr(kA0, 0);
    hart.set_gpr(kA1, 0);
    ReturnToOs(hart, pcsr.mepc() + 4);
    return true;
  }

  if (ext == SbiExt::kIpi && fid == SbiFunc::kSendIpi &&
      OffloadAllowed(config_, OsTrapCause::kIpi)) {
    const uint64_t mask = hart.gpr(kA0);
    const uint64_t base = hart.gpr(kA1);
    for (unsigned bit = 0; bit < machine_->hart_count(); ++bit) {
      if ((mask & (uint64_t{1} << bit)) == 0) {
        continue;
      }
      const uint64_t target = base + bit;
      if (target >= machine_->hart_count()) {
        continue;
      }
      if (target == hart.index()) {
        pcsr.set_mip_sw(pcsr.mip_sw() | kSsipMask);
      } else {
        harts_[target]->ipi_ssip_request = true;
        SendPhysIpi(static_cast<unsigned>(target));
      }
      ChargeCsrAccesses(hart, 3);
    }
    ++stats_.fastpath_hits;
    hart.set_gpr(kA0, 0);
    hart.set_gpr(kA1, 0);
    ReturnToOs(hart, pcsr.mepc() + 4);
    return true;
  }

  if (ext == SbiExt::kRfence &&
      (fid == SbiFunc::kRemoteFenceI || fid == SbiFunc::kRemoteSfenceVma) &&
      OffloadAllowed(config_, OsTrapCause::kRemoteFence)) {
    const uint64_t mask = hart.gpr(kA0);
    const uint64_t base = hart.gpr(kA1);
    for (unsigned bit = 0; bit < machine_->hart_count(); ++bit) {
      if ((mask & (uint64_t{1} << bit)) == 0) {
        continue;
      }
      const uint64_t target = base + bit;
      if (target >= machine_->hart_count() || target == hart.index()) {
        continue;
      }
      harts_[target]->rfence_request = true;
      SendPhysIpi(static_cast<unsigned>(target));
      ChargeCsrAccesses(hart, 3);
    }
    ChargeTlbFlush(hart);  // the local fence
    ++stats_.fastpath_hits;
    hart.set_gpr(kA0, 0);
    hart.set_gpr(kA1, 0);
    ReturnToOs(hart, pcsr.mepc() + 4);
    return true;
  }

  return false;  // not a fast-path call: re-inject into the virtual firmware
}

bool Monitor::FastPathTimeRead(Hart& hart, const DecodedInstr& instr) {
  // Only the plain read forms are offloaded (writes to `time` are not legal anyway).
  const bool write_form = instr.op == Op::kCsrrw || instr.rs1 != 0;
  if (write_form) {
    return false;
  }
  hart.set_gpr(instr.rd, vclint_.mtime());
  ++stats_.fastpath_hits;
  ChargeCsrAccesses(hart, 3);
  ReturnToOs(hart, hart.csrs().mepc() + 4);
  return true;
}

bool Monitor::EmulateMisalignedOs(Hart& hart, const TrapInfo& trap) {
  CsrFile& pcsr = hart.csrs();
  const uint64_t addr = trap.tval;
  const PrivMode os_priv = trap.priv;
  const uint64_t satp = pcsr.satp();

  uint64_t word = 0;
  const Hart::MemResult fetch = hart.ReadMemoryAs(os_priv, satp, trap.epc, 4, &word);
  if (!fetch.ok) {
    return false;
  }
  const DecodedInstr instr = Decode(static_cast<uint32_t>(word));
  const MemAccess access = MemAccessOf(instr.op);
  if (access.size == 0) {
    return false;
  }
  const bool is_load = trap.cause == CauseValue(ExceptionCause::kLoadAddrMisaligned);
  if (is_load != access.load()) {
    return false;
  }

  uint64_t assembled = 0;
  for (unsigned i = 0; i < access.size; ++i) {
    machine_->ChargeCycles(hart.index(), machine_->config().cost.hal_mem_access);
    if (is_load) {
      uint64_t byte = 0;
      if (!hart.ReadMemoryAs(os_priv, satp, addr + i, 1, &byte).ok) {
        return false;
      }
      assembled |= byte << (8 * i);
    } else {
      const uint64_t byte = (hart.gpr(instr.rs2) >> (8 * i)) & 0xFF;
      if (!hart.WriteMemoryAs(os_priv, satp, addr + i, 1, byte).ok) {
        return false;
      }
    }
  }
  if (is_load) {
    hart.set_gpr(instr.rd, access.Extend(assembled));
  }
  ++stats_.fastpath_hits;
  ReturnToOs(hart, pcsr.mepc() + 4);
  return true;
}

// ---------------------------------------------------------------------------
// Machine interrupts: timer and IPI multiplexing through the virtual CLINT.
// ---------------------------------------------------------------------------

void Monitor::HandleMachineInterrupt(Hart& hart, uint64_t cause) {
  HartState& hs = state(hart);
  CsrFile& pcsr = hart.csrs();
  const uint64_t code = cause & ~kInterruptBit;

  if (code == static_cast<uint64_t>(InterruptCause::kMachineTimer)) {
    // ReprogramPhysTimer latches any due deadline (STIP for the fast path's OS timer,
    // the virtual MTIP line for the firmware's) and silences the comparator.
    ReprogramPhysTimer(hart);
  } else if (code == static_cast<uint64_t>(InterruptCause::kMachineSoftware)) {
    machine_->clint().set_msip(hart.index(), false);  // acknowledge
    if (hs.ipi_ssip_request) {
      hs.ipi_ssip_request = false;
      pcsr.set_mip_sw(pcsr.mip_sw() | kSsipMask);
      ChargeCsrAccesses(hart, 3);
    }
    if (hs.rfence_request) {
      hs.rfence_request = false;
      ChargeTlbFlush(hart);
    }
    RefreshVirtualClintLines();
  }

  if (hs.in_firmware) {
    // The virtual-interrupt check in ResumeFirmware injects if pending and enabled.
    ResumeFirmware(hart);
    return;
  }

  // Direct execution: inject into the virtual firmware only if it would take the
  // interrupt (a pending virtual M-level interrupt is never maskable from S/U).
  const std::optional<uint64_t> vint = hs.vctx.PendingVirtualMachineInterrupt();
  if (vint.has_value()) {
    WorldSwitchToFirmware(hart, std::nullopt);  // injected by ResumeFirmware
    return;
  }
  ReturnToOs(hart, pcsr.mepc());
}

void Monitor::ReprogramPhysTimer(Hart& hart) {
  HartState& hs = *harts_[hart.index()];
  const uint64_t now = vclint_.mtime();
  // A due OS deadline (fast-path set_timer) is latched as a supervisor timer
  // interrupt, delegated and delivered natively.
  if (hs.os_timer_deadline <= now) {
    hart.csrs().set_mip_sw(hart.csrs().mip_sw() | kStipMask);
    hs.os_timer_deadline = ~uint64_t{0};
    ChargeCsrAccesses(hart, 3);
  }
  // A due virtual deadline is visible through the virtual MTIP line.
  RefreshVirtualClintLines();
  // The physical comparator is armed only for deadlines still in the future; due
  // events have been latched above, and re-arming a past deadline would storm.
  uint64_t deadline = vclint_.PhysicalDeadline(hart.index(), hs.os_timer_deadline);
  if (deadline <= now) {
    deadline = ~uint64_t{0};
  }
  machine_->clint().set_mtimecmp(hart.index(), deadline);
  ChargeCsrAccesses(hart, 2);
}

void Monitor::RefreshVirtualClintLines() {
  for (unsigned i = 0; i < machine_->hart_count(); ++i) {
    VCsrFile& vcsr = harts_[i]->vctx.csrs();
    vcsr.SetVirtualInterruptLine(InterruptCause::kMachineTimer, vclint_.VirtualMtip(i));
    vcsr.SetVirtualInterruptLine(InterruptCause::kMachineSoftware, vclint_.VirtualMsip(i));
  }
}

void Monitor::SendPhysIpi(unsigned target) { machine_->clint().set_msip(target, true); }

// ---------------------------------------------------------------------------
// World switches (§4.1): install/restore shadow CSRs, flip protection domains.
// ---------------------------------------------------------------------------

void Monitor::SaveOsContext(Hart& hart) {
  HartState& hs = state(hart);
  CsrFile& pcsr = hart.csrs();
  VCsrFile& vcsr = hs.vctx.csrs();

  vcsr.Set(kCsrSepc, pcsr.Get(kCsrSepc));
  vcsr.Set(kCsrScause, pcsr.Get(kCsrScause));
  vcsr.Set(kCsrStval, pcsr.Get(kCsrStval));
  vcsr.Set(kCsrStvec, pcsr.Get(kCsrStvec));
  vcsr.Set(kCsrSscratch, pcsr.Get(kCsrSscratch));
  vcsr.Set(kCsrScounteren, pcsr.Get(kCsrScounteren));
  vcsr.Set(kCsrSenvcfg, pcsr.Get(kCsrSenvcfg));
  vcsr.Set(kCsrSatp, pcsr.Get(kCsrSatp));
  if (vcsr.config().has_sstc) {
    vcsr.Set(kCsrStimecmp, pcsr.Get(kCsrStimecmp));
  }
  // sstatus view: SIE/SPIE/SPP/SUM/MXR/FS...
  vcsr.Set(kCsrSstatus, pcsr.Get(kCsrSstatus));
  // Supervisor interrupt enables live in the machine-level mie.
  vcsr.Set(kCsrMie, (vcsr.Get(kCsrMie) & ~kSupervisorInterrupts) |
                        (pcsr.mie() & kSupervisorInterrupts));
  // Software-pending supervisor interrupts.
  const uint64_t sw_bits = pcsr.mip_sw() & (kSsipMask | kStipMask);
  vcsr.set_mip((vcsr.mip() & ~(kSsipMask | kStipMask)) | sw_bits);
  hs.mip_snapshot = vcsr.mip() & (kSsipMask | kStipMask);
  ChargeCsrAccesses(hart, 24);
}

void Monitor::InstallVirtualContext(Hart& hart) {
  HartState& hs = state(hart);
  CsrFile& pcsr = hart.csrs();
  VCsrFile& vcsr = hs.vctx.csrs();

  pcsr.Set(kCsrSepc, vcsr.Get(kCsrSepc));
  pcsr.Set(kCsrScause, vcsr.Get(kCsrScause));
  pcsr.Set(kCsrStval, vcsr.Get(kCsrStval));
  pcsr.Set(kCsrStvec, vcsr.Get(kCsrStvec));
  pcsr.Set(kCsrSscratch, vcsr.Get(kCsrSscratch));
  pcsr.Set(kCsrScounteren, vcsr.Get(kCsrScounteren));
  pcsr.Set(kCsrSenvcfg, vcsr.Get(kCsrSenvcfg));
  pcsr.Set(kCsrSatp, vcsr.Get(kCsrSatp));
  if (vcsr.config().has_sstc) {
    pcsr.Set(kCsrStimecmp, vcsr.Get(kCsrStimecmp));
  }
  pcsr.Set(kCsrSstatus, vcsr.Get(kCsrSstatus));
  // menvcfg and mcounteren gate S-mode behaviour (Sstc's stimecmp; time/cycle reads)
  // and must follow the virtual firmware's configuration; the monitor itself never
  // depends on either.
  pcsr.Set(kCsrMenvcfg, vcsr.Get(kCsrMenvcfg));
  pcsr.Set(kCsrMcounteren, vcsr.Get(kCsrMcounteren));

  // The physical trap-routing configuration follows the virtual one, with all
  // supervisor interrupts force-delegated (§4.3) and the monitor's own M interrupts
  // always enabled.
  pcsr.Set(kCsrMedeleg, vcsr.medeleg());
  pcsr.Set(kCsrMideleg, vcsr.mideleg() | kSupervisorInterrupts);
  pcsr.Set(kCsrMie, kMonitorMie | (vcsr.mie() & kSupervisorInterrupts));

  // Delta-install the software-pending supervisor interrupt bits: apply exactly the
  // changes the firmware made, without clobbering bits the fast path manages.
  const uint64_t now_v = vcsr.mip() & (kSsipMask | kStipMask);
  const uint64_t changed = now_v ^ hs.mip_snapshot;
  const uint64_t phys_sw = pcsr.mip_sw();
  pcsr.set_mip_sw((phys_sw & ~changed) | (now_v & changed));

  ReprogramPhysTimer(hart);
  ChargeCsrAccesses(hart, 28);
}

void Monitor::WorldSwitchToFirmware(Hart& hart, const std::optional<TrapInfo>& trap) {
  HartState& hs = state(hart);
  CsrFile& pcsr = hart.csrs();
  ++stats_.world_switches;

  SaveOsContext(hart);
  const PrivMode os_priv = static_cast<PrivMode>(
      ExtractBits(pcsr.mstatus(), MstatusBits::kMppHi, MstatusBits::kMppLo));
  hs.vctx.set_priv(os_priv);
  hs.vctx.set_pc(pcsr.mepc());
  if (trap.has_value()) {
    hs.vctx.TakeVirtualTrap(trap->cause, trap->tval);
  }

  // The policy hook runs after the OS context is shadowed so it can scrub registers
  // and snapshot supervisor state (sandbox policy, §5.2).
  if (policy_ != nullptr) {
    policy_->OnWorldSwitchToFirmware(*this, hart.index());
  }

  hs.saved_os_mie = pcsr.mie();
  pcsr.Set(kCsrMie, kMonitorMie);
  pcsr.Set(kCsrMedeleg, 0);
  pcsr.Set(kCsrMideleg, 0);
  pcsr.Set(kCsrSatp, 0);
  hart.ClearReservation();
  hs.in_firmware = true;
  RebuildPmp(hart);
  ChargeTlbFlush(hart);
  ChargeCsrAccesses(hart, 8);
  ResumeFirmware(hart);
}

void Monitor::WorldSwitchToOs(Hart& hart) {
  HartState& hs = state(hart);
  ++stats_.world_switches;

  if (policy_ != nullptr) {
    policy_->OnWorldSwitchToOs(*this, hart.index());
  }

  InstallVirtualContext(hart);
  hart.ClearReservation();
  hs.in_firmware = false;
  RebuildPmp(hart);
  ChargeTlbFlush(hart);

  // Enter direct execution at the virtual mret/sret target.
  hart.set_priv(hs.vctx.priv());
  hart.set_pc(hs.vctx.pc());
  // MPRV must never leak into direct execution.
  CsrFile& pcsr = hart.csrs();
  pcsr.set_mstatus(SetBit(pcsr.mstatus(), MstatusBits::kMprv, 0));
}

void Monitor::ResumeFirmware(Hart& hart) {
  HartState& hs = state(hart);
  if (const std::optional<uint64_t> vint = hs.vctx.PendingVirtualMachineInterrupt()) {
    hs.vctx.TakeVirtualTrap(*vint, 0);
    ++stats_.injected_interrupts;
    hart.set_waiting(false);
  }
  CsrFile& pcsr = hart.csrs();
  uint64_t mstatus = pcsr.mstatus();
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(PrivMode::kUser));
  mstatus = SetBit(mstatus, MstatusBits::kMprv, 0);
  pcsr.set_mstatus(mstatus);
  hart.set_priv(PrivMode::kUser);
  hart.set_pc(hs.vctx.pc());
}

void Monitor::ReturnToOs(Hart& hart, uint64_t pc) {
  CsrFile& pcsr = hart.csrs();
  uint64_t mstatus = pcsr.mstatus();
  const PrivMode target = static_cast<PrivMode>(
      ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo));
  mstatus = SetBit(mstatus, MstatusBits::kMie, Bit(mstatus, MstatusBits::kMpie));
  mstatus = SetBit(mstatus, MstatusBits::kMpie, 1);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(PrivMode::kUser));
  if (target != PrivMode::kMachine) {
    mstatus = SetBit(mstatus, MstatusBits::kMprv, 0);
  }
  pcsr.set_mstatus(mstatus);
  hart.set_priv(target);
  hart.set_pc(pc);
}

void Monitor::DenyAction(Hart& hart, const char* what, uint64_t detail) {
  ++stats_.policy_denials;
  VFM_LOG_WARN("monitor", "policy denied %s (detail=0x%llx, hart %u)", what,
               static_cast<unsigned long long>(detail), hart.index());
  if (config_.stop_on_policy_deny) {
    machine_->bus().Write(machine_->config().map.finisher_base, 4, Finisher::kFinishFail);
    return;
  }
  // Production behaviour (§5.2): log the invalid action and continue, returning
  // arbitrary values. Skip the faulting instruction.
  HartState& hs = state(hart);
  if (hs.in_firmware) {
    const DecodedInstr instr = FetchFirmwareInstr(hart);
    if (MemAccessOf(instr.op).load()) {
      hart.set_gpr(instr.rd, 0);
    }
    hs.vctx.set_pc(hart.csrs().mepc() + 4);
    ResumeFirmware(hart);
  } else {
    ReturnToOs(hart, hart.csrs().mepc() + 4);
  }
}

bool Monitor::EmulateMmioPassthrough(Hart& hart, uint64_t addr) {
  HartState& hs = state(hart);
  const DecodedInstr instr = FetchFirmwareInstr(hart);
  const MemAccess access = MemAccessOf(instr.op);
  if (access.size == 0) {
    return false;
  }
  ChargeCsrAccesses(hart, 4);
  if (access.load()) {
    uint64_t value = 0;
    if (!machine_->bus().Read(addr, access.size, &value)) {
      return false;
    }
    hart.set_gpr(instr.rd, access.Extend(value));
  } else {
    if (!machine_->bus().Write(addr, access.size, hart.gpr(instr.rs2))) {
      return false;
    }
  }
  hs.vctx.set_pc(hart.csrs().mepc() + 4);
  ResumeFirmware(hart);
  return true;
}


void Monitor::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("MONS"), 1);
  writer.U32(static_cast<uint32_t>(harts_.size()));
  for (const auto& hart : harts_) {
    writer.Bool(hart->in_firmware);
    writer.U64(hart->os_timer_deadline);
    writer.U64(hart->saved_os_mie);
    writer.U64(hart->mip_snapshot);
    writer.Bool(hart->ipi_ssip_request);
    writer.Bool(hart->rfence_request);
    hart->vctx.SaveState(writer);
  }
  vclint_.SaveState(writer);
  writer.EndSection();
}

bool Monitor::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("MONS"));
  const uint32_t harts = reader.U32();
  if (reader.ok() && harts != harts_.size()) {
    reader.Fail("MONS: hart count mismatch");
  }
  for (auto& hart : harts_) {
    if (!reader.ok()) {
      break;
    }
    hart->in_firmware = reader.Bool();
    hart->os_timer_deadline = reader.U64();
    hart->saved_os_mie = reader.U64();
    hart->mip_snapshot = reader.U64();
    hart->ipi_ssip_request = reader.Bool();
    hart->rfence_request = reader.Bool();
    hart->vctx.LoadState(reader);
  }
  vclint_.LoadState(reader);
  reader.EndSection();
  return reader.ok();
}

}  // namespace vfm
