// The virtual firmware monitor: the library's primary contribution, the Miralis
// equivalent of the paper. The monitor owns machine mode, runs the vendor firmware in
// user space as a virtual M-mode (vM-mode), emulates its privileged instructions
// against a shadow CSR file, virtualizes the PMP and the CLINT, injects virtual
// interrupts, offloads the five dominant OS trap causes on a fast path (§3.4), and
// hosts policy modules (§5).
//
// Quickstart:
//   MachineConfig mc = ...;          // or use a platform profile (src/platform)
//   Machine machine(mc);
//   machine.LoadImage(fw.base, fw.bytes);
//   machine.LoadImage(kernel.base, kernel.bytes);
//   MonitorConfig cfg;
//   cfg.firmware_entry = fw.entry;
//   Monitor monitor(&machine, cfg);
//   monitor.SetPolicy(&my_policy);   // optional
//   monitor.Boot();
//   machine.RunUntilFinished(budget);

#ifndef SRC_CORE_MONITOR_H_
#define SRC_CORE_MONITOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/policy.h"
#include "src/core/trap_info.h"
#include "src/core/vclint.h"
#include "src/core/vcpu.h"
#include "src/core/vpmp.h"
#include "src/sim/machine.h"

namespace vfm {

struct MonitorConfig {
  // The RAM range reserved for the monitor itself, protected from both worlds.
  uint64_t monitor_base = 0x8000'0000;
  uint64_t monitor_size = 1 << 20;
  // Entry point of the (second-stage) vendor firmware image, entered in vM-mode.
  uint64_t firmware_entry = 0;
  // Fast-path offloading of the five dominant trap causes (§3.4). Disabling this is
  // the "MIRALIS no-offload" configuration of the evaluation.
  bool offload_enabled = true;
  // Fine-grained ablation control: a bit per OsTrapCause. A cause is offloaded only
  // when offload_enabled is set AND its bit is set (default: all causes).
  uint32_t offload_mask = ~uint32_t{0};
  // When a policy denies an action: stop the machine (development behaviour) or log
  // and return arbitrary values (the production behaviour sketched in §5.2).
  bool stop_on_policy_deny = true;
};

// Classification of OS-to-firmware trap causes, the categories of Figure 3.
enum class OsTrapCause : unsigned {
  kTimeRead = 0,
  kSetTimer,
  kMisaligned,
  kIpi,
  kRemoteFence,
  kOther,
  kCount,
};

const char* OsTrapCauseName(OsTrapCause cause);

struct MonitorStats {
  uint64_t os_traps = 0;              // traps from direct execution into the monitor
  uint64_t firmware_traps = 0;        // traps taken by the virtual firmware
  uint64_t emulated_instrs = 0;       // privileged instructions emulated
  uint64_t world_switches = 0;        // transitions into vM-mode (round trips)
  uint64_t injected_interrupts = 0;   // virtual interrupts delivered to the firmware
  uint64_t mmio_emulations = 0;       // virtual CLINT accesses emulated
  uint64_t mprv_emulations = 0;       // MPRV loads/stores performed for the firmware
  uint64_t fastpath_hits = 0;         // OS traps absorbed by the fast path
  uint64_t policy_denials = 0;
  uint64_t os_traps_by_cause[static_cast<unsigned>(OsTrapCause::kCount)] = {};
};

class Monitor : public MmodeOwner {
 public:
  Monitor(Machine* machine, const MonitorConfig& config);

  // Attaches a policy module (at most one; call before Boot).
  void SetPolicy(PolicyModule* policy);

  // Takes ownership of M-mode on every hart and arranges entry into the virtual
  // firmware (Figure 9 boot flow: loader -> monitor -> vM firmware -> OS).
  void Boot();

  // MmodeOwner: every physical trap to M-mode lands here and runs to completion.
  void OnMachineTrap(Hart& hart) override;

  const MonitorConfig& config() const { return config_; }
  Machine& machine() { return *machine_; }
  // Statistics are read-only from the outside; the monitor owns every counter.
  // Callers that want per-phase numbers snapshot stats() or call ResetStats().
  const MonitorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MonitorStats{}; }

  VirtContext& vctx(unsigned hart) { return harts_[hart]->vctx; }
  VirtClint& vclint() { return vclint_; }
  bool in_firmware_world(unsigned hart) const { return harts_[hart]->in_firmware; }

  // -- Services exposed to policy modules. -------------------------------------------
  // Recomputes and installs the physical PMP configuration of `hart`.
  void RebuildPmp(Hart& hart);
  // Charges monitor work to the hart's cycle counter (HAL cost accounting).
  void ChargeCsrAccesses(Hart& hart, unsigned count);
  void ChargeTlbFlush(Hart& hart);
  // Returns from the current trap directly to the OS at `pc` with the trapped
  // privilege (an mret-equivalent). Policies use this after consuming an event.
  void ReturnToOs(Hart& hart, uint64_t pc);
  // Applies the configured deny action (stop machine or log-and-continue).
  void DenyAction(Hart& hart, const char* what, uint64_t detail);
  // Performs a world switch into the virtual firmware, re-injecting `trap` as a
  // virtual trap (§4.1). Pass nullopt to switch without injecting an exception
  // (pending virtual interrupts are still delivered).
  void WorldSwitchToFirmware(Hart& hart, const std::optional<TrapInfo>& trap);
  // Emulates a misaligned OS load/store through the page tables (exposed for the
  // sandbox policy, which implements misaligned emulation in-policy, §5.2).
  bool EmulateMisalignedOs(Hart& hart, const TrapInfo& trap);
  // Attributes one OS trap to its Figure-3 category (policies that consume a trap
  // themselves use this to keep the statistics complete).
  void RecordOsTrap(OsTrapCause cause) {
    ++stats_.os_traps_by_cause[static_cast<unsigned>(cause)];
  }
  // Emulates an MMIO access against the physical bus (register passthrough/filter,
  // §3.3). Decodes the faulting instruction and advances the firmware's pc.
  bool EmulateMmioPassthrough(Hart& hart, uint64_t addr);

  // Uniform state API (DESIGN.md §2h). A monitored machine snapshots in two parts:
  // Machine::SaveSnapshot captures the physical machine, and this captures the
  // monitor's own state (per-hart virtual contexts and world flags, the virtual
  // CLINT). Statistics are observability, not machine state, and are not saved.
  // Restore order matters: restore the Machine first, then the monitor.
  void SaveState(StateWriter& writer) const;
  bool LoadState(StateReader& reader);

 private:
  struct HartState {
    explicit HartState(const VhartConfig& config)
        : vctx(config), mprv_pmp(config.pmp_entries) {}
    VirtContext vctx;
    // The firmware's virtual PMP configuration as a bank, for checking emulated MPRV
    // accesses. Reused across emulations: the bank interns its configurations, so
    // while the firmware leaves its PMP alone, reloading it costs no re-decode.
    PmpBank mprv_pmp;
    bool in_firmware = true;
    uint64_t os_timer_deadline = ~uint64_t{0};
    uint64_t saved_os_mie = 0;
    uint64_t mip_snapshot = 0;        // virtual sw-mip at world-switch-in (delta install)
    bool ipi_ssip_request = false;    // fast-path IPI mailbox
    bool rfence_request = false;      // fast-path remote-fence mailbox
  };

  HartState& state(Hart& hart) { return *harts_[hart.index()]; }

  // Trap handling.
  void HandleFirmwareTrap(Hart& hart);
  void HandleOsTrap(Hart& hart);
  void HandleMachineInterrupt(Hart& hart, uint64_t cause);
  void EmulateFirmwareInstr(Hart& hart);
  void HandleFirmwareMemFault(Hart& hart, const TrapInfo& trap);
  bool EmulateVirtClintAccess(Hart& hart, uint64_t addr);
  bool EmulateMprvAccess(Hart& hart, uint64_t cause, uint64_t addr);
  void HandleOsEcall(Hart& hart);
  bool FastPathSbi(Hart& hart, uint64_t ext, uint64_t fid);
  bool FastPathTimeRead(Hart& hart, const DecodedInstr& instr);

  // World switches.
  void WorldSwitchToOs(Hart& hart);
  void ResumeFirmware(Hart& hart);
  void SaveOsContext(Hart& hart);
  void InstallVirtualContext(Hart& hart);

  // Timer and IPI plumbing.
  void ReprogramPhysTimer(Hart& hart);
  void RefreshVirtualClintLines();
  void SendPhysIpi(unsigned target);

  // Decodes the instruction the firmware trapped on (physical fetch at mepc).
  DecodedInstr FetchFirmwareInstr(Hart& hart);

  Machine* machine_;
  MonitorConfig config_;
  VhartConfig vhart_template_;
  VirtClint vclint_;
  PolicyModule* policy_ = nullptr;
  std::vector<std::unique_ptr<HartState>> harts_;
  MonitorStats stats_;
};

}  // namespace vfm

#endif  // SRC_CORE_MONITOR_H_
