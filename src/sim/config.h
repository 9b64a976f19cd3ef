// Static configuration of a simulated hart and the machine's cost model. Platform
// profiles (src/platform) instantiate these to model the two evaluation boards.

#ifndef SRC_SIM_CONFIG_H_
#define SRC_SIM_CONFIG_H_

#include <cstdint>

namespace vfm {

// Architectural feature set of a hart. Defaults model the evaluation platforms in the
// paper: no hardware `time` CSR (reads trap and are emulated by firmware), no Sstc, and
// misaligned loads/stores trap for firmware emulation (paper §3.4's five trap causes).
struct HartIsaConfig {
  unsigned pmp_entries = 8;
  bool has_time_csr = false;      // rdtime reads mtime directly instead of trapping
  bool has_sstc = false;          // stimecmp CSR + hardware supervisor timer
  bool has_h_ext = false;         // minimal hypervisor extension subset
  bool has_custom_csrs = false;   // platform CSRs 0x7C0..0x7C3 (P550-style)
  bool hw_misaligned = false;     // hardware handles misaligned loads/stores
  uint64_t mvendorid = 0;
  uint64_t marchid = 0;
  uint64_t mimpid = 0;
};

// Host-side interpreter tuning. None of these affect simulated behaviour or cycle
// accounting — they only trade host memory for host speed (DESIGN.md §2b).
struct SimTuning {
  // Entries in the per-hart decoded-instruction cache (direct-mapped, indexed by
  // pc >> 2 plus a per-page rotation: Hart::CodeSlot). Must be a power of two; 0
  // disables the cache entirely.
  uint32_t decode_cache_entries = 16384;
  // Upper bound on instructions executed per Hart::RunBatch call from the batched
  // run loop (Machine::RunUntilFinished). Batches also end early at trap,
  // interrupt-window (mtime tick), WFI, and MMIO boundaries, which is what keeps
  // batched execution cycle-exact with the per-instruction loop.
  uint32_t max_batch_instructions = 4096;
  // Entries per access type in the per-hart software TLB (direct-mapped, indexed by
  // virtual page number). Must be a power of two; 0 disables the TLB. Like the decode
  // cache, hits replay the walk's cycle cost, so this never changes simulated
  // behaviour.
  uint32_t tlb_entries = 4096;
  // Entries in the per-hart block cache (DESIGN.md §2f): straight-line runs of
  // already-decoded instructions, lowered into threaded code as they are built and
  // executed by direct handler dispatch that spills architectural counters only at
  // block exits. Lowering bakes in the exact cycle charges of the interpreter path,
  // so the tier is behaviour- and cycle-invisible. Direct-mapped by start pc like the
  // decode cache (Hart::CodeSlot); rounded up to a power of two; 0 disables. Blocks
  // are built from decode-cache entries, so they are also implicitly disabled when
  // decode_cache_entries == 0.
  uint32_t superblock_entries = 2048;
  // Deterministic quantum scheduling for multi-hart machines (DESIGN.md §2i): instead
  // of interleaving harts one instruction at a time, each hart privately executes a
  // segment up to the next mtime-tick boundary and cross-hart effects (stores, MMIO,
  // traps, timer advance) are applied at the barrier in canonical hart order. This is
  // the one documented exception to the "tuning never affects simulated behaviour"
  // rule above: the quantum schedule is a different — still fully deterministic —
  // legal interleaving of the harts than the round-robin schedule, so guest-visible
  // state can differ from the per-instruction loop on multi-hart machines (it is
  // bit-identical on single-hart machines, where both flags are ignored).
  // `parallel_harts` runs the same quantum schedule with each hart's segment on its
  // own host thread; it is bit-identical to `quantum_harts` by construction.
  bool quantum_harts = false;
  bool parallel_harts = false;
};

// Cycle-cost model. The simulator is not micro-architecturally accurate; these
// parameters set the relative costs that the paper's measurements depend on (trap
// round-trip cost, CSR access cost, memory cost), so each platform profile produces
// its own absolute numbers while preserving the result shapes.
struct CostModel {
  uint64_t instr_base = 1;        // cycles per simple instruction
  uint64_t instr_muldiv = 8;      // extra cycles for mul/div
  uint64_t instr_mem = 2;         // extra cycles for loads/stores/amo
  uint64_t trap_entry = 40;       // pipeline cost of a trap or xRET
  uint64_t page_walk_level = 8;   // per level of a Sv39 table walk (uncached)
  uint64_t hal_csr_access = 4;    // monitor HAL: one CSR read/write
  uint64_t monitor_dispatch = 40; // monitor entry/exit + trap decode, per M-mode trap
  uint64_t hal_mem_access = 3;    // monitor HAL: one memory word access
  uint64_t hal_base_op = 1;       // monitor HAL: bookkeeping unit of work
  uint64_t tlb_flush = 60;        // sfence.vma / world-switch TLB flush
  uint64_t mtime_tick_cycles = 50;  // CPU cycles per mtime (timebase) tick
  uint64_t freq_mhz = 1000;       // nominal core frequency, for reporting only
};

}  // namespace vfm

#endif  // SRC_SIM_CONFIG_H_
