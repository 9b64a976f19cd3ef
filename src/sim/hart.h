// One simulated RV64 hart: interpreter, trap logic, and interrupt selection. The
// Machine (src/sim/machine.h) owns harts and drives them; an optional M-mode owner
// hook lets native C++ code (the monitor) play the role of M-mode software.

#ifndef SRC_SIM_HART_H_
#define SRC_SIM_HART_H_

#include <cstdint>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/zeroed_memory.h"
#include "src/isa/instr.h"
#include "src/isa/priv.h"
#include "src/mem/bus.h"
#include "src/sim/config.h"
#include "src/sim/csr_file.h"
#include "src/sim/mmu.h"

namespace vfm {

// Outcome of one hart tick, consumed by the machine for scheduling, statistics, and
// the M-mode owner hook. Every tick and block exit hands one back, so it stays a
// trivially copyable 16-byte value that travels in two registers (DESIGN.md §2f,
// "Results cross the hart boundary in registers or in place"). There are no default
// member initializers: with them GCC builds a value in a stack temporary from narrow
// stores and copies it out with wide loads, which stalls store-to-load forwarding.
// Always value-initialize: `StepResult result{}` is all-zero.
struct StepResult {
  uint64_t trap_cause;   // mcause-style value, valid when trapped
  uint32_t cycles;       // cycles charged for this tick (the Hart constructor bounds it)
  PrivMode trap_target;  // where the trap vectored, valid when trapped
  bool executed : 1;     // an instruction retired (or an interrupt was taken)
  bool waiting : 1;      // hart is parked in WFI
  bool trapped : 1;      // a trap (exception or interrupt) was taken this tick
  bool entered_mmode : 1;  // trap landed in M-mode: invoke the owner if installed
  // Quantum-mode segments only (DESIGN.md §2i): the tick hit a sync event (MMIO,
  // AMO/LR/SC, fence.i) it cannot model privately and aborted with zero architectural
  // effect. The hart is parked sync-pending; the Machine re-runs the tick at the
  // barrier, where full bus access is restored.
  bool aborted : 1;
};
static_assert(std::is_trivially_copyable_v<StepResult>,
              "StepResult is returned in registers (DESIGN.md §2f)");
static_assert(sizeof(StepResult) <= 16,
              "StepResult must fit two registers; a wider one is returned through "
              "memory and re-read at every block exit (DESIGN.md §2f)");

class Hart {
 public:
  Hart(unsigned index, Bus* bus, const HartIsaConfig& isa, const CostModel* cost,
       const SimTuning& tuning = SimTuning{});

  unsigned index() const { return index_; }

  // -- Architectural state access (also the monitor HAL's raw view). ---------------
  uint64_t gpr(unsigned i) const { return gpr_[i]; }
  void set_gpr(unsigned i, uint64_t value) {
    if (i != 0) {
      gpr_[i] = value;
    }
  }
  uint64_t pc() const { return pc_; }
  void set_pc(uint64_t pc) { pc_ = pc; }
  PrivMode priv() const { return priv_; }
  void set_priv(PrivMode priv) { priv_ = priv; }
  bool virt() const { return virt_; }
  void set_virt(bool virt) { virt_ = virt; }
  bool waiting() const { return waiting_; }
  void set_waiting(bool waiting) { waiting_ = waiting; }

  CsrFile& csrs() { return csrs_; }
  const CsrFile& csrs() const { return csrs_; }
  Bus* bus() { return bus_; }

  // -- Execution. -------------------------------------------------------------------
  // Runs one tick: takes a pending enabled interrupt if any, else executes one
  // instruction (or stays parked in WFI).
  StepResult Tick();

  // Runs up to `max_steps` ticks as a batch. The batch ends early — after the tick
  // that caused it — on a trap, WFI parking, any MMIO access, or the hart's cycle
  // counter reaching `stop_cycles` (the next mtime-tick boundary). These boundaries
  // are exactly the points where the machine loop must run between instructions
  // (interrupt-line refresh, mtime advance, device ticks, trap delivery), which makes
  // batched execution cycle- and behaviour-identical to per-instruction stepping.
  // The result is built in place in the hart, where every block exit writes it, and
  // stays valid until the hart's next RunBatch.
  struct BatchResult {
    uint64_t executed = 0;  // ticks run, including the final one
    uint64_t retired = 0;   // instructions retired (executed ticks that did not trap)
    StepResult last{};      // result of the final tick, written by every batch
  };
  const BatchResult& RunBatch(uint64_t max_steps, uint64_t stop_cycles);
  const BatchResult& last_batch() const { return batch_; }

  // -- Quantum-mode segment execution (DESIGN.md §2i). ------------------------------
  // Between BeginSegment and EndSegment the hart executes privately: RAM is
  // read-only to it (every store — including the walker's A/D PTE updates — diverts
  // into a per-hart store buffer that overlays the hart's own loads), and any access
  // the buffer cannot model (MMIO data or fetch, AMO/LR/SC, fence.i) aborts its tick
  // pre-execution with StepResult::aborted, leaving the hart sync-pending. The
  // Machine runs segments of several harts concurrently (or serially, identically),
  // then applies buffered stores and replays sync-pending ticks at the barrier in
  // canonical hart order.
  void BeginSegment() { segment_active_ = true; }
  void EndSegment() { segment_active_ = false; }
  // Barrier: flushes the segment's buffered stores through Bus::Write in insertion
  // order, so dependency-mark and generation bumps happen exactly as the serial
  // stores would have caused them.
  void ApplySegmentStores();
  // Returns whether the last segment ended on a sync event, clearing the flag.
  bool ConsumeSyncPending() {
    const bool pending = sync_pending_;
    sync_pending_ = false;
    return pending;
  }

  // Takes a trap architecturally (updates status stacks, vectors the pc). Exposed for
  // the machine (interrupt injection) and tests.
  StepResult TakeTrap(uint64_t cause, uint64_t tval);

  // Selects the highest-priority pending, enabled interrupt that may be taken in the
  // current mode, or nullopt. Pure function of the CSR state.
  std::optional<uint64_t> PendingInterrupt() const;

  // Memory access with full translation + PMP, at an explicitly given effective
  // privilege. Used by the interpreter and by the monitor's MPRV emulation path.
  // On failure returns the fault cause; *fault_addr receives the faulting vaddr.
  struct MemResult {
    bool ok = true;
    ExceptionCause cause = ExceptionCause::kLoadAccessFault;
  };
  MemResult ReadMemory(uint64_t vaddr, unsigned size, uint64_t* value);
  MemResult WriteMemory(uint64_t vaddr, unsigned size, uint64_t value);

  // Same, but at an explicitly chosen effective privilege and address space — used by
  // the monitor's fast-path misaligned emulation and MPRV emulation (paper §4.2),
  // where M-mode code accesses memory through the OS page tables. `satp_override`
  // replaces the live satp; `pmp_override`, when non-null, replaces the physical PMP
  // bank for the protection check (the monitor passes the *virtual* bank when
  // emulating firmware MPRV accesses, since the reference machine would check the
  // firmware's own PMP configuration).
  MemResult ReadMemoryAs(PrivMode priv, uint64_t satp_override, uint64_t vaddr, unsigned size,
                         uint64_t* value, const PmpBank* pmp_override = nullptr);
  MemResult WriteMemoryAs(PrivMode priv, uint64_t satp_override, uint64_t vaddr, unsigned size,
                          uint64_t value, const PmpBank* pmp_override = nullptr);

  uint64_t instret() const { return csrs_.minstret(); }
  uint64_t cycles() const { return csrs_.mcycle(); }

  // Total traps taken, by flavor (for Figure 3-style statistics).
  uint64_t traps_taken() const { return traps_taken_; }

  // Decoded-instruction cache counters (DESIGN.md §2b). A hit means fetch
  // translation, PMP check, and decode were all skipped for that tick.
  uint64_t decode_cache_hits() const { return icache_hits_; }
  uint64_t decode_cache_misses() const { return icache_misses_; }

  // Software-TLB counters (DESIGN.md §2d). A hit means the translation and its PMP
  // proofs were reused (a skipped walk's cycle cost is still charged); misses count
  // lookups made with the TLB enabled (paged or identity), so hits/(hits+misses) is a
  // true hit rate. Flushes count explicit invalidations (sfence.vma, hfences, monitor
  // world switches) — not generation bumps from PT-page stores.
  uint64_t tlb_hits() const { return tlb_hits_; }
  uint64_t tlb_misses() const { return tlb_misses_; }
  uint64_t tlb_flushes() const { return tlb_flushes_; }

  // Block tier counters (DESIGN.md §2f). A superblock "hit" is a dispatch into a
  // valid cached block; a "miss" is a lookup that had to (re)build one. Mean block
  // length is superblock_instrs()/superblock_blocks(). None of these affect the
  // decode-cache counters: every instruction dispatched from a block still counts one
  // decode-cache hit, keeping hit-rate parity with the per-instruction loop.
  uint64_t superblock_hits() const { return sb_hits_; }
  uint64_t superblock_misses() const { return sb_misses_; }
  uint64_t superblock_blocks() const { return sb_blocks_; }
  uint64_t superblock_instrs() const { return sb_instrs_; }

  // Threaded-dispatch view of the same tier. Every block is lowered when it is
  // built and runs threaded, so threaded_blocks/instrs equal superblock_blocks/
  // instrs. A promotion is one block lowered; a deopt is a mid-block handoff to the
  // per-instruction Tick() path (budget misfit of a fused op, or a stamp mismatch
  // after a slow-path store invalidated code this block may contain).
  uint64_t threaded_blocks() const { return sb_blocks_; }
  uint64_t threaded_instrs() const { return sb_instrs_; }
  uint64_t threaded_promotions() const { return threaded_promotions_; }
  uint64_t threaded_deopts() const { return threaded_deopts_; }

  // Host-pointer memory fast path counters: hits are loads/stores completed directly
  // against cached host RAM pointers inside a superblock, at any privilege and
  // translation mode; misses are in-block memory ops that fell back to the full
  // Translate+Bus path.
  uint64_t host_fastpath_hits() const { return fastmem_hits_; }
  uint64_t host_fastpath_misses() const { return fastmem_misses_; }

  // Drops every TLB entry (generation bump). Called for sfence.vma rs1=x0, hfences,
  // and by the monitor on world switches and remote-fence delivery.
  void FlushTlb();
  // Drops only entries translating the page of `vaddr` (sfence.vma rs1!=x0). Other
  // pages stay cached, which the per-address form exists to allow.
  void FlushTlbPage(uint64_t vaddr);

  // Clears any load reservation (the monitor does this on world switches).
  void ClearReservation() { reservation_.reset(); }

  // Uniform state API (DESIGN.md §2h): architectural state only — GPRs, pc,
  // privilege, virtualization mode, WFI parking, the load reservation, the trap
  // counter, and the nested CSR file (which carries the PMP bank). The translation
  // caches (decode cache, TLB, lowered blocks) are host-side derived state: they are
  // never serialized, and LoadState instead bumps the hart's generation counters so
  // every cached entry mis-stamps and rebuilds on demand.
  void SaveState(StateWriter& writer) const;
  bool LoadState(StateReader& reader);

 private:
  struct AccessOutcome {
    bool ok = false;
    uint64_t paddr = 0;
    ExceptionCause cause = ExceptionCause::kLoadAccessFault;
    uint64_t extra_cycles = 0;
    // PTE addresses the translation read (for exec-page marking on fetches).
    uint64_t pte_addrs[3] = {};
    unsigned pte_count = 0;
    // The walk hit memory the segment store buffer cannot model (non-RAM PTE):
    // abort the tick to the barrier instead of faulting (DESIGN.md §2i).
    bool segment_abort = false;
  };

  // One slot of the decoded-instruction cache: a pre-decoded instruction plus
  // everything needed to prove the original fetch is still valid. An entry hits only
  // when the tag (virtual pc), translation context (satp, and FetchCtx(): the PMP
  // content id, priv and virt), generation stamp, and its page's code generation all
  // match (FetchHit); `extra_cycles` replays the page-walk cost of the original fetch
  // so cached execution charges exactly the cycles the slow path would. Slots live in
  // a zero-filled mapping and are never constructed: an all-zero slot is empty,
  // because cache_stamp() >= 1.
  struct FetchEntry {
    uint64_t tag;                // virtual pc
    uint64_t stamp;              // cache_stamp() at fill time
    uint64_t satp;               // effective satp (vsatp when virtualized) at fill
    uint64_t ctx;                // FetchCtx() at fill
    uint64_t extra_cycles;       // page-walk cycles of the original fetch
    const uint64_t* code_gen;    // the instruction page's code generation (Bus::MarkCode)
    uint64_t code_gen_at_fill;   // *code_gen when filled
    DecodedInstr instr;
  };

  // One slot of the software TLB: a cached page translation plus everything needed to
  // prove the original walk is still valid. An entry hits only when the tag (virtual
  // page), satp key, context key, and generation stamp all match (TlbSatp, TlbCtx).
  // Identity translations (bare satp, M-mode, or MPRV resolving to either) are
  // cached too, as zero-cycle entries with no PTEs, so M-mode and bare-mode accesses
  // reach the host fast path like paged ones.
  // Entries are filled only after a successful walk for this slot's access type, so
  // the walk has already set the PTE's A bit (and D for stores) — a hit never needs
  // to write memory, and a store through a page cached only in the load array
  // re-walks and performs the D-bit update. `extra_cycles` replays the walk cost so
  // hits charge exactly the cycles the walk would. Like FetchEntry, slots start
  // all-zero and unconstructed; a zero slot is empty because tlb_stamp() >= 1.
  struct TlbEntry {
    uint64_t vpage;          // vaddr >> 12
    uint64_t paddr_page;     // translated page base (low 12 bits clear)
    uint64_t satp;           // TlbSatp() of the translation (part of the key)
    uint64_t ctx;            // TlbCtx() at fill time (PMP content id, priv/SUM/MXR)
    uint64_t stamp;          // tlb_stamp() at fill time
    uint64_t extra_cycles;   // page-walk cycles of the original walk
    uint64_t pte_addrs[3];   // PTE addresses the walk read (replayed to callers)
    uint8_t pte_count;
    // True when the fill-time PMP check proved the whole 4 KiB frame is permitted
    // for this access type and privilege (one entry contains the frame). Hits may
    // then skip the per-access PMP scan: any access inside the frame matches the
    // same entry with the same verdict, and the context key carries the bank's
    // content id, so the entry cannot hit under any other PMP configuration.
    bool pmp_whole_page;
    // Host-pointer fast path (DESIGN.md §2f): when non-null, the frame is plain RAM
    // and block memory ops may access `host_page` directly, provided
    // pmp_whole_page holds. A store must go through Bus::Write when `*page_mark` is
    // non-zero and the page is PT-marked or the store's granule is marked in
    // `*code_page`, so invalidations happen exactly as a bus write would cause them.
    // Only set when pmp_whole_page; the stamp folds in Bus::ram_generation() so
    // pointers never outlive a RAM remap.
    uint8_t* host_page;
    const uint8_t* page_mark;
    const CodePage* code_page;
  };

  // Whether an aligned fast-path store at frame `offset` through `slot`, whose page's
  // mark byte is non-zero, must go through Bus::Write: the page holds PTEs a cached
  // translation read, or the store's granule holds code a cached entry decoded.
  static bool StoreNeedsBus(const TlbEntry& slot, uint64_t offset) {
    return (*slot.page_mark & Bus::kPtMark) != 0 ||
           ((slot.code_page->granules >> (offset >> Bus::kGranuleShift)) & 1) != 0;
  }

  static constexpr unsigned kMaxSuperblockLen = 64;

  // One lowered op of a block (DESIGN.md §2f): the handler address (computed-goto
  // label, with `kind` as the switch-dispatch fallback), operand register indices,
  // and everything the handler needs pre-resolved — sign-extended immediate or folded
  // constant or absolute branch target in `imm`, the pc after the op in `next_pc`,
  // and the summed cycle charge of all fused source instructions in `cycles` (mem ops
  // add the TLB slot's replayed walk cost at run time). An op's first source
  // instruction sits at next_pc - 4 * count, which is where a deopt resumes.
  struct ThreadedOp {
    const void* handler = nullptr;   // checked handler: per-op budget accounting
    const void* uhandler = nullptr;  // unchecked handler: budget pre-checked per iteration
    uint64_t next_pc = 0;
    int64_t imm = 0;
    uint32_t cycles = 0;
    int32_t imm2 = 0;  // baked compare immediate of a fused slti/sltiu + branch
    uint16_t mem = 0;  // load/store: index into SuperblockEntry::mem_instrs
    uint8_t a = 0;  // rd (or the compare rd of a fused compare+branch)
    uint8_t b = 0;  // rs1
    uint8_t c = 0;  // rs2 (store data register)
    uint8_t count = 1;  // source instructions this op retires
    uint8_t kind = 0;   // LoweredOp

    // Points both handlers at `kind`'s labels in ExecuteThreaded's table (checked at
    // [kind], unchecked at [kLoweredOpCount + kind]). The table is null without
    // computed goto, where dispatch switches on `kind` instead.
    void Bind(const void* const* table) {
      handler = table != nullptr ? table[kind] : nullptr;
      uhandler = table != nullptr ? table[kLoweredOpCount + kind] : nullptr;
    }
  };

  // A load/store as the slow memory path (ExecuteLoadStore) needs it: the decoded
  // instruction and the replayed fetch-walk cycles of its decode-cache entry.
  struct MemInstr {
    DecodedInstr instr;
    uint64_t extra_cycles = 0;
  };

  // One slot of the block cache: a straight-line run of decode-cache entries captured
  // under one validity stamp and lowered into threaded ops as it is built. The
  // key/stamp discipline is exactly FetchEntry's — the block is valid iff every
  // member FetchEntry would still hit — which holds because all members were verified
  // valid at build time under the same (stamp, satp, ctx, code generation) and any
  // event that could invalidate one bumps a counter folded into cache_stamp() or the
  // page's code generation, or changes the PMP content id in the ctx key. A block
  // never crosses a page, so that one generation covers every member. Ends at the
  // first kBarrier op (excluded), at a kBranch (included: the terminal op), at a
  // 4 KiB page boundary (the next pc may translate differently), or at
  // kMaxSuperblockLen. `open_end` marks a block cut short by a
  // cold decode-cache slot; a later dispatch retries the build to extend it once the
  // continuation has been decoded. Slots start all-zero and unconstructed (stamp 0:
  // empty); the ops and mem instrs live in the hart's pools.
  struct SuperblockEntry {
    uint64_t tag;               // starting virtual pc
    uint64_t stamp;             // cache_stamp() at build time
    uint64_t satp;              // effective satp at build time
    uint64_t ctx;               // FetchCtx() at build time
    const uint64_t* code_gen;   // the block's page's code generation
    uint64_t code_gen_at_fill;  // *code_gen when built
    ThreadedOp* ops;            // op_count ops in op_pool_
    MemInstr* mem_instrs;       // mem_count entries in mem_pool_
    // Whole-run charges, for the unchecked dispatch mode: a pure-ALU block whose
    // entire run fits the remaining budget executes with no per-op accounting at
    // all — the totals are added once at the terminal op. Blocks with memory ops
    // always run checked (their TLB-replayed walk cycles vary per dispatch).
    uint64_t total_cycles;
    uint32_t total_count;
    uint16_t count;  // source instructions
    uint16_t op_count;
    uint16_t mem_count;
    uint16_t op_capacity;   // pool storage this slot owns, reused by rebuilds
    uint16_t mem_capacity;
    bool open_end;
    bool has_mem;  // skip the tlb_stamp() sample for pure-ALU blocks
  };

  // Data-access translation context captured once per block dispatch. Valid for the
  // whole block because priv/virt/mstatus/satp can only change at barriers or traps,
  // both of which end the block.
  struct FastMemCtx {
    bool built = false;
    uint64_t satp = 0;      // TlbSatp()
    uint64_t load_ctx = 0;  // TlbCtx() per access type
    uint64_t store_ctx = 0;
  };

  // How a block dispatch ended, for RunBatch's loop.
  enum class SbExit : uint8_t {
    kContinue,  // RunBatch re-checks its bounds and dispatches on
    kEndBatch,  // the batch must end (trap, MMIO, segment abort)
    // A fused op did not fit the remaining budget: the hart is spilled at its first
    // member, which RunBatch must run through Tick() rather than re-dispatch.
    kMisfit,
  };

  // Sum of the two global monotonic invalidation counters of decoded code: stores
  // into PT-marked pages (bus; a fetch walk's PTE pages are PT-marked) and local
  // fence.i. Each counter only grows, so the sum only grows and a single equality
  // compare validates both. Stores into the code itself are page-local: entries also
  // compare their page's code generation. The PMP configuration is not a counter
  // here: its content id is part of the ctx key (CtxKey).
  uint64_t cache_stamp() const;

  // Packs the physical PMP bank's content id (PmpBank::generation()) above a context
  // byte. The id is not monotonic — a world switch that restores a configuration gets
  // its old id back — so it cannot join the sums in cache_stamp()/tlb_stamp(), where
  // two moves in opposite directions could cancel; it is compared as a key instead.
  // Sharing a word with the byte keeps that compare free, and distinct (id, byte)
  // pairs never share a word: the id is below 2^56 (PmpBank::kMaxGeneration), so
  // the shift loses none of its bits.
  static uint64_t CtxKey(uint64_t pmp_id, uint8_t byte) { return pmp_id << 8 | byte; }
  // The decode-cache and block context key: PMP content id, virt and priv.
  uint64_t FetchCtx() const {
    return CtxKey(csrs_.pmp().generation(),
                  static_cast<uint8_t>((virt_ ? 4 : 0) | static_cast<uint8_t>(priv_)));
  }

  // The slot of `pc` in a code cache (the decode or the block cache) of mask + 1
  // entries: pc >> 2 plus a rotation hashed from the page number. Consecutive
  // instructions of a page keep consecutive slots, while two pages that share an
  // offset within the cache window (the firmware and the OS code it returns to lie a
  // multiple of every window apart) start at unrelated slots instead of evicting
  // each other on every world switch.
  static uint64_t CodeSlot(uint64_t pc, uint64_t mask) {
    return ((pc >> 2) + ((pc >> 12) * 0x9E3779B97F4A7C15ull >> 44)) & mask;
  }

  // The full decode-cache hit condition for `entry` at `pc` under the given stamp and
  // translation context. The code-generation load comes last: it is only reached
  // once the stamp has proven the slot filled (an untouched slot has stamp 0).
  static bool FetchHit(const FetchEntry& entry, uint64_t pc, uint64_t stamp, uint64_t satp,
                       uint64_t ctx) {
    return entry.tag == pc && entry.stamp == stamp && entry.satp == satp && entry.ctx == ctx &&
           *entry.code_gen == entry.code_gen_at_fill;
  }

  // TLB analogue of cache_stamp(): stores into PT-marked pages (bus), explicit full
  // flushes, and RAM-region changes (which would dangle cached host_page pointers).
  // satp writes, privilege/SUM/MXR changes and PMP reconfiguration need no counter —
  // they are part of each entry's key.
  uint64_t tlb_stamp() const;

  // The TLB key of a translation. Identity translations (TranslatesIdentity) use
  // satp 0, which no Sv39 root can equal (its mode field is non-zero), and only the
  // privilege in the context byte: SUM and MXR change nothing without a walk. Paged
  // translations use the satp value, and their context byte adds SUM for data
  // accesses and MXR for loads, mirroring TranslateSv39's permission logic, so
  // irrelevant bits are masked out to avoid needless misses. The context key also
  // carries the PMP content id (CtxKey): fill-time PMP verdicts and the walk's
  // per-PTE checks depend on the bank.
  static uint64_t TlbSatp(const TranslateParams& params) {
    return TranslatesIdentity(params) ? 0 : params.satp;
  }
  static uint64_t TlbCtx(const TranslateParams& params, uint64_t pmp_id, AccessType type);

  // Effective privilege for data accesses (honors mstatus.MPRV).
  PrivMode DataPriv() const;
  bool DataVirt() const;

  // Translation core shared by the interpreter path (Translate) and the monitor's
  // explicit-context path (ReadMemoryAs/WriteMemoryAs). Consults the software TLB
  // before walking. Entries are keyed on the content id of the bank `pmp` checked
  // against, so one filled under the firmware's virtual bank (the monitor's MPRV
  // emulation) never serves a lookup under the physical bank, nor the reverse.
  AccessOutcome TranslateWith(const PmpBank& pmp, const TranslateParams& params,
                              uint64_t vaddr, unsigned size, AccessType type);
  AccessOutcome Translate(uint64_t vaddr, unsigned size, AccessType type, PrivMode priv,
                          bool use_vsatp);
  // The translation inputs of an access at `priv`, through vsatp/vsstatus when
  // `use_vsatp`, else satp/mstatus.
  TranslateParams ParamsFor(PrivMode priv, bool use_vsatp) const;
  StepResult Execute(const DecodedInstr& instr);
  StepResult ExecuteCsrOp(const DecodedInstr& instr);
  StepResult ExecuteMret(const DecodedInstr& instr);
  StepResult ExecuteSret(const DecodedInstr& instr);
  StepResult ExecuteWfi(const DecodedInstr& instr);
  StepResult ExecuteLoadStore(const DecodedInstr& instr);
  StepResult ExecuteAmo(const DecodedInstr& instr);
  StepResult IllegalInstr(const DecodedInstr& instr);
  StepResult Retire(uint64_t next_pc, uint64_t cycles);

  // Builds (or rebuilds) the block starting at pc_ from currently-valid decode-cache
  // entries, lowering each member as it is captured. Returns false, leaving `sb`
  // untouched, if not even one instruction could be captured (cold or stale
  // decode-cache slot at pc_, or a barrier op there).
  bool FillSuperblock(SuperblockEntry* sb);
  // Drops every block and empties the pools (FillSuperblock calls this when a slot
  // needs fresh storage that no longer fits). Reads every slot, writes built ones.
  void FlushSuperblocks();
  // Appends the lowering of one member at `pc` to `sb` (DESIGN.md §2f): 1:1 handler
  // mapping plus constant folding of li/auipc + ALU-immediate chains, compare+branch
  // fusion, and cycle-charge pre-summing. Pure translation — no architectural effects.
  void LowerInstr(const FetchEntry& entry, SbClass cls, uint64_t pc, SuperblockEntry* sb) const;
  // The cycles an ALU/M op of class `cost` charges (every other op: kBase).
  uint64_t AluCycles(CostClass cost) const {
    return cost_->instr_base + (cost == CostClass::kMulDiv ? cost_->instr_muldiv : 0);
  }
  // Executes a lowered block by direct handler dispatch, retiring up to steps_left
  // instructions or until stop_cycles, a trap, or a slow-path event ends the block or
  // the batch. Adds what it ran to batch_ and writes the final tick into batch_.last.
  // With `table_out` non-null, performs no execution and only returns the handler
  // table (the computed-goto labels are local to this function).
  SbExit ExecuteThreaded(const SuperblockEntry* sb, uint64_t steps_left, uint64_t stop_cycles,
                         const void* const** table_out = nullptr);
  void BuildFastMemCtx(FastMemCtx* ctx) const;

  // Allocates the configured translation-cache arrays on first execution. Harts are
  // constructed cheaply (a forked machine may never run some harts, and eager
  // multi-megabyte cache allocation would dominate Machine::Fork's latency); Tick()
  // and RunBatch() pay one predictable branch to trigger this.
  void EnsureCaches();

  // -- Quantum-mode segment internals (DESIGN.md §2i). ------------------------------
  // Segment store buffer: 8-byte granules keyed by aligned physical address,
  // insertion-ordered for the barrier flush. Granule data is initialized from RAM at
  // insert — sound because RAM is frozen for the whole segment (every hart buffers
  // its stores and fast-path stores are disabled).
  struct StoreGranule {
    uint64_t addr = 0;  // 8-byte-aligned physical address, fully inside RAM
    uint64_t data = 0;  // granule bytes, little-endian
    uint8_t dirty = 0;  // per-byte dirty mask (bit k = byte addr+k was stored)
  };
  // Routes the Sv39 walker's PTE accesses through the store buffer while a segment
  // is active: reads overlay buffered bytes, A/D updates buffer instead of writing,
  // and non-RAM PTE addresses decline (=> segment abort).
  class SegmentPt : public PtAccessor {
   public:
    explicit SegmentPt(Hart* hart) : hart_(hart) {}
    bool ReadPte(uint64_t pte_addr, uint64_t* pte) override;
    bool WritePte(uint64_t pte_addr, uint64_t pte) override;

   private:
    Hart* hart_;
  };
  // Parks the hart sync-pending and returns the aborted StepResult (no architectural
  // effect has happened; pc/counters are untouched).
  StepResult AbortSegment();
  // Buffers a store of `size` (1..8) bytes at `paddr` (must be fully inside RAM).
  void SegmentBufferStore(uint64_t paddr, unsigned size, uint64_t value);
  // Replaces bytes of *value (a zero-extended raw load of `size` bytes from `paddr`)
  // that the store buffer holds dirty. Callers apply this before sign extension.
  void OverlayLoad(uint64_t paddr, unsigned size, uint64_t* value) const;

  unsigned index_;
  Bus* bus_;
  const CostModel* cost_;
  CsrFile csrs_;
  uint64_t gpr_[32] = {};
  uint64_t pc_ = 0;
  PrivMode priv_ = PrivMode::kMachine;
  bool virt_ = false;
  bool waiting_ = false;
  std::optional<uint64_t> reservation_;
  uint64_t traps_taken_ = 0;
  BatchResult batch_;  // the current or last RunBatch's result, built in place

  // The translation caches below are arrays in cache_memory_, one zero-filled
  // mapping made by EnsureCaches: a hart commits host memory only for the slots its
  // guest touches.
  ZeroedMemory cache_memory_;

  // Decoded-instruction cache (direct-mapped, indexed by CodeSlot). Null when the
  // cache is disabled; icache_mask_ == 0 doubles as the "disabled" flag.
  FetchEntry* icache_ = nullptr;
  uint64_t icache_mask_ = 0;
  uint64_t fence_gen_ = 1;  // bumped by fence.i; starts at 1 so cache_stamp() >= 1
  uint64_t icache_hits_ = 0;
  uint64_t icache_misses_ = 0;

  // Software TLB: direct-mapped by virtual page number, one entry per access type
  // (fetch/load/store) in each slot: the entry for `type` of slot i is
  // tlb_[3 * i + type]. Separate entries keep the A/D fill invariant local to each
  // access type; keeping a slot's three side by side means one committed host page
  // of the lazily mapped array serves every access type of the guest pages it
  // covers. Null when disabled; tlb_mask_ == 0 doubles as the "disabled" flag.
  TlbEntry* tlb_ = nullptr;
  uint64_t tlb_mask_ = 0;
  uint64_t tlb_gen_ = 1;  // bumped by FlushTlb; starts at 1 so tlb_stamp() >= 1
  uint64_t tlb_hits_ = 0;
  uint64_t tlb_misses_ = 0;
  uint64_t tlb_flushes_ = 0;

  // Block cache (direct-mapped, indexed by CodeSlot of the start pc). Null when
  // disabled; sb_mask_ == 0 doubles as the "disabled" flag. Requires the decode
  // cache: blocks are built from, and validated against, its entries.
  SuperblockEntry* sblocks_ = nullptr;
  uint64_t sb_mask_ = 0;
  // Block storage: each slot's lowered ops and mem instrs are bump-allocated here
  // on its first build and reused by rebuilds that fit; a slot that outgrows its
  // storage abandons it for a fresh run. When the pools run out, FlushSuperblocks
  // drops every block and rewinds both. Blocks are lowered into the build buffers
  // first, since their length is only known at the end.
  ThreadedOp* op_pool_ = nullptr;
  MemInstr* mem_pool_ = nullptr;
  size_t op_pool_size_ = 0;
  size_t mem_pool_size_ = 0;
  size_t op_top_ = 0;
  size_t mem_top_ = 0;
  ThreadedOp* build_ops_ = nullptr;  // kMaxSuperblockLen + 1 ops
  MemInstr* build_mem_ = nullptr;    // kMaxSuperblockLen mem instrs
  uint64_t sb_hits_ = 0;
  uint64_t sb_misses_ = 0;
  uint64_t sb_blocks_ = 0;
  uint64_t sb_instrs_ = 0;
  uint64_t threaded_promotions_ = 0;
  uint64_t threaded_deopts_ = 0;
  uint64_t fastmem_hits_ = 0;
  uint64_t fastmem_misses_ = 0;
  // ExecuteThreaded's handler table, fetched once when the block cache is allocated.
  const void* const* handlers_ = nullptr;


  // Deferred cache sizing (see EnsureCaches): entry counts computed at construction,
  // applied on first execution (zero when disabled).
  uint64_t pending_icache_entries_ = 0;
  uint64_t pending_tlb_entries_ = 0;
  uint64_t pending_sb_entries_ = 0;
  bool caches_ready_ = false;

  // Quantum-mode segment state (always quiescent outside a RunQuantum barrier
  // interval: segment inactive, nothing pending, buffer empty — so none of this is
  // part of SaveState).
  bool segment_active_ = false;
  bool sync_pending_ = false;
  std::vector<StoreGranule> sbuf_;
  std::unordered_map<uint64_t, uint32_t> sbuf_index_;  // granule addr -> sbuf_ index
  SegmentPt segment_pt_{this};
};

}  // namespace vfm

#endif  // SRC_SIM_HART_H_
