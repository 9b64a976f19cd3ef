#include "src/sim/hart.h"

#include <algorithm>
#include <cstring>

#include "src/common/bits.h"
#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/state.h"

namespace vfm {

namespace {

// Rounds up to a power of two so the index is a mask.
uint64_t RoundUpPow2(uint64_t entries) {
  while ((entries & (entries - 1)) != 0) {
    entries += entries & -entries;
  }
  return entries;
}

}  // namespace

Hart::Hart(unsigned index, Bus* bus, const HartIsaConfig& isa, const CostModel* cost,
           const SimTuning& tuning)
    : index_(index), bus_(bus), cost_(cost), csrs_(isa, index) {
  // Cache sizing only — allocation is deferred to the first Tick/RunBatch
  // (EnsureCaches), keeping hart construction microsecond-cheap for Machine::Fork.
  if (tuning.decode_cache_entries != 0) {
    pending_icache_entries_ = RoundUpPow2(tuning.decode_cache_entries);
  }
  if (tuning.tlb_entries != 0) {
    pending_tlb_entries_ = RoundUpPow2(tuning.tlb_entries);
  }
  // The block cache builds from decode-cache entries, so it is only allocated when
  // the decode cache exists.
  if (pending_icache_entries_ != 0 && tuning.superblock_entries != 0) {
    // The block executor's single clamped budget compare (ExecuteThreaded) relies on
    // every retired instruction charging at least one cycle.
    VFM_CHECK_MSG(cost->instr_base >= 1,
                  "the block tier needs a cost model with instr_base >= 1");
    pending_sb_entries_ = RoundUpPow2(tuning.superblock_entries);
  }
}

void Hart::EnsureCaches() {
  caches_ready_ = true;
  const uint64_t sb_entries = pending_sb_entries_;
  if (sb_entries != 0) {
    // Room for every slot to hold a long block, and never fewer than four maximal
    // blocks. Slots reuse their storage across rebuilds, so the pools fill only as
    // slots outgrow it.
    op_pool_size_ = std::max<uint64_t>(sb_entries * 16, 4 * (kMaxSuperblockLen + 1));
    mem_pool_size_ = std::max<uint64_t>(sb_entries * 8, 4 * kMaxSuperblockLen);
  }
  // Every cache array lives in one zero-filled mapping: one mmap whatever the sizes,
  // and the hart commits host memory only for the slots its guest touches.
  ZeroedLayout layout;
  const size_t icache_at = layout.Add<FetchEntry>(pending_icache_entries_);
  size_t tlb_at[3];
  for (size_t& at : tlb_at) {
    at = layout.Add<TlbEntry>(pending_tlb_entries_);
  }
  const size_t sblocks_at = layout.Add<SuperblockEntry>(sb_entries);
  const size_t op_pool_at = layout.Add<ThreadedOp>(op_pool_size_);
  const size_t mem_pool_at = layout.Add<MemInstr>(mem_pool_size_);
  const size_t build_ops_at = layout.Add<ThreadedOp>(sb_entries != 0 ? kMaxSuperblockLen + 1 : 0);
  const size_t build_mem_at = layout.Add<MemInstr>(sb_entries != 0 ? kMaxSuperblockLen : 0);
  cache_memory_ = ZeroedMemory(layout.size());
  // A mask of 0 doubles as each cache's "disabled" flag.
  if (pending_icache_entries_ != 0) {
    icache_ = cache_memory_.At<FetchEntry>(icache_at);
    icache_mask_ = pending_icache_entries_ - 1;
  }
  if (pending_tlb_entries_ != 0) {
    for (unsigned i = 0; i < 3; ++i) {
      tlb_[i] = cache_memory_.At<TlbEntry>(tlb_at[i]);
    }
    tlb_mask_ = pending_tlb_entries_ - 1;
  }
  if (sb_entries != 0) {
    sblocks_ = cache_memory_.At<SuperblockEntry>(sblocks_at);
    sb_mask_ = sb_entries - 1;
    op_pool_ = cache_memory_.At<ThreadedOp>(op_pool_at);
    mem_pool_ = cache_memory_.At<MemInstr>(mem_pool_at);
    build_ops_ = cache_memory_.At<ThreadedOp>(build_ops_at);
    build_mem_ = cache_memory_.At<MemInstr>(build_mem_at);
    ExecuteThreaded(nullptr, 0, 0, &handlers_);
  }
}

uint64_t Hart::cache_stamp() const {
  return bus_->pt_generation() + csrs_.pmp().generation() + fence_gen_;
}

uint64_t Hart::tlb_stamp() const {
  // ram_generation() is folded in for the host-pointer fast path: a RAM remap must
  // invalidate every cached host_page pointer before it can dangle or go stale.
  return bus_->pt_generation() + csrs_.pmp().generation() + tlb_gen_ + bus_->ram_generation();
}

uint8_t Hart::TlbCtx(PrivMode priv, bool sum, bool mxr, AccessType type) {
  uint8_t ctx = static_cast<uint8_t>(priv);
  if (sum && type != AccessType::kFetch) {
    ctx |= 1 << 2;
  }
  if (mxr && type == AccessType::kLoad) {
    ctx |= 1 << 3;
  }
  return ctx;
}

void Hart::FlushTlb() {
  if (tlb_mask_ == 0) {
    return;
  }
  ++tlb_gen_;  // invalidates every entry via the stamp compare
  ++tlb_flushes_;
}

void Hart::FlushTlbPage(uint64_t vaddr) {
  if (tlb_mask_ == 0) {
    return;
  }
  const uint64_t vpage = vaddr >> 12;
  for (TlbEntry* array : tlb_) {
    TlbEntry& entry = array[vpage & tlb_mask_];
    if (entry.vpage == vpage) {
      entry.vpage = ~uint64_t{0};
    }
  }
  ++tlb_flushes_;
}

PrivMode Hart::DataPriv() const {
  const uint64_t mstatus = csrs_.mstatus();
  if (priv_ == PrivMode::kMachine && Bit(mstatus, MstatusBits::kMprv) != 0) {
    return static_cast<PrivMode>(ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo));
  }
  return priv_;
}

bool Hart::DataVirt() const {
  const uint64_t mstatus = csrs_.mstatus();
  if (priv_ == PrivMode::kMachine && Bit(mstatus, MstatusBits::kMprv) != 0) {
    return Bit(mstatus, MstatusBits::kMpv) != 0 &&
           ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo) !=
               static_cast<uint64_t>(PrivMode::kMachine);
  }
  return virt_;
}

Hart::AccessOutcome Hart::TranslateWith(const PmpBank& pmp, bool cacheable,
                                        const TranslateParams& params, uint64_t vaddr,
                                        unsigned size, AccessType type) {
  AccessOutcome out;
  // The TLB engages only where TranslateSv39 would actually walk: Sv39 mode at S/U
  // effective privilege. Bare-mode and M-mode accesses are identity-mapped already.
  const bool walked =
      ExtractBits(params.satp, SatpBits::kModeHi, SatpBits::kModeLo) == SatpBits::kModeSv39 &&
      params.priv != PrivMode::kMachine;
  const bool engaged = cacheable && tlb_mask_ != 0 && walked;
  const uint64_t vpage = vaddr >> 12;
  TlbEntry* slot = nullptr;
  if (engaged) {
    slot = &tlb_[static_cast<unsigned>(type)][vpage & tlb_mask_];
    // A hit replays a previous successful walk for this access type: the satp value
    // and context byte prove the walk inputs match, and the stamp proves no store
    // touched the page tables it read (and no PMP write or explicit flush happened).
    // Entries are filled only post-A/D-update, so a hit never writes memory.
    if (slot->vpage == vpage && slot->satp == params.satp &&
        slot->ctx == TlbCtx(params.priv, params.sum, params.mxr, type) &&
        slot->stamp == tlb_stamp()) {
      ++tlb_hits_;
      const uint64_t paddr = slot->paddr_page | (vaddr & MaskLow(12));
      out.extra_cycles = slot->extra_cycles;  // the original walk's cycle cost
      // The final PMP check depends on the access size. When the fill-time check
      // proved the whole frame uniformly permitted it is skipped — any contained
      // access matches the same PMP entry with the same verdict (a spanning
      // misaligned access reaches past the frame, so it still scans). The per-PTE
      // walk checks are covered by the PMP generation folded into the stamp.
      if ((!slot->pmp_whole_page || (vaddr & MaskLow(12)) + size > 4096) &&
          !pmp.Check(paddr, size, type, params.priv)) {
        out.cause = AccessFaultFor(type);
        return out;
      }
      out.ok = true;
      out.paddr = paddr;
      // Only decode-cache fills consume the replayed PTE addresses, and they only
      // ever see fetch translations; data hits skip the copy.
      if (type == AccessType::kFetch) {
        out.pte_count = slot->pte_count;
        for (unsigned i = 0; i < slot->pte_count; ++i) {
          out.pte_addrs[i] = slot->pte_addrs[i];
        }
      }
      return out;
    }
    ++tlb_misses_;
  }

  const TranslateResult tr =
      TranslateSv39(bus_, pmp, params, vaddr, type, segment_active_ ? &segment_pt_ : nullptr);
  if (!tr.ok) {
    out.cause = tr.fault;
    out.segment_abort = tr.segment_abort;
    return out;
  }
  out.extra_cycles = tr.walk_levels * cost_->page_walk_level;
  if (!pmp.Check(tr.paddr, size, type, params.priv)) {
    out.cause = AccessFaultFor(type);
    return out;
  }
  out.ok = true;
  out.paddr = tr.paddr;
  out.pte_count = tr.pte_count;
  for (unsigned i = 0; i < tr.pte_count; ++i) {
    out.pte_addrs[i] = tr.pte_addrs[i];
  }

  if (engaged) {
    // Fill: mark every PTE page the walk read so a later store into a page table
    // invalidates this entry. A PTE page outside RAM cannot be watched, so such
    // translations are never cached. The stamp is taken AFTER marking — the walk's
    // own A/D update may have stored into a marked page and bumped pt_generation.
    bool trackable = true;
    for (unsigned i = 0; i < tr.pte_count; ++i) {
      trackable &= bus_->MarkPtPage(tr.pte_addrs[i]);
    }
    if (trackable) {
      slot->vpage = vpage;
      slot->paddr_page = tr.paddr & ~MaskLow(12);
      slot->satp = params.satp;
      slot->extra_cycles = out.extra_cycles;
      slot->pte_count = static_cast<uint8_t>(tr.pte_count);
      for (unsigned i = 0; i < tr.pte_count; ++i) {
        slot->pte_addrs[i] = tr.pte_addrs[i];
      }
      slot->ctx = TlbCtx(params.priv, params.sum, params.mxr, type);
      slot->pmp_whole_page = pmp.Check(slot->paddr_page, 4096, type, params.priv);
      // Host-pointer fast path: only whole-page-permitted plain-RAM frames qualify,
      // so a superblock access through host_page needs no per-access PMP or routing.
      slot->host_page = nullptr;
      slot->page_mark = nullptr;
      slot->code_page = nullptr;
      if (slot->pmp_whole_page) {
        uint8_t* data = nullptr;
        const uint8_t* marks = nullptr;
        const CodePage* code = nullptr;
        if (bus_->HostPage(slot->paddr_page, &data, &marks, &code)) {
          slot->host_page = data;
          slot->page_mark = marks;
          slot->code_page = code;
        }
      }
      slot->stamp = tlb_stamp();
    }
  }
  return out;
}

Hart::AccessOutcome Hart::Translate(uint64_t vaddr, unsigned size, AccessType type,
                                    PrivMode priv, bool use_vsatp) {
  TranslateParams params;
  params.satp = use_vsatp ? csrs_.vsatp() : csrs_.satp();
  params.priv = priv;
  const uint64_t status = use_vsatp ? csrs_.Get(kCsrVsstatus) : csrs_.mstatus();
  params.sum = Bit(status, MstatusBits::kSum) != 0;
  params.mxr = Bit(status, MstatusBits::kMxr) != 0;
  return TranslateWith(csrs_.pmp(), /*cacheable=*/true, params, vaddr, size, type);
}

Hart::MemResult Hart::ReadMemory(uint64_t vaddr, unsigned size, uint64_t* value) {
  MemResult result;
  if (!csrs_.config().hw_misaligned && !IsAligned(vaddr, size)) {
    result.ok = false;
    result.cause = ExceptionCause::kLoadAddrMisaligned;
    return result;
  }
  const AccessOutcome out = Translate(vaddr, size, AccessType::kLoad, DataPriv(), DataVirt());
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
    return result;
  }
  if (!bus_->Read(out.paddr, size, value)) {
    result.ok = false;
    result.cause = ExceptionCause::kLoadAccessFault;
    return result;
  }
  return result;
}

Hart::MemResult Hart::WriteMemory(uint64_t vaddr, unsigned size, uint64_t value) {
  MemResult result;
  if (!csrs_.config().hw_misaligned && !IsAligned(vaddr, size)) {
    result.ok = false;
    result.cause = ExceptionCause::kStoreAddrMisaligned;
    return result;
  }
  const AccessOutcome out = Translate(vaddr, size, AccessType::kStore, DataPriv(), DataVirt());
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
    return result;
  }
  if (!bus_->Write(out.paddr, size, value)) {
    result.ok = false;
    result.cause = ExceptionCause::kStoreAccessFault;
    return result;
  }
  return result;
}

Hart::MemResult Hart::ReadMemoryAs(PrivMode priv, uint64_t satp_override, uint64_t vaddr,
                                   unsigned size, uint64_t* value,
                                   const PmpBank* pmp_override) {
  MemResult result;
  const PmpBank& pmp = pmp_override != nullptr ? *pmp_override : csrs_.pmp();
  TranslateParams params;
  params.satp = satp_override;
  params.priv = priv;
  const uint64_t mstatus = csrs_.mstatus();
  params.sum = Bit(mstatus, MstatusBits::kSum) != 0;
  params.mxr = Bit(mstatus, MstatusBits::kMxr) != 0;
  // With a PMP override (the monitor's MPRV emulation passes the firmware's virtual
  // bank), the TLB is bypassed entirely: its stamp tracks only the physical bank's
  // generation, so entries can neither validate against nor be filled under a foreign
  // bank. Overrideless calls share entries with the interpreter path.
  const AccessOutcome out = TranslateWith(pmp, /*cacheable=*/pmp_override == nullptr, params,
                                          vaddr, size, AccessType::kLoad);
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
    return result;
  }
  if (!bus_->Read(out.paddr, size, value)) {
    result.ok = false;
    result.cause = ExceptionCause::kLoadAccessFault;
    return result;
  }
  return result;
}

Hart::MemResult Hart::WriteMemoryAs(PrivMode priv, uint64_t satp_override, uint64_t vaddr,
                                    unsigned size, uint64_t value,
                                    const PmpBank* pmp_override) {
  MemResult result;
  const PmpBank& pmp = pmp_override != nullptr ? *pmp_override : csrs_.pmp();
  TranslateParams params;
  params.satp = satp_override;
  params.priv = priv;
  const uint64_t mstatus = csrs_.mstatus();
  params.sum = Bit(mstatus, MstatusBits::kSum) != 0;
  params.mxr = Bit(mstatus, MstatusBits::kMxr) != 0;
  const AccessOutcome out = TranslateWith(pmp, /*cacheable=*/pmp_override == nullptr, params,
                                          vaddr, size, AccessType::kStore);
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
    return result;
  }
  if (!bus_->Write(out.paddr, size, value)) {
    result.ok = false;
    result.cause = ExceptionCause::kStoreAccessFault;
    return result;
  }
  return result;
}

std::optional<uint64_t> Hart::PendingInterrupt() const {
  const uint64_t mip = csrs_.EffectiveMip();
  const uint64_t mie = csrs_.mie();
  const uint64_t pending = mip & mie;
  if (pending == 0) {
    return std::nullopt;  // fast path: nothing pending and enabled
  }
  const uint64_t mideleg = csrs_.Get(kCsrMideleg);
  const uint64_t mstatus = csrs_.mstatus();

  // Machine-level interrupts (not delegated).
  const uint64_t m_pending = pending & ~mideleg;
  const bool m_enabled =
      priv_ != PrivMode::kMachine || Bit(mstatus, MstatusBits::kMie) != 0;
  if (m_pending != 0 && m_enabled) {
    static const InterruptCause kPriority[] = {
        InterruptCause::kMachineExternal,   InterruptCause::kMachineSoftware,
        InterruptCause::kMachineTimer,      InterruptCause::kSupervisorExternal,
        InterruptCause::kSupervisorSoftware, InterruptCause::kSupervisorTimer,
    };
    for (InterruptCause cause : kPriority) {
      if ((m_pending & InterruptMask(cause)) != 0) {
        return CauseValue(cause);
      }
    }
  }

  // Supervisor-level interrupts (delegated to S, not to VS).
  const uint64_t hideleg = csrs_.config().has_h_ext ? csrs_.hideleg() : 0;
  const uint64_t s_pending = pending & mideleg & ~hideleg & ~kVsInterrupts;
  const bool s_enabled =
      priv_ == PrivMode::kUser || virt_ ||
      (priv_ == PrivMode::kSupervisor && Bit(mstatus, MstatusBits::kSie) != 0);
  if (s_pending != 0 && priv_ != PrivMode::kMachine && s_enabled) {
    static const InterruptCause kPriority[] = {
        InterruptCause::kSupervisorExternal,
        InterruptCause::kSupervisorSoftware,
        InterruptCause::kSupervisorTimer,
    };
    for (InterruptCause cause : kPriority) {
      if ((s_pending & InterruptMask(cause)) != 0) {
        return CauseValue(cause);
      }
    }
  }

  // VS-level interrupts: taken only while in a virtualized mode.
  if (csrs_.config().has_h_ext) {
    const uint64_t vs_pending = pending & (mideleg | kVsInterrupts) & hideleg & kVsInterrupts;
    const uint64_t vsstatus = csrs_.Get(kCsrVsstatus);
    const bool vs_enabled =
        virt_ && (priv_ == PrivMode::kUser ||
                  (priv_ == PrivMode::kSupervisor && Bit(vsstatus, MstatusBits::kSie) != 0));
    if (vs_pending != 0 && vs_enabled) {
      static const InterruptCause kPriority[] = {
          InterruptCause::kVirtualSupervisorExternal,
          InterruptCause::kVirtualSupervisorSoftware,
          InterruptCause::kVirtualSupervisorTimer,
      };
      for (InterruptCause cause : kPriority) {
        if ((vs_pending & InterruptMask(cause)) != 0) {
          return CauseValue(cause);
        }
      }
    }
  }
  return std::nullopt;
}

StepResult Hart::TakeTrap(uint64_t cause, uint64_t tval) {
  StepResult result;
  result.executed = true;
  result.trapped = true;
  result.trap_cause = cause;
  result.cycles = cost_->trap_entry;
  ++traps_taken_;
  waiting_ = false;

  const bool is_interrupt = (cause & kInterruptBit) != 0;
  const uint64_t code = cause & ~kInterruptBit;
  const uint64_t deleg = is_interrupt ? csrs_.Get(kCsrMideleg) : csrs_.medeleg();
  const bool delegated_to_s =
      priv_ != PrivMode::kMachine && code < 64 && (deleg & (uint64_t{1} << code)) != 0;

  if (delegated_to_s && csrs_.config().has_h_ext && virt_) {
    const uint64_t hdeleg = is_interrupt ? csrs_.hideleg() : csrs_.hedeleg();
    if (code < 64 && (hdeleg & (uint64_t{1} << code)) != 0) {
      // Trap to VS-mode. VS interrupts use the supervisor encoding inside the guest.
      uint64_t vs_code = code;
      if (is_interrupt && (InterruptMask(static_cast<InterruptCause>(code)) & kVsInterrupts)) {
        vs_code = code - 1;
      }
      csrs_.Set(kCsrVscause, (is_interrupt ? kInterruptBit : 0) | vs_code);
      csrs_.Set(kCsrVsepc, pc_);
      csrs_.Set(kCsrVstval, tval);
      uint64_t vsstatus = csrs_.Get(kCsrVsstatus);
      vsstatus = SetBit(vsstatus, MstatusBits::kSpie, Bit(vsstatus, MstatusBits::kSie));
      vsstatus = SetBit(vsstatus, MstatusBits::kSie, 0);
      vsstatus = SetBit(vsstatus, MstatusBits::kSpp,
                        priv_ == PrivMode::kUser ? 0 : 1);
      csrs_.Set(kCsrVsstatus, vsstatus);
      priv_ = PrivMode::kSupervisor;
      pc_ = TrapTargetPc(csrs_.vstvec(), (is_interrupt ? kInterruptBit : 0) | vs_code);
      result.trap_target = PrivMode::kSupervisor;
      return result;
    }
    // Trap to HS-mode from a virtualized mode.
    uint64_t hstatus = csrs_.Get(kCsrHstatus);
    hstatus = SetBit(hstatus, HstatusBits::kSpv, 1);
    hstatus = SetBit(hstatus, HstatusBits::kSpvp, priv_ == PrivMode::kUser ? 0 : 1);
    csrs_.Set(kCsrHstatus, hstatus);
    virt_ = false;
  } else if (delegated_to_s && csrs_.config().has_h_ext) {
    uint64_t hstatus = csrs_.Get(kCsrHstatus);
    hstatus = SetBit(hstatus, HstatusBits::kSpv, 0);
    csrs_.Set(kCsrHstatus, hstatus);
  }

  if (delegated_to_s) {
    csrs_.Set(kCsrScause, cause);
    csrs_.Set(kCsrSepc, pc_);
    csrs_.Set(kCsrStval, tval);
    uint64_t mstatus = csrs_.mstatus();
    mstatus = SetBit(mstatus, MstatusBits::kSpie, Bit(mstatus, MstatusBits::kSie));
    mstatus = SetBit(mstatus, MstatusBits::kSie, 0);
    mstatus = SetBit(mstatus, MstatusBits::kSpp, priv_ == PrivMode::kUser ? 0 : 1);
    csrs_.set_mstatus(mstatus);
    priv_ = PrivMode::kSupervisor;
    pc_ = TrapTargetPc(csrs_.stvec(), cause);
    result.trap_target = PrivMode::kSupervisor;
    return result;
  }

  // Trap to M-mode.
  csrs_.Set(kCsrMcause, cause);
  csrs_.Set(kCsrMepc, pc_);
  csrs_.Set(kCsrMtval, tval);
  uint64_t mstatus = csrs_.mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kMpie, Bit(mstatus, MstatusBits::kMie));
  mstatus = SetBit(mstatus, MstatusBits::kMie, 0);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(priv_));
  if (csrs_.config().has_h_ext) {
    mstatus = SetBit(mstatus, MstatusBits::kMpv, virt_ ? 1 : 0);
  }
  csrs_.set_mstatus(mstatus);
  virt_ = false;
  priv_ = PrivMode::kMachine;
  pc_ = TrapTargetPc(csrs_.mtvec(), cause);
  result.trap_target = PrivMode::kMachine;
  result.entered_mmode = true;
  return result;
}

StepResult Hart::Retire(uint64_t next_pc, uint64_t cycles) {
  StepResult result;
  result.executed = true;
  result.cycles = cycles;
  pc_ = next_pc;
  return result;
}

StepResult Hart::IllegalInstr(const DecodedInstr& instr) {
  return TakeTrap(CauseValue(ExceptionCause::kIllegalInstr), instr.raw);
}

StepResult Hart::Tick() {
  if (!caches_ready_) {
    EnsureCaches();
  }
  // Interrupts are sampled before instruction execution.
  if (const std::optional<uint64_t> interrupt = PendingInterrupt()) {
    return TakeTrap(*interrupt, 0);
  }
  if (waiting_) {
    // WFI parks the hart until an interrupt is pending (enabled or not).
    if ((csrs_.EffectiveMip() & csrs_.mie()) != 0) {
      waiting_ = false;
    } else {
      StepResult result;
      result.waiting = true;
      result.cycles = 1;
      csrs_.AddCycles(1);  // the clock keeps running while parked
      return result;
    }
  }

  // Fetch.
  if (!IsAligned(pc_, 4)) {
    return TakeTrap(CauseValue(ExceptionCause::kInstrAddrMisaligned), pc_);
  }

  // Decoded-instruction cache lookup. A hit replays a previous fetch of this pc: the
  // page's code generation proves no store touched the instruction bytes, the stamp
  // that none touched the page tables that translated them (and no PMP write or
  // fence.i happened), and the satp/priv/virt compare proves the translation context
  // is the one the entry was filled under. Fetch translation depends on nothing
  // else: mstatus.SUM/MXR only affect data accesses, and MPRV never applies to
  // fetches.
  if (icache_mask_ != 0) {
    const uint64_t effective_satp = virt_ ? csrs_.vsatp() : csrs_.satp();
    const FetchEntry& entry = icache_[(pc_ >> 2) & icache_mask_];
    if (FetchHit(entry, pc_, cache_stamp(), effective_satp, static_cast<uint8_t>(priv_),
                 virt_)) {
      ++icache_hits_;
      StepResult result = Execute(entry.instr);
      if (result.aborted) {
        return result;  // segment sync event: nothing retired, no cycles charged
      }
      result.cycles += entry.extra_cycles;  // the original fetch's page-walk cost
      if (!result.trapped) {
        csrs_.AddInstret(1);
      }
      csrs_.AddCycles(result.cycles);
      return result;
    }
  }

  const AccessOutcome fetch = Translate(pc_, 4, AccessType::kFetch, priv_, virt_);
  if (fetch.segment_abort) {
    return AbortSegment();  // fetch walk hit a non-RAM PTE: resolve at the barrier
  }
  if (!fetch.ok) {
    return TakeTrap(CauseValue(fetch.cause), pc_);
  }
  if (segment_active_ && !bus_->IsRam(fetch.paddr, 4)) {
    return AbortSegment();  // MMIO fetch: needs full bus access at the barrier
  }
  uint64_t word = 0;
  if (!bus_->Read(fetch.paddr, 4, &word)) {
    return TakeTrap(CauseValue(ExceptionCause::kInstrAccessFault), pc_);
  }

  const DecodedInstr instr = Decode(static_cast<uint32_t>(word));

  // Fill the cache and mark everything this decode depends on: the instruction's
  // granule (4-byte-aligned, so one granule of one page) and, as page-table pages,
  // the PTEs the walk read. The stamps are taken AFTER the translate — the walk's
  // A/D update may itself have stored into a marked page and bumped a generation.
  // Only RAM-backed fetches whose PTEs are all in RAM are cached: an instruction
  // fetched from a device has no stable bytes to validate, and a PTE outside RAM
  // cannot be watched.
  if (icache_mask_ != 0 && bus_->IsRam(fetch.paddr, 4)) {
    ++icache_misses_;
    bool trackable = true;
    for (unsigned i = 0; i < fetch.pte_count; ++i) {
      trackable &= bus_->MarkPtPage(fetch.pte_addrs[i]);
    }
    if (trackable) {
      FetchEntry& entry = icache_[(pc_ >> 2) & icache_mask_];
      entry.code_gen = bus_->MarkCode(fetch.paddr);
      entry.code_gen_at_fill = *entry.code_gen;
      entry.tag = pc_;
      entry.stamp = cache_stamp();
      entry.satp = virt_ ? csrs_.vsatp() : csrs_.satp();
      entry.extra_cycles = fetch.extra_cycles;
      entry.instr = instr;
      entry.priv = static_cast<uint8_t>(priv_);
      entry.virt = virt_;
    }
  }

  StepResult result = Execute(instr);
  if (result.aborted) {
    return result;  // segment sync event: nothing retired, no cycles charged
  }
  result.cycles += fetch.extra_cycles;
  if (!result.trapped) {
    csrs_.AddInstret(1);
  }
  csrs_.AddCycles(result.cycles);
  return result;
}

Hart::BatchResult Hart::RunBatch(uint64_t max_steps, uint64_t stop_cycles) {
  if (!caches_ready_) {
    EnsureCaches();
  }
  BatchResult batch;
  const uint64_t mmio_start = bus_->mmio_ops();
  while (true) {
    // Block dispatch (DESIGN.md §2f). The gate re-establishes exactly the
    // per-instruction Tick preconditions: not parked, aligned pc, and no pending
    // enabled interrupt. Interrupt state cannot change inside a block — blocks
    // contain no CSR ops, mtime and the interrupt lines only advance between
    // batches, and an MMIO access ends the batch after its instruction — so one
    // sample per dispatch observes everything per-instruction sampling would.
    if (sb_mask_ != 0 && !waiting_ && IsAligned(pc_, 4) && !PendingInterrupt()) {
      SuperblockEntry& sb = sblocks_[(pc_ >> 2) & sb_mask_];
      const uint64_t effective_satp = virt_ ? csrs_.vsatp() : csrs_.satp();
      // The code-generation load comes last: only a built slot (stamp != 0) has one.
      bool valid = sb.tag == pc_ && sb.stamp == cache_stamp() && sb.satp == effective_satp &&
                   sb.priv == static_cast<uint8_t>(priv_) && sb.virt == virt_ &&
                   *sb.code_gen == sb.code_gen_at_fill;
      if (valid && sb.open_end) {
        // The block was cut short by a cold decode-cache slot. If the continuation
        // has since been decoded, rebuild to extend. A rebuild can only commit a
        // non-empty block, so the entry stays valid either way.
        const uint64_t cont_pc = sb.tag + uint64_t{4} * sb.count;
        if (FetchHit(icache_[(cont_pc >> 2) & icache_mask_], cont_pc, sb.stamp, sb.satp,
                     sb.priv, sb.virt)) {
          FillSuperblock(&sb);
        }
      }
      if (valid) {
        ++sb_hits_;
      } else {
        ++sb_misses_;
        valid = FillSuperblock(&sb);
      }
      if (valid) {
        const SbRun run = ExecuteThreaded(&sb, max_steps - batch.executed, stop_cycles);
        batch.executed += run.dispatched;
        batch.retired += run.dispatched - (run.last.trapped ? 1 : 0);
        batch.last = run.last;
        // A misfit stopped short of every boundary with the next instruction still
        // due; it is the head of a fused op, so re-dispatching a block there would
        // misfit again. One Tick retires it and the loop re-checks the bounds.
        if (!run.misfit) {
          if (run.end_batch || batch.executed >= max_steps || csrs_.mcycle() >= stop_cycles ||
              bus_->mmio_ops() != mmio_start) {
            return batch;
          }
          continue;
        }
      }
      // Cold decode-cache slot at pc_ (one per-instruction tick decodes it, after
      // which the next lookup can build the block), or a misfit continuation.
    }
    batch.last = Tick();
    if (batch.last.aborted) {
      return batch;  // quantum sync event: the tick had no effect; barrier re-runs it
    }
    ++batch.executed;
    if (batch.last.executed && !batch.last.trapped) {
      ++batch.retired;
    }
    if (batch.last.trapped || batch.last.waiting || batch.executed >= max_steps ||
        csrs_.mcycle() >= stop_cycles || bus_->mmio_ops() != mmio_start) {
      return batch;
    }
  }
}

bool Hart::FillSuperblock(SuperblockEntry* sb) {
  const uint64_t stamp = cache_stamp();
  const uint64_t effective_satp = virt_ ? csrs_.vsatp() : csrs_.satp();
  const uint8_t priv = static_cast<uint8_t>(priv_);
  // Capture straight-line decode-cache entries until a block-ending condition. Every
  // member must pass the full FetchEntry hit condition under one stamp — that single
  // check at build time, plus the stamp compare at dispatch, is what proves the whole
  // block is still exactly what per-instruction fetch would execute.
  // Members all lie in the first member's page (a block stops at a page boundary) and
  // share its context, so they share its code generation: the block stamps that one.
  const auto member = [&](uint64_t pc) -> const FetchEntry* {
    const FetchEntry& entry = icache_[(pc >> 2) & icache_mask_];
    return FetchHit(entry, pc, stamp, effective_satp, priv, virt_) ? &entry : nullptr;
  };
  // A failed (re)build must not damage the existing entry, so the first member is
  // vetted before anything is written.
  const FetchEntry* entry = member(pc_);
  if (entry == nullptr || SuperblockClass(entry->instr.op) == SbClass::kBarrier) {
    return false;
  }
  // Lower into the build buffers; the finished block then moves into its slot's
  // pool storage.
  ThreadedOp* storage_ops = sb->ops;
  MemInstr* storage_mem = sb->mem_instrs;
  sb->code_gen = entry->code_gen;
  sb->code_gen_at_fill = entry->code_gen_at_fill;
  sb->ops = build_ops_;
  sb->mem_instrs = build_mem_;
  sb->op_count = 0;
  sb->mem_count = 0;
  sb->has_mem = false;
  uint64_t pc = pc_;
  unsigned count = 0;
  bool open_end = false;
  bool ends_with_branch = false;
  while (true) {
    const SbClass cls = SuperblockClass(entry->instr.op);
    if (cls == SbClass::kBarrier) {
      break;  // privileged/CSR/fence/AMO ops always run through the Tick path
    }
    LowerInstr(*entry, cls, pc, sb);
    ++count;
    if (cls == SbClass::kBranch) {
      ends_with_branch = true;  // a branch is the block's terminal op
      break;
    }
    pc += 4;
    if ((pc & MaskLow(12)) == 0 || count == kMaxSuperblockLen) {
      break;  // a new page may translate differently; or the length cap
    }
    entry = member(pc);
    if (entry == nullptr) {
      open_end = true;  // cold/stale continuation: retry extension once it warms up
      break;
    }
  }
  if (!ends_with_branch) {
    // Blocks cut by a barrier, a page boundary, or the length cap end without a
    // branch: a zero-cost sentinel spills and returns after the last real op.
    ThreadedOp end;
    end.kind = static_cast<uint8_t>(LoweredOp::kEnd);
    end.count = 0;
    end.next_pc = pc;
    end.Bind(handlers_);
    sb->ops[sb->op_count++] = end;
  }
  if (sb->op_count > sb->op_capacity || sb->mem_count > sb->mem_capacity) {
    // A first build, or the slot outgrew its storage: take exactly this much more.
    if (op_top_ + sb->op_count > op_pool_size_ || mem_top_ + sb->mem_count > mem_pool_size_) {
      FlushSuperblocks();
    }
    storage_ops = op_pool_ + op_top_;
    storage_mem = mem_pool_ + mem_top_;
    op_top_ += sb->op_count;
    mem_top_ += sb->mem_count;
    sb->op_capacity = sb->op_count;
    sb->mem_capacity = sb->mem_count;
  }
  std::copy_n(build_ops_, sb->op_count, storage_ops);
  std::copy_n(build_mem_, sb->mem_count, storage_mem);
  sb->ops = storage_ops;
  sb->mem_instrs = storage_mem;
  sb->tag = pc_;
  sb->stamp = stamp;
  sb->satp = effective_satp;
  sb->count = static_cast<uint16_t>(count);
  sb->open_end = open_end;
  sb->priv = priv;
  sb->virt = virt_;
  sb->total_count = count;
  sb->total_cycles = 0;
  for (unsigned i = 0; i < sb->op_count; ++i) {
    sb->total_cycles += sb->ops[i].cycles;
  }
  ++threaded_promotions_;
  return true;
}

void Hart::FlushSuperblocks() {
  for (uint64_t i = 0; i <= sb_mask_; ++i) {
    SuperblockEntry& sb = sblocks_[i];
    if (sb.op_capacity != 0) {  // every built slot holds storage
      sb.stamp = 0;
      sb.op_capacity = 0;
      sb.mem_capacity = 0;
    }
  }
  op_top_ = 0;
  mem_top_ = 0;
}

void Hart::LowerInstr(const FetchEntry& entry, SbClass cls, uint64_t pc,
                      SuperblockEntry* sb) const {
  const DecodedInstr& d = entry.instr;
  ThreadedOp op;
  op.next_pc = pc + 4;
  op.imm = d.imm;
  op.cycles = static_cast<uint32_t>(AluCycles(OpCostClass(d.op)) + entry.extra_cycles);
  op.a = d.rd;
  op.b = d.rs1;
  op.c = d.rs2;
  LoweredOp kind = LoweredOpFor(d.op);

  if (cls == SbClass::kSimple) {
    if (d.op == Op::kAuipc) {
      // The block's virtual pc is static, so auipc is a constant at lowering time.
      op.imm = static_cast<int64_t>(pc + static_cast<uint64_t>(d.imm));
    }
    if (d.rd == 0) {
      kind = LoweredOp::kNop;  // x0-targeted ALU ops only charge cycles
    } else if (sb->op_count != 0) {
      // Constant folding: a li/auipc (kConst) followed by ALU-immediate ops that
      // read and write the same register collapses into one kConstChain carrying
      // the final value. Intermediate values are unobservable inside the chain
      // (members are consecutive and each reads only the chain register), and a
      // batch boundary inside a chain deopts to per-member execution, so folding
      // is architecturally invisible.
      ThreadedOp& prev = sb->ops[sb->op_count - 1];
      const LoweredOp pk = static_cast<LoweredOp>(prev.kind);
      if ((pk == LoweredOp::kConst || pk == LoweredOp::kConstChain) && prev.a == d.rd &&
          d.rs1 == d.rd) {
        uint64_t v = static_cast<uint64_t>(prev.imm);
        const uint64_t imm = static_cast<uint64_t>(d.imm);
        bool folded = true;
        switch (d.op) {
#define VFM_FOLD_Reg(name)
#define VFM_FOLD_Imm(name) \
  case Op::k##name:        \
    v = sem::name(v, imm); \
    break;
#define VFM_X(name, form, cost, result) VFM_FOLD_##form(name)
          VFM_ALU_OPS(VFM_X)
#undef VFM_X
#undef VFM_FOLD_Imm
#undef VFM_FOLD_Reg
          default:
            folded = false;
            break;
        }
        if (folded) {
          prev.imm = static_cast<int64_t>(v);
          prev.next_pc = op.next_pc;
          prev.cycles += op.cycles;
          prev.count = static_cast<uint8_t>(prev.count + 1);
          prev.kind = static_cast<uint8_t>(LoweredOp::kConstChain);
          prev.Bind(handlers_);
          return;
        }
      }
    }
  } else if (cls == SbClass::kBranch) {
    switch (d.op) {
      case Op::kJal:
        op.imm = static_cast<int64_t>(pc + static_cast<uint64_t>(d.imm));
        kind = d.rd == 0 ? LoweredOp::kJ : LoweredOp::kJal;
        break;
      case Op::kJalr:
        kind = d.rd == 0 ? LoweredOp::kJr : LoweredOp::kJalr;
        break;
      default: {
        op.imm = static_cast<int64_t>(pc + static_cast<uint64_t>(d.imm));  // taken pc
        // Compare+branch fusion: slt/sltu/slti/sltiu whose result feeds an
        // immediately following beqz/bnez fuses into one op (the compare rd is
        // still written — it stays architecturally visible).
        if (d.rs2 == 0 && sb->op_count != 0) {
          ThreadedOp& prev = sb->ops[sb->op_count - 1];
          const LoweredOp pk = static_cast<LoweredOp>(prev.kind);
          LoweredOp fused = LoweredOp::kEnd;
          if (prev.count == 1 && prev.a == d.rs1 && prev.a != 0) {
#define VFM_X(name, cmp, form, branch)                    \
  if (pk == LoweredOp::k##cmp && d.op == Op::k##branch) { \
    fused = LoweredOp::k##name;                           \
  }
            VFM_FUSED_OPS(VFM_X)
#undef VFM_X
          }
          if (fused != LoweredOp::kEnd) {
            prev.imm2 = static_cast<int32_t>(prev.imm);  // compare immediate
            prev.imm = op.imm;                           // absolute taken target
            prev.next_pc = op.next_pc;                   // fall-through pc
            prev.cycles += op.cycles;
            prev.count = 2;
            prev.kind = static_cast<uint8_t>(fused);
            prev.Bind(handlers_);
            return;
          }
        }
        break;
      }
    }
  } else {  // SbClass::kMem
    op.cycles += static_cast<uint32_t>(cost_->instr_mem);
    op.mem = sb->mem_count;
    sb->mem_instrs[sb->mem_count++] = {d, entry.extra_cycles};
    sb->has_mem = true;
  }
  op.kind = static_cast<uint8_t>(kind);
  op.Bind(handlers_);
  sb->ops[sb->op_count++] = op;
}

void Hart::BuildFastMemCtx(FastMemCtx* ctx) const {
  // Mirrors Translate(): effective privilege/address space (honoring MPRV), the satp
  // the walk would use, and the SUM/MXR context bytes. All of these are fixed for the
  // life of one block dispatch: they only change via CSR ops, traps, or xRETs, which
  // are barriers (or end the block).
  ctx->built = true;
  const PrivMode priv = DataPriv();
  const bool use_vsatp = DataVirt();
  const uint64_t satp = use_vsatp ? csrs_.vsatp() : csrs_.satp();
  ctx->engaged =
      tlb_mask_ != 0 && priv != PrivMode::kMachine &&
      ExtractBits(satp, SatpBits::kModeHi, SatpBits::kModeLo) == SatpBits::kModeSv39;
  if (!ctx->engaged) {
    return;
  }
  ctx->satp = satp;
  const uint64_t status = use_vsatp ? csrs_.Get(kCsrVsstatus) : csrs_.mstatus();
  const bool sum = Bit(status, MstatusBits::kSum) != 0;
  const bool mxr = Bit(status, MstatusBits::kMxr) != 0;
  ctx->load_ctx = TlbCtx(priv, sum, mxr, AccessType::kLoad);
  ctx->store_ctx = TlbCtx(priv, sum, mxr, AccessType::kStore);
}

// The block executor (DESIGN.md §2f). Dispatch is a computed goto on GCC and Clang —
// each lowered op carries its handler's label address — with a switch on
// LoweredOp::kind as the portable fallback. The budget discipline is Tick()'s:
// per-instruction post-checks against steps_left and the cycle limit, so batch
// boundaries land on the same instruction as per-instruction stepping; fused ops
// (which retire several instructions atomically) pre-check that they fit entirely
// and otherwise deopt, spilling at their first member for RunBatch to Tick().
#if defined(__GNUC__) || defined(__clang__)
#define VFM_THREADED_GOTO 1
#else
#define VFM_THREADED_GOTO 0
#endif

Hart::SbRun Hart::ExecuteThreaded(const SuperblockEntry* sb, uint64_t steps_left,
                                  uint64_t stop_cycles, const void* const** table_out) {
#if VFM_THREADED_GOTO
  if (table_out != nullptr) {
    // Checked handlers first, then the unchecked set (same X-macro order), so
    // ThreadedOp::Bind indexes checked at [kind] and unchecked at [count + kind].
    static const void* const kTable[] = {
#define VFM_X(name, ...) &&t_##name,
        VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name, ...) &&u_##name,
        VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
    };
    *table_out = kTable;
    return {};
  }
#else
  if (table_out != nullptr) {
    *table_out = nullptr;  // the switch fallback dispatches on ThreadedOp::kind
    return {};
  }
#endif

  SbRun run;
  ++sb_blocks_;
  const uint64_t mmio_start = bus_->mmio_ops();
  FastMemCtx fm;
  TlbEntry* const tlb_ld = tlb_[static_cast<unsigned>(AccessType::kLoad)];
  TlbEntry* const tlb_st = tlb_[static_cast<unsigned>(AccessType::kStore)];
  uint64_t* const g = gpr_;
  const ThreadedOp* op = sb->ops;
  // Architectural counters and the pc live in locals while inside the block; they
  // are spilled to csrs_/pc_ only at exits and around slow-path memory ops, and
  // `climit` folds the stop_cycles compare into the local cycle delta, so batch
  // boundaries land where mcycle() would put them.
  uint64_t pc = pc_;        // written only by branch handlers; fall-through exits
                            // recover it from the last op's next_pc
  uint64_t cycles = 0;      // charged since the last spill
  uint64_t dispatched = 0;  // total this dispatch (incl. slow-path mem ops)
  uint64_t spill_base = 0;  // dispatched at the last spill: instret delta at exits
  uint64_t cycles_base = csrs_.mcycle();
  // The dispatch loop makes a single budget compare per op: cycles >= climit, with
  // climit clamped by the remaining step budget. This is exact for the cycle bound
  // and conservative for the step bound — every retired instruction charges at
  // least instr_base >= 1 cycle (constructor gate), so the cycle compare fires
  // at-or-before the step compare would, and an early block exit is invisible:
  // RunBatch re-checks its own bounds and simply re-dispatches. Fused ops
  // pre-check the step budget exactly (VFM_TFIT), so `dispatched` never
  // overshoots steps_left.
  uint64_t climit = stop_cycles > cycles_base ? stop_cycles - cycles_base : 0;
  climit = climit < steps_left ? climit : steps_left;
  // tlb_stamp() is stable across fast-path ops (fast stores never touch tracked
  // bytes, so no generation it folds can bump); resampled after every slow-path op.
  uint64_t tstamp = sb->has_mem ? tlb_stamp() : 0;

#if VFM_THREADED_GOTO
#define VFM_TGO() goto* op->handler
#else
#define VFM_TGO() goto dispatch
#endif
// Post-execution bookkeeping + budget post-check of a non-terminal op, then dispatch
// of the next op. The post-check matches RunBatch's per-Tick bound checks, so batch
// boundaries land on the same instruction.
#define VFM_TNEXT()          \
  do {                       \
    cycles += op->cycles;    \
    dispatched += op->count; \
    ++op;                    \
    if (cycles >= climit) {  \
      goto exit_fall;        \
    }                        \
    VFM_TGO();               \
  } while (0)
// Terminal ops (branches, fused compare+branches): pc is already redirected. A taken
// branch back to the block's own head chains — keeps executing here — when budget
// remains: fast-path ops cannot invalidate the block or change the interrupt picture
// (the RunBatch gate's argument applies across iterations unchanged), and slow-path
// ops re-validate before resuming.
#define VFM_TFIN()           \
  do {                       \
    cycles += op->cycles;    \
    dispatched += op->count; \
    if (cycles >= climit) {  \
      goto exit_spill;       \
    }                        \
    if (pc == sb->tag) {     \
      op = sb->ops;          \
      VFM_TGO();             \
    }                        \
    goto exit_spill;         \
  } while (0)
// Fused ops retire `n` instructions atomically: they must fit the remaining budget
// entirely, else deopt to per-instruction Tick()s up to the exact boundary.
#define VFM_TFIT(n)                                                       \
  do {                                                                    \
    if (dispatched + (n) > steps_left || cycles + op->cycles >= climit) { \
      goto deopt_misfit;                                                  \
    }                                                                     \
  } while (0)
// Load/store with host-pointer fast path baked in: one handler does the address
// add, the TLB probe, and the host memcpy. The probe is the full TLB hit condition,
// re-checked per access against a stamp resampled after every slow-path op.
// host_page != nullptr implies pmp_whole_page, and an aligned power-of-two access
// never leaves the frame, so no per-access PMP scan is needed. A store into a
// marked page goes through Bus::Write when the page is PT-marked or the store's
// granule holds cached code (an aligned store never spans granules), so
// invalidations happen exactly as per-instruction execution would cause them, and
// segment mode sends every store there too, to be buffered (DESIGN.md §2i). Any
// miss — unaligned, not engaged, cold/foreign/stale slot, non-RAM frame, store
// into tracked bytes — takes the shared interpreter slow path below.
#define VFM_TLOAD(size_, extract_)                                            \
  do {                                                                        \
    if (!fm.built) {                                                          \
      BuildFastMemCtx(&fm);                                                   \
    }                                                                         \
    const uint64_t va = g[op->b] + static_cast<uint64_t>(op->imm);            \
    if (!fm.engaged || !IsAligned(va, size_)) {                               \
      goto slow_mem;                                                          \
    }                                                                         \
    TlbEntry& slot = tlb_ld[(va >> 12) & tlb_mask_];                          \
    if (slot.vpage != va >> 12 || slot.satp != fm.satp ||                     \
        slot.ctx != fm.load_ctx || slot.stamp != tstamp ||                    \
        slot.host_page == nullptr) {                                          \
      goto slow_mem;                                                          \
    }                                                                         \
    ++tlb_hits_;                                                              \
    ++fastmem_hits_;                                                          \
    uint64_t value = 0;                                                       \
    std::memcpy(&value, slot.host_page + (va & MaskLow(12)), size_);          \
    if (segment_active_ && !sbuf_.empty()) {                                  \
      OverlayLoad(slot.paddr_page | (va & MaskLow(12)), size_, &value);       \
    }                                                                         \
    if (op->a != 0) {                                                         \
      g[op->a] = extract_;                                                    \
    }                                                                         \
    cycles += slot.extra_cycles;                                              \
    VFM_TNEXT();                                                              \
  } while (0)
#define VFM_TSTORE(size_)                                                     \
  do {                                                                        \
    if (!fm.built) {                                                          \
      BuildFastMemCtx(&fm);                                                   \
    }                                                                         \
    const uint64_t va = g[op->b] + static_cast<uint64_t>(op->imm);            \
    if (!fm.engaged || !IsAligned(va, size_)) {                               \
      goto slow_mem;                                                          \
    }                                                                         \
    TlbEntry& slot = tlb_st[(va >> 12) & tlb_mask_];                          \
    const uint64_t offset = va & MaskLow(12);                                 \
    if (segment_active_ || slot.vpage != va >> 12 || slot.satp != fm.satp ||  \
        slot.ctx != fm.store_ctx || slot.stamp != tstamp ||                   \
        slot.host_page == nullptr ||                                          \
        (*slot.page_mark != 0 && StoreNeedsBus(slot, offset))) {              \
      goto slow_mem;                                                          \
    }                                                                         \
    ++tlb_hits_;                                                              \
    ++fastmem_hits_;                                                          \
    std::memcpy(slot.host_page + offset, &g[op->c], size_);                   \
    if (reservation_) {                                                       \
      const uint64_t paddr = slot.paddr_page | offset;                        \
      if (AlignDown(*reservation_, 8) == AlignDown(paddr, 8)) {               \
        reservation_.reset();                                                 \
      }                                                                       \
    }                                                                         \
    cycles += slot.extra_cycles;                                              \
    VFM_TNEXT();                                                              \
  } while (0)

#if VFM_THREADED_GOTO
  // Unchecked fast iteration (computed-goto builds only): when a pure-ALU block's
  // whole run fits the remaining budget, dispatch through handlers that skip the
  // per-op accounting entirely — the terminal op adds the block totals and
  // re-checks before chaining. Blocks with memory ops always run checked: their
  // TLB-replayed walk cycles vary per dispatch, so the run total is not static.
  if (!sb->has_mem && sb->total_cycles <= climit) {
    goto* op->uhandler;
  }
#endif
  VFM_TGO();

#if !VFM_THREADED_GOTO
dispatch:
  switch (static_cast<LoweredOp>(op->kind)) {
#define VFM_X(name, ...)   \
  case LoweredOp::k##name: \
    goto t_##name;
    VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
  }
#endif

// Checked-mode handlers: per-op accounting and budget post-checks.
#define VFM_TCHECKED 1
#define VFM_TH(name) t_##name
#define VFM_TEND() goto exit_fall
#include "src/sim/hart_threaded.inc"
#undef VFM_TEND
#undef VFM_TH
#undef VFM_TCHECKED

#if VFM_THREADED_GOTO
// Unchecked-mode handlers: no per-op accounting — the whole iteration was
// pre-checked to fit, so only the terminal op touches the counters, adding the
// block totals and deciding whether the next iteration can stay unchecked,
// must run checked (final partial pass to the exact boundary), or exits.
#undef VFM_TNEXT
#undef VFM_TFIN
#undef VFM_TFIT
#define VFM_TCHECKED 0
#define VFM_TH(name) u_##name
#define VFM_TNEXT()       \
  do {                    \
    ++op;                 \
    goto* op->uhandler;   \
  } while (0)
#define VFM_TFIT(n) \
  do {              \
  } while (0)
#define VFM_TFIN()                               \
  do {                                           \
    cycles += sb->total_cycles;                  \
    dispatched += sb->total_count;               \
    if (cycles >= climit) {                      \
      goto exit_spill;                           \
    }                                            \
    if (pc == sb->tag) {                         \
      op = sb->ops;                              \
      if (cycles + sb->total_cycles <= climit) { \
        goto* op->uhandler;                      \
      }                                          \
      goto* op->handler;                         \
    }                                            \
    goto exit_spill;                             \
  } while (0)
#define VFM_TEND()                 \
  do {                             \
    cycles += sb->total_cycles;    \
    dispatched += sb->total_count; \
    goto exit_fall;                \
  } while (0)
#include "src/sim/hart_threaded.inc"
#undef VFM_TEND
#undef VFM_TH
#undef VFM_TCHECKED
#endif  // VFM_THREADED_GOTO

slow_mem: {
  // The interpreter slow path: spill the architectural state, run the op through
  // the ordinary interpreter helper, re-base the locals, and re-validate the block
  // before resuming threaded dispatch.
  ++fastmem_misses_;
  const MemInstr& mi = sb->mem_instrs[op->mem];
  pc_ = op->next_pc - 4;  // the member's pc, for trap reporting
  csrs_.AddInstret(dispatched - spill_base);
  csrs_.AddCycles(cycles);
  cycles = 0;
  StepResult r = ExecuteLoadStore(mi.instr);
  if (r.aborted) {
    // Segment sync event: the op had no effect and is not counted; pc_ and the
    // counters were spilled exactly above, so the barrier re-runs it via Tick.
    run.end_batch = true;
    run.last = r;
    goto exit_counted;
  }
  r.cycles += mi.extra_cycles;  // the member's replayed fetch-walk cost
  if (!r.trapped) {
    csrs_.AddInstret(1);
  }
  csrs_.AddCycles(r.cycles);
  ++dispatched;
  run.last = r;
  if (r.trapped) {
    run.end_batch = true;
    goto exit_counted;
  }
  spill_base = dispatched;  // the slow op's instret was added above
  cycles_base = csrs_.mcycle();
  tstamp = tlb_stamp();  // a slow-path store may have bumped a folded generation
  const bool mmio = bus_->mmio_ops() != mmio_start;
  const bool stale = cache_stamp() != sb->stamp || *sb->code_gen != sb->code_gen_at_fill;
  if (mmio || stale || dispatched >= steps_left || cycles_base >= stop_cycles) {
    if (stale) {
      ++threaded_deopts_;  // the store invalidated code this block may contain
    }
    run.end_batch = mmio;
    goto exit_counted;
  }
  climit = stop_cycles - cycles_base;  // > 0: checked just above
  const uint64_t steps_rem = steps_left - dispatched;
  climit = climit < steps_rem ? climit : steps_rem;
  ++op;
  VFM_TGO();
}

deopt_misfit:
  // A fused op would overshoot the batch budget: spill at its first member and hand
  // back to RunBatch, which Tick()s the members one at a time to the exact boundary.
  ++threaded_deopts_;
  run.misfit = true;
  pc = op->next_pc - uint64_t{4} * op->count;
  goto exit_spill;

exit_fall:
  pc = op[-1].next_pc;  // non-branch exit: resume after the last executed op
exit_spill:
  pc_ = pc;
  csrs_.AddInstret(dispatched - spill_base);
  csrs_.AddCycles(cycles);
  run.last.executed = true;
exit_counted:
  run.dispatched = dispatched;
  icache_hits_ += dispatched;
  sb_instrs_ += dispatched;
  return run;

#undef VFM_TSTORE
#undef VFM_TLOAD
#undef VFM_TFIT
#undef VFM_TFIN
#undef VFM_TNEXT
#undef VFM_TGO
}

StepResult Hart::Execute(const DecodedInstr& d) {
  const uint64_t rs1 = gpr_[d.rs1];
  const uint64_t rs2 = gpr_[d.rs2];
  const uint64_t next = pc_ + 4;
  const uint64_t base_cost = cost_->instr_base;

  switch (d.op) {
    case Op::kInvalid:
      return IllegalInstr(d);
    case Op::kLui:
      set_gpr(d.rd, static_cast<uint64_t>(d.imm));
      return Retire(next, base_cost);
    case Op::kAuipc:
      set_gpr(d.rd, pc_ + static_cast<uint64_t>(d.imm));
      return Retire(next, base_cost);
    case Op::kJal:
      set_gpr(d.rd, next);
      return Retire(pc_ + static_cast<uint64_t>(d.imm), base_cost);
    case Op::kJalr: {
      const uint64_t target = (rs1 + static_cast<uint64_t>(d.imm)) & ~uint64_t{1};
      set_gpr(d.rd, next);
      return Retire(target, base_cost);
    }
#define VFM_OPERAND_Reg rs2
#define VFM_OPERAND_Imm static_cast<uint64_t>(d.imm)
#define VFM_X(name, form, cost, result)                \
  case Op::k##name:                                    \
    set_gpr(d.rd, sem::name(rs1, VFM_OPERAND_##form)); \
    return Retire(next, AluCycles(CostClass::k##cost));
    VFM_ALU_OPS(VFM_X)
#undef VFM_X
#undef VFM_OPERAND_Imm
#undef VFM_OPERAND_Reg
#define VFM_X(name, taken) \
  case Op::k##name:        \
    return Retire(sem::name(rs1, rs2) ? pc_ + static_cast<uint64_t>(d.imm) : next, base_cost);
    VFM_BRANCH_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name, ...) case Op::k##name:
    VFM_LOAD_OPS(VFM_X)
    VFM_STORE_OPS(VFM_X)
#undef VFM_X
      return ExecuteLoadStore(d);

    case Op::kFence:
      return Retire(next, base_cost);
    case Op::kFenceI:
      if (segment_active_) {
        // Sync event: fence.i must observe this segment's buffered stores as code,
        // so it re-runs at the barrier after the buffer has been applied to RAM.
        return AbortSegment();
      }
      ++fence_gen_;  // invalidates this hart's decoded-instruction cache
      return Retire(next, base_cost + cost_->tlb_flush / 4);

    case Op::kEcall: {
      ExceptionCause cause = ExceptionCause::kEcallFromU;
      if (priv_ == PrivMode::kMachine) {
        cause = ExceptionCause::kEcallFromM;
      } else if (priv_ == PrivMode::kSupervisor) {
        cause = virt_ ? ExceptionCause::kEcallFromVs : ExceptionCause::kEcallFromS;
      }
      return TakeTrap(CauseValue(cause), 0);
    }
    case Op::kEbreak:
      return TakeTrap(CauseValue(ExceptionCause::kBreakpoint), pc_);

    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      return ExecuteCsrOp(d);

    case Op::kSret:
      return ExecuteSret(d);
    case Op::kMret:
      return ExecuteMret(d);
    case Op::kWfi:
      return ExecuteWfi(d);
    case Op::kSfenceVma: {
      if (priv_ == PrivMode::kUser) {
        return IllegalInstr(d);
      }
      if (priv_ == PrivMode::kSupervisor && !virt_ &&
          Bit(csrs_.mstatus(), MstatusBits::kTvm) != 0) {
        return IllegalInstr(d);
      }
      // rs1 selects the per-address form: only the named page is dropped, everything
      // else stays cached. (rs2/ASID is ignored — satp's ASID field is hardwired 0.)
      if (d.rs1 == 0) {
        FlushTlb();
      } else {
        FlushTlbPage(rs1);
      }
      return Retire(next, base_cost + cost_->tlb_flush);
    }
    case Op::kHfenceVvma:
    case Op::kHfenceGvma: {
      if (!csrs_.config().has_h_ext || priv_ == PrivMode::kUser || virt_) {
        return IllegalInstr(d);
      }
      FlushTlb();
      return Retire(next, base_cost + cost_->tlb_flush);
    }

    default:
      return ExecuteAmo(d);
  }
}

StepResult Hart::ExecuteLoadStore(const DecodedInstr& d) {
  const uint64_t vaddr = gpr_[d.rs1] + static_cast<uint64_t>(d.imm);
  const MemAccess access = MemAccessOf(d.op);
  const unsigned size = access.size;
  const uint64_t cost = cost_->instr_base + cost_->instr_mem;

  if (access.store) {
    if (!csrs_.config().hw_misaligned && !IsAligned(vaddr, size)) {
      return TakeTrap(CauseValue(ExceptionCause::kStoreAddrMisaligned), vaddr);
    }
    const AccessOutcome out = Translate(vaddr, size, AccessType::kStore, DataPriv(), DataVirt());
    if (out.segment_abort) {
      return AbortSegment();
    }
    if (!out.ok) {
      return TakeTrap(CauseValue(out.cause), vaddr);
    }
    if (segment_active_) {
      if (!bus_->IsRam(out.paddr, size)) {
        return AbortSegment();  // MMIO store: dispatch to the device at the barrier
      }
      SegmentBufferStore(out.paddr, size, gpr_[d.rs2]);
    } else if (!bus_->Write(out.paddr, size, gpr_[d.rs2])) {
      return TakeTrap(CauseValue(ExceptionCause::kStoreAccessFault), vaddr);
    }
    // A store to the reserved address clears the reservation.
    if (reservation_ && AlignDown(*reservation_, 8) == AlignDown(out.paddr, 8)) {
      reservation_.reset();
    }
    return Retire(pc_ + 4, cost + out.extra_cycles);
  }

  if (!csrs_.config().hw_misaligned && !IsAligned(vaddr, size)) {
    return TakeTrap(CauseValue(ExceptionCause::kLoadAddrMisaligned), vaddr);
  }
  const AccessOutcome out = Translate(vaddr, size, AccessType::kLoad, DataPriv(), DataVirt());
  if (out.segment_abort) {
    return AbortSegment();
  }
  if (!out.ok) {
    return TakeTrap(CauseValue(out.cause), vaddr);
  }
  if (segment_active_ && !bus_->IsRam(out.paddr, size)) {
    return AbortSegment();  // MMIO load: read the device at the barrier
  }
  uint64_t value = 0;
  if (!bus_->Read(out.paddr, size, &value)) {
    return TakeTrap(CauseValue(ExceptionCause::kLoadAccessFault), vaddr);
  }
  if (segment_active_ && !sbuf_.empty()) {
    OverlayLoad(out.paddr, size, &value);
  }
  set_gpr(d.rd, access.Extend(value));
  return Retire(pc_ + 4, cost + out.extra_cycles);
}

StepResult Hart::ExecuteAmo(const DecodedInstr& d) {
  if (segment_active_) {
    // All of LR/SC/AMO are segment sync events: an atomic against privately
    // buffered memory could not be observed by the other harts' spinning loads
    // until the barrier, deadlocking guest spinlocks. The barrier re-runs the
    // instruction with full bus access (DESIGN.md §2i).
    return AbortSegment();
  }
  const bool is64 = d.op >= Op::kLrD;
  const unsigned size = is64 ? 8 : 4;
  const uint64_t vaddr = gpr_[d.rs1];
  const uint64_t cost = cost_->instr_base + 2 * cost_->instr_mem;

  if (!IsAligned(vaddr, size)) {
    // AMOs never get misaligned emulation; they fault regardless of hw_misaligned.
    return TakeTrap(CauseValue(d.op == Op::kLrW || d.op == Op::kLrD
                                   ? ExceptionCause::kLoadAddrMisaligned
                                   : ExceptionCause::kStoreAddrMisaligned),
                    vaddr);
  }

  if (d.op == Op::kLrW || d.op == Op::kLrD) {
    const AccessOutcome out = Translate(vaddr, size, AccessType::kLoad, DataPriv(), DataVirt());
    if (!out.ok) {
      return TakeTrap(CauseValue(out.cause), vaddr);
    }
    uint64_t value = 0;
    if (!bus_->Read(out.paddr, size, &value)) {
      return TakeTrap(CauseValue(ExceptionCause::kLoadAccessFault), vaddr);
    }
    set_gpr(d.rd, is64 ? value : SignExtend(value, 32));
    reservation_ = out.paddr;
    return Retire(pc_ + 4, cost + out.extra_cycles);
  }

  const AccessOutcome out = Translate(vaddr, size, AccessType::kStore, DataPriv(), DataVirt());
  if (!out.ok) {
    return TakeTrap(CauseValue(out.cause), vaddr);
  }

  if (d.op == Op::kScW || d.op == Op::kScD) {
    if (reservation_ && *reservation_ == out.paddr) {
      if (!bus_->Write(out.paddr, size, gpr_[d.rs2])) {
        return TakeTrap(CauseValue(ExceptionCause::kStoreAccessFault), vaddr);
      }
      set_gpr(d.rd, 0);
    } else {
      set_gpr(d.rd, 1);
    }
    reservation_.reset();
    return Retire(pc_ + 4, cost + out.extra_cycles);
  }

  uint64_t old = 0;
  if (!bus_->Read(out.paddr, size, &old)) {
    return TakeTrap(CauseValue(ExceptionCause::kLoadAccessFault), vaddr);
  }
  const uint64_t old_val = is64 ? old : SignExtend(old, 32);
  const uint64_t rhs = is64 ? gpr_[d.rs2] : SignExtend(gpr_[d.rs2] & 0xFFFFFFFF, 32);
  uint64_t result = 0;
  switch (d.op) {
    case Op::kAmoswapW:
    case Op::kAmoswapD:
      result = rhs;
      break;
    case Op::kAmoaddW:
    case Op::kAmoaddD:
      result = old_val + rhs;
      break;
    case Op::kAmoxorW:
    case Op::kAmoxorD:
      result = old_val ^ rhs;
      break;
    case Op::kAmoandW:
    case Op::kAmoandD:
      result = old_val & rhs;
      break;
    case Op::kAmoorW:
    case Op::kAmoorD:
      result = old_val | rhs;
      break;
    case Op::kAmominW:
    case Op::kAmominD:
      result = static_cast<int64_t>(old_val) < static_cast<int64_t>(rhs) ? old_val : rhs;
      break;
    case Op::kAmomaxW:
    case Op::kAmomaxD:
      result = static_cast<int64_t>(old_val) > static_cast<int64_t>(rhs) ? old_val : rhs;
      break;
    case Op::kAmominuW:
    case Op::kAmominuD: {
      const uint64_t a = is64 ? old_val : old_val & 0xFFFFFFFF;
      const uint64_t b = is64 ? rhs : rhs & 0xFFFFFFFF;
      result = a < b ? old_val : rhs;
      break;
    }
    case Op::kAmomaxuW:
    case Op::kAmomaxuD: {
      const uint64_t a = is64 ? old_val : old_val & 0xFFFFFFFF;
      const uint64_t b = is64 ? rhs : rhs & 0xFFFFFFFF;
      result = a > b ? old_val : rhs;
      break;
    }
    default:
      return IllegalInstr(d);
  }
  if (!bus_->Write(out.paddr, size, result)) {
    return TakeTrap(CauseValue(ExceptionCause::kStoreAccessFault), vaddr);
  }
  set_gpr(d.rd, old_val);
  return Retire(pc_ + 4, cost + out.extra_cycles);
}

StepResult Hart::ExecuteCsrOp(const DecodedInstr& d) {
  const bool is_imm = d.op == Op::kCsrrwi || d.op == Op::kCsrrsi || d.op == Op::kCsrrci;
  const uint64_t operand = is_imm ? d.zimm : gpr_[d.rs1];
  const bool is_write_op = d.op == Op::kCsrrw || d.op == Op::kCsrrwi;
  const bool write_needed = is_write_op || d.rs1 != 0 || (is_imm && d.zimm != 0);
  const bool read_needed = !is_write_op || d.rd != 0;

  // The `time` CSR (and cycle/instret in some configs) requires the time source; reads
  // of an absent time CSR raise illegal instruction so firmware can emulate them —
  // this is one of the paper's five dominant trap causes (§3.4).
  uint64_t old_value = 0;
  if (read_needed || !is_write_op) {
    if (!csrs_.ReadCsr(d.csr, priv_, virt_, &old_value)) {
      return IllegalInstr(d);
    }
  }
  if (write_needed) {
    uint64_t new_value = operand;
    if (d.op == Op::kCsrrs || d.op == Op::kCsrrsi) {
      new_value = old_value | operand;
    } else if (d.op == Op::kCsrrc || d.op == Op::kCsrrci) {
      new_value = old_value & ~operand;
    }
    if (!csrs_.WriteCsr(d.csr, priv_, virt_, new_value)) {
      return IllegalInstr(d);
    }
  } else {
    // Read-only access still requires the CSR to be readable (checked above).
  }
  set_gpr(d.rd, old_value);
  return Retire(pc_ + 4, cost_->instr_base + cost_->hal_csr_access);
}

StepResult Hart::ExecuteMret(const DecodedInstr& d) {
  if (priv_ != PrivMode::kMachine) {
    return IllegalInstr(d);
  }
  uint64_t mstatus = csrs_.mstatus();
  const uint64_t mpp = ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo);
  const PrivMode target = static_cast<PrivMode>(mpp);
  mstatus = SetBit(mstatus, MstatusBits::kMie, Bit(mstatus, MstatusBits::kMpie));
  mstatus = SetBit(mstatus, MstatusBits::kMpie, 1);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(PrivMode::kUser));
  bool new_virt = false;
  if (csrs_.config().has_h_ext && target != PrivMode::kMachine) {
    new_virt = Bit(mstatus, MstatusBits::kMpv) != 0;
  }
  mstatus = SetBit(mstatus, MstatusBits::kMpv, 0);
  if (target != PrivMode::kMachine) {
    mstatus = SetBit(mstatus, MstatusBits::kMprv, 0);
  }
  csrs_.set_mstatus(mstatus);
  priv_ = target;
  virt_ = new_virt;
  return Retire(csrs_.mepc(), cost_->trap_entry);
}

StepResult Hart::ExecuteSret(const DecodedInstr& d) {
  if (priv_ == PrivMode::kUser) {
    return IllegalInstr(d);
  }
  if (priv_ == PrivMode::kSupervisor && !virt_ &&
      Bit(csrs_.mstatus(), MstatusBits::kTsr) != 0) {
    return IllegalInstr(d);
  }
  if (virt_) {
    if (Bit(csrs_.hstatus(), HstatusBits::kVtsr) != 0) {
      return IllegalInstr(d);
    }
    // sret inside a virtualized supervisor uses the vs* bank.
    uint64_t vsstatus = csrs_.Get(kCsrVsstatus);
    const bool spp = Bit(vsstatus, MstatusBits::kSpp) != 0;
    vsstatus = SetBit(vsstatus, MstatusBits::kSie, Bit(vsstatus, MstatusBits::kSpie));
    vsstatus = SetBit(vsstatus, MstatusBits::kSpie, 1);
    vsstatus = SetBit(vsstatus, MstatusBits::kSpp, 0);
    csrs_.Set(kCsrVsstatus, vsstatus);
    priv_ = spp ? PrivMode::kSupervisor : PrivMode::kUser;
    return Retire(csrs_.Get(kCsrVsepc), cost_->trap_entry);
  }
  uint64_t mstatus = csrs_.mstatus();
  const bool spp = Bit(mstatus, MstatusBits::kSpp) != 0;
  mstatus = SetBit(mstatus, MstatusBits::kSie, Bit(mstatus, MstatusBits::kSpie));
  mstatus = SetBit(mstatus, MstatusBits::kSpie, 1);
  mstatus = SetBit(mstatus, MstatusBits::kSpp, 0);
  const PrivMode target = spp ? PrivMode::kSupervisor : PrivMode::kUser;
  if (target != PrivMode::kMachine) {
    mstatus = SetBit(mstatus, MstatusBits::kMprv, 0);
  }
  csrs_.set_mstatus(mstatus);
  bool new_virt = false;
  if (csrs_.config().has_h_ext) {
    uint64_t hstatus = csrs_.Get(kCsrHstatus);
    new_virt = Bit(hstatus, HstatusBits::kSpv) != 0;
    hstatus = SetBit(hstatus, HstatusBits::kSpv, 0);
    csrs_.Set(kCsrHstatus, hstatus);
  }
  priv_ = target;
  virt_ = new_virt;
  return Retire(csrs_.sepc(), cost_->trap_entry);
}

StepResult Hart::ExecuteWfi(const DecodedInstr& d) {
  if (priv_ == PrivMode::kUser) {
    return IllegalInstr(d);  // with S-mode implemented, WFI is not available in U-mode
  }
  if (priv_ == PrivMode::kSupervisor && !virt_ &&
      Bit(csrs_.mstatus(), MstatusBits::kTw) != 0) {
    return IllegalInstr(d);
  }
  if (virt_ && Bit(csrs_.hstatus(), HstatusBits::kVtw) != 0) {
    return IllegalInstr(d);
  }
  waiting_ = true;
  return Retire(pc_ + 4, cost_->instr_base);
}

// -- Quantum-mode segment machinery (DESIGN.md §2i). ---------------------------------

StepResult Hart::AbortSegment() {
  sync_pending_ = true;
  StepResult result;
  result.aborted = true;
  return result;
}

void Hart::SegmentBufferStore(uint64_t paddr, unsigned size, uint64_t value) {
  // Split the store over its (at most two) 8-byte granules. A granule lies entirely
  // inside RAM whenever any of its bytes does: RAM regions are page-aligned and
  // page-sized, so an 8-byte-aligned granule never straddles a region edge.
  unsigned done = 0;
  while (done < size) {
    const uint64_t byte_addr = paddr + done;
    const uint64_t gaddr = byte_addr & ~uint64_t{7};
    const auto [it, fresh] = sbuf_index_.try_emplace(gaddr, static_cast<uint32_t>(sbuf_.size()));
    if (fresh) {
      StoreGranule granule;
      granule.addr = gaddr;
      // Initialize from RAM: sound because RAM is frozen for the whole segment
      // (every hart buffers its stores; fast-path stores are disabled).
      bus_->Read(gaddr, 8, &granule.data);
      sbuf_.push_back(granule);
    }
    StoreGranule& granule = sbuf_[it->second];
    const unsigned offset = static_cast<unsigned>(byte_addr - gaddr);
    const unsigned count = std::min(size - done, 8 - offset);
    for (unsigned k = 0; k < count; ++k) {
      const uint64_t byte = (value >> (8 * (done + k))) & 0xFF;
      granule.data =
          (granule.data & ~(uint64_t{0xFF} << (8 * (offset + k)))) | (byte << (8 * (offset + k)));
      granule.dirty |= static_cast<uint8_t>(1u << (offset + k));
    }
    done += count;
  }
}

void Hart::OverlayLoad(uint64_t paddr, unsigned size, uint64_t* value) const {
  unsigned done = 0;
  while (done < size) {
    const uint64_t byte_addr = paddr + done;
    const uint64_t gaddr = byte_addr & ~uint64_t{7};
    const unsigned offset = static_cast<unsigned>(byte_addr - gaddr);
    const unsigned count = std::min(size - done, 8 - offset);
    const auto it = sbuf_index_.find(gaddr);
    if (it != sbuf_index_.end()) {
      const StoreGranule& granule = sbuf_[it->second];
      for (unsigned k = 0; k < count; ++k) {
        if ((granule.dirty & (1u << (offset + k))) != 0) {
          const uint64_t byte = (granule.data >> (8 * (offset + k))) & 0xFF;
          *value =
              (*value & ~(uint64_t{0xFF} << (8 * (done + k)))) | (byte << (8 * (done + k)));
        }
      }
    }
    done += count;
  }
}

void Hart::ApplySegmentStores() {
  for (const StoreGranule& granule : sbuf_) {
    if (granule.dirty == 0xFF) {
      bus_->Write(granule.addr, 8, granule.data);
      continue;
    }
    // Flush each contiguous dirty run as one write (Bus::Write takes any size <= 8
    // on RAM), so mark checks and generation bumps fire exactly as serial stores.
    unsigned i = 0;
    while (i < 8) {
      if ((granule.dirty & (1u << i)) == 0) {
        ++i;
        continue;
      }
      unsigned j = i;
      while (j < 8 && (granule.dirty & (1u << j)) != 0) {
        ++j;
      }
      bus_->Write(granule.addr + i, j - i, granule.data >> (8 * i));
      i = j;
    }
  }
  sbuf_.clear();
  sbuf_index_.clear();
}

bool Hart::SegmentPt::ReadPte(uint64_t pte_addr, uint64_t* pte) {
  if (!hart_->bus_->IsRam(pte_addr, 8)) {
    return false;  // a PTE outside RAM cannot be overlaid: abort to the barrier
  }
  hart_->bus_->Read(pte_addr, 8, pte);
  if (!hart_->sbuf_.empty()) {
    hart_->OverlayLoad(pte_addr, 8, pte);
  }
  return true;
}

bool Hart::SegmentPt::WritePte(uint64_t pte_addr, uint64_t pte) {
  if (!hart_->bus_->IsRam(pte_addr, 8)) {
    return false;
  }
  hart_->SegmentBufferStore(pte_addr, 8, pte);
  return true;
}

void Hart::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("HART"), 1);
  writer.U32(index_);
  for (unsigned i = 0; i < 32; ++i) {
    writer.U64(gpr_[i]);
  }
  writer.U64(pc_);
  writer.U8(static_cast<uint8_t>(priv_));
  writer.Bool(virt_);
  writer.Bool(waiting_);
  writer.Bool(reservation_.has_value());
  writer.U64(reservation_.value_or(0));
  writer.U64(traps_taken_);
  csrs_.SaveState(writer);
  writer.EndSection();
}

bool Hart::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("HART"));
  const uint32_t index = reader.U32();
  if (reader.ok() && index != index_) {
    reader.Fail("hart index mismatch");
  }
  uint64_t gpr[32];
  for (uint64_t& value : gpr) {
    value = reader.U64();
  }
  const uint64_t pc = reader.U64();
  const uint8_t priv = reader.U8();
  if (reader.ok() && gpr[0] != 0) {
    reader.Fail("hart x0 is not zero");  // the block tier relies on x0 == 0
  }
  if (reader.ok() && priv != static_cast<uint8_t>(PrivMode::kUser) &&
      priv != static_cast<uint8_t>(PrivMode::kSupervisor) &&
      priv != static_cast<uint8_t>(PrivMode::kMachine)) {
    reader.Fail("hart privilege mode is not U, S or M");
  }
  if (!reader.ok()) {
    return false;
  }
  std::copy_n(gpr, 32, gpr_);
  pc_ = pc;
  priv_ = static_cast<PrivMode>(priv);
  virt_ = reader.Bool();
  waiting_ = reader.Bool();
  const bool has_reservation = reader.Bool();
  const uint64_t reservation = reader.U64();
  reservation_ = has_reservation ? std::optional<uint64_t>(reservation) : std::nullopt;
  traps_taken_ = reader.U64();
  if (!csrs_.LoadState(reader)) {
    return false;
  }
  reader.EndSection();
  if (!reader.ok()) {
    return false;
  }
  // Translation caches are derived state: rather than serialize them, advance the
  // generation counters so every cached entry's stamp mismatches. All stamp
  // components are monotonic, so a +1 on each local counter strictly exceeds any
  // previously recorded stamp — no stale decode-cache, TLB or block entry can
  // validate again, and they rebuild (and re-mark dependency pages) on demand.
  ++fence_gen_;
  ++tlb_gen_;
  return true;
}

}  // namespace vfm
