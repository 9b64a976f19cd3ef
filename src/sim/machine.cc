#include "src/sim/machine.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/state.h"
#include "src/isa/csr.h"

namespace vfm {

bool Finisher::MmioRead(uint64_t offset, unsigned size, uint64_t* value) {
  (void)offset;
  (void)size;
  *value = 0;
  return true;
}

bool Finisher::MmioWrite(uint64_t offset, unsigned size, uint64_t value) {
  if (offset != 0 || (size != 4 && size != 8)) {
    return false;
  }
  const uint32_t code = static_cast<uint32_t>(value & 0xFFFF);
  if (code == kFinishPass || code == kFinishFail) {
    finished_ = true;
    exit_code_ = static_cast<uint32_t>(value >> 16);
    if (code == kFinishFail) {
      exit_code_ = exit_code_ == 0 ? 1 : exit_code_;
    }
  }
  return true;
}

void Finisher::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("FINI"), 1);
  writer.Bool(finished_);
  writer.U32(exit_code_);
  writer.EndSection();
}

bool Finisher::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("FINI"));
  const bool finished = reader.Bool();
  const uint32_t exit_code = reader.U32();
  reader.EndSection();
  if (!reader.ok()) {
    return false;
  }
  finished_ = finished;
  exit_code_ = exit_code;
  return true;
}

namespace {

// Converts the quantum-boundary cycle delta (measured on hart 0's clock) into an
// absolute stop bound on `hart`'s own clock, saturating on overflow. The delta form
// matters: hart clocks drift apart (traps charge different costs), so an absolute
// hart-0 cycle target could pin a drifted hart to one-instruction segments forever.
uint64_t SegmentStopCycles(const Hart& hart, uint64_t stop_delta) {
  if (stop_delta == ~uint64_t{0}) {
    return ~uint64_t{0};
  }
  const uint64_t now = hart.cycles();
  const uint64_t stop = now + stop_delta;
  return stop >= now ? stop : ~uint64_t{0};
}

// FNV-1a, the rolling hash behind the replay verifier's checkpoints. Not
// cryptographic — it only needs to make two diverged states hash differently with
// overwhelming probability, cheaply.
constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(const void* data, size_t size, uint64_t h) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

uint64_t FnvU64(uint64_t value, uint64_t h) { return FnvBytes(&value, sizeof value, h); }

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string CoordString(uint64_t retired, uint64_t round) {
  return "(retired " + std::to_string(retired) + ", round " + std::to_string(round) + ")";
}

}  // namespace

void WriteConfigFingerprint(StateWriter& writer, const MachineConfig& config) {
  writer.U32(config.hart_count);
  writer.U64(config.map.ram_base);
  writer.U64(config.map.ram_size);
  writer.U64(config.map.clint_base);
  writer.U64(config.map.plic_base);
  writer.U64(config.map.uart_base);
  writer.U64(config.map.blockdev_base);
  writer.U64(config.map.finisher_base);
  writer.Bool(config.blockdev.enabled);
  writer.U64(config.blockdev.sectors);
  writer.U32(config.isa.pmp_entries);
  writer.Bool(config.isa.has_time_csr);
  writer.Bool(config.isa.has_sstc);
  writer.Bool(config.isa.has_h_ext);
  writer.Bool(config.isa.has_custom_csrs);
  writer.Bool(config.isa.hw_misaligned);
}

void CheckConfigFingerprint(StateReader& reader, const MachineConfig& config,
                            const char* what) {
  const uint32_t hart_count = reader.U32();
  const uint64_t ram_base = reader.U64();
  const uint64_t ram_size = reader.U64();
  const uint64_t clint_base = reader.U64();
  const uint64_t plic_base = reader.U64();
  const uint64_t uart_base = reader.U64();
  const uint64_t blockdev_base = reader.U64();
  const uint64_t finisher_base = reader.U64();
  const bool blockdev_enabled = reader.Bool();
  const uint64_t blockdev_sectors = reader.U64();
  const uint32_t pmp_entries = reader.U32();
  const bool has_time_csr = reader.Bool();
  const bool has_sstc = reader.Bool();
  const bool has_h_ext = reader.Bool();
  const bool has_custom_csrs = reader.Bool();
  const bool hw_misaligned = reader.Bool();
  if (reader.ok() &&
      (hart_count != config.hart_count || ram_base != config.map.ram_base ||
       ram_size != config.map.ram_size || clint_base != config.map.clint_base ||
       plic_base != config.map.plic_base || uart_base != config.map.uart_base ||
       blockdev_base != config.map.blockdev_base ||
       finisher_base != config.map.finisher_base ||
       blockdev_enabled != config.blockdev.enabled ||
       blockdev_sectors != config.blockdev.sectors ||
       pmp_entries != config.isa.pmp_entries ||
       has_time_csr != config.isa.has_time_csr || has_sstc != config.isa.has_sstc ||
       has_h_ext != config.isa.has_h_ext ||
       has_custom_csrs != config.isa.has_custom_csrs ||
       hw_misaligned != config.isa.hw_misaligned)) {
    reader.Fail(std::string(what) +
                " fingerprint does not match this machine's configuration");
  }
}

// MCFG section layout version. Version 2 dropped three SimTuning fields: the TLB and
// threaded-tier switches and the promotion threshold.
constexpr uint32_t kMachineConfigVersion = 2;

void WriteMachineConfig(StateWriter& writer, const MachineConfig& config) {
  writer.BeginSection(StateTag("MCFG"), kMachineConfigVersion);
  WriteConfigFingerprint(writer, config);
  writer.U64(config.isa.mvendorid);
  writer.U64(config.isa.marchid);
  writer.U64(config.isa.mimpid);
  writer.U64(config.blockdev.latency_ticks);
  writer.U64(config.blockdev.ticks_per_sector);
  writer.U64(config.cost.instr_base);
  writer.U64(config.cost.instr_muldiv);
  writer.U64(config.cost.instr_mem);
  writer.U64(config.cost.trap_entry);
  writer.U64(config.cost.page_walk_level);
  writer.U64(config.cost.hal_csr_access);
  writer.U64(config.cost.monitor_dispatch);
  writer.U64(config.cost.hal_mem_access);
  writer.U64(config.cost.hal_base_op);
  writer.U64(config.cost.tlb_flush);
  writer.U64(config.cost.mtime_tick_cycles);
  writer.U64(config.cost.freq_mhz);
  writer.U32(config.tuning.decode_cache_entries);
  writer.U32(config.tuning.max_batch_instructions);
  writer.U32(config.tuning.tlb_entries);
  writer.U32(config.tuning.superblock_entries);
  writer.Bool(config.tuning.quantum_harts);
  writer.Bool(config.tuning.parallel_harts);
  writer.EndSection();
}

bool ValidateMachineConfig(const MachineConfig& config, std::string* error) {
  const auto fail = [&](const char* what) {
    *error = what;
    return false;
  };
  if (config.hart_count == 0) {
    return fail("a machine needs at least one hart");
  }
  if (config.cost.mtime_tick_cycles == 0) {
    return fail("mtime_tick_cycles must be at least 1");
  }
  // The block executor's single clamped budget compare (ExecuteThreaded) relies on
  // every retired instruction charging at least one cycle.
  if (config.tuning.decode_cache_entries != 0 && config.tuning.superblock_entries != 0 &&
      config.cost.instr_base == 0) {
    return fail("the block tier needs a cost model with instr_base >= 1");
  }
  // The regions must be pairwise disjoint: silent aliasing would route accesses to
  // whichever window registered first.
  struct Region {
    const char* name;
    uint64_t base;
    uint64_t size;
  };
  Region regions[6];
  unsigned count = 0;
  regions[count++] = {"ram", config.map.ram_base, config.map.ram_size};
  regions[count++] = {"clint", config.map.clint_base, Clint::kSize};
  regions[count++] = {"plic", config.map.plic_base, Plic::kSize};
  regions[count++] = {"uart", config.map.uart_base, Uart::kSize};
  regions[count++] = {"finisher", config.map.finisher_base, Finisher::kSize};
  if (config.blockdev.enabled) {
    regions[count++] = {"blockdev", config.map.blockdev_base, BlockDev::kSize};
  }
  for (unsigned i = 0; i < count; ++i) {
    for (unsigned j = i + 1; j < count; ++j) {
      const bool overlap = regions[i].base < regions[j].base + regions[j].size &&
                           regions[j].base < regions[i].base + regions[i].size;
      if (overlap) {
        char text[160];
        std::snprintf(text, sizeof text,
                      "memory map regions overlap: %s [0x%" PRIx64 ", 0x%" PRIx64
                      ") and %s [0x%" PRIx64 ", 0x%" PRIx64 ")",
                      regions[i].name, regions[i].base, regions[i].base + regions[i].size,
                      regions[j].name, regions[j].base, regions[j].base + regions[j].size);
        return fail(text);
      }
    }
  }
  return true;
}

bool ReadMachineConfig(StateReader& reader, MachineConfig* config) {
  MachineConfig c;
  if (reader.BeginSection(StateTag("MCFG")) != kMachineConfigVersion) {
    // Version 1 carried three tuning fields that no longer exist; its layout cannot
    // be read as the current one.
    reader.Fail("unsupported MCFG section version");
  }
  c.hart_count = reader.U32();
  c.map.ram_base = reader.U64();
  c.map.ram_size = reader.U64();
  c.map.clint_base = reader.U64();
  c.map.plic_base = reader.U64();
  c.map.uart_base = reader.U64();
  c.map.blockdev_base = reader.U64();
  c.map.finisher_base = reader.U64();
  c.blockdev.enabled = reader.Bool();
  c.blockdev.sectors = reader.U64();
  c.isa.pmp_entries = reader.U32();
  c.isa.has_time_csr = reader.Bool();
  c.isa.has_sstc = reader.Bool();
  c.isa.has_h_ext = reader.Bool();
  c.isa.has_custom_csrs = reader.Bool();
  c.isa.hw_misaligned = reader.Bool();
  c.isa.mvendorid = reader.U64();
  c.isa.marchid = reader.U64();
  c.isa.mimpid = reader.U64();
  c.blockdev.latency_ticks = reader.U64();
  c.blockdev.ticks_per_sector = reader.U64();
  c.cost.instr_base = reader.U64();
  c.cost.instr_muldiv = reader.U64();
  c.cost.instr_mem = reader.U64();
  c.cost.trap_entry = reader.U64();
  c.cost.page_walk_level = reader.U64();
  c.cost.hal_csr_access = reader.U64();
  c.cost.monitor_dispatch = reader.U64();
  c.cost.hal_mem_access = reader.U64();
  c.cost.hal_base_op = reader.U64();
  c.cost.tlb_flush = reader.U64();
  c.cost.mtime_tick_cycles = reader.U64();
  c.cost.freq_mhz = reader.U64();
  c.tuning.decode_cache_entries = reader.U32();
  c.tuning.max_batch_instructions = reader.U32();
  c.tuning.tlb_entries = reader.U32();
  c.tuning.superblock_entries = reader.U32();
  c.tuning.quantum_harts = reader.Bool();
  c.tuning.parallel_harts = reader.Bool();
  reader.EndSection();
  std::string invalid;
  if (reader.ok() && !ValidateMachineConfig(c, &invalid)) {
    reader.Fail("invalid machine config: " + invalid);
  }
  if (!reader.ok()) {
    return false;
  }
  if (config != nullptr) {
    *config = c;
  }
  return true;
}

Machine::Machine(const MachineConfig& config) : Machine(config, nullptr) {}

Machine::Machine(const MachineConfig& config, std::shared_ptr<RamImage> ram)
    : config_(config) {
  std::string invalid;
  VFM_CHECK_MSG(ValidateMachineConfig(config_, &invalid), "%s", invalid.c_str());
  bus_.AddRam(config_.map.ram_base, config_.map.ram_size, std::move(ram));

  clint_ = std::make_unique<Clint>(config_.hart_count);
  bus_.AddMmio(config_.map.clint_base, Clint::kSize, clint_.get());

  plic_ = std::make_unique<Plic>(config_.hart_count);
  bus_.AddMmio(config_.map.plic_base, Plic::kSize, plic_.get());

  uart_ = std::make_unique<Uart>();
  bus_.AddMmio(config_.map.uart_base, Uart::kSize, uart_.get());

  finisher_ = std::make_unique<Finisher>();
  bus_.AddMmio(config_.map.finisher_base, Finisher::kSize, finisher_.get());

  if (config_.blockdev.enabled) {
    blockdev_ = std::make_unique<BlockDev>(&bus_, plic_.get(), /*plic_source=*/2,
                                           config_.blockdev.sectors,
                                           config_.blockdev.latency_ticks,
                                           config_.blockdev.ticks_per_sector);
    bus_.AddMmio(config_.map.blockdev_base, BlockDev::kSize, blockdev_.get());
  }

  for (unsigned i = 0; i < config_.hart_count; ++i) {
    harts_.push_back(std::make_unique<Hart>(i, &bus_, config_.isa, &config_.cost, config_.tuning));
    Clint* clint = clint_.get();
    harts_.back()->csrs().set_time_source([clint] { return clint->SyncedTime(); });
    harts_.back()->set_pc(config_.map.ram_base);
  }
  // Single-hart machines batch instructions (RunUntilFinished) and defer the mtime
  // push to batch boundaries; the CLINT's tick source lets mid-batch mtime reads
  // (MMIO and the time CSR) observe the exact per-instruction value anyway. Cycles
  // are always spilled before a load/store or CSR read executes, so the division
  // here sees precisely the per-instruction mcycle. Multi-hart machines step per
  // round and push every round, so they keep the plain stored counter.
  if (config_.hart_count == 1 && config_.cost.mtime_tick_cycles != 0) {
    Hart* hart0 = harts_[0].get();
    const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
    clint_->set_tick_source([hart0, tick_cycles] { return hart0->cycles() / tick_cycles; });
  }
}

Machine::~Machine() {
  if (pool_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(pool_->mutex);
      pool_->shutdown = true;
    }
    pool_->work_cv.notify_all();
    for (std::thread& thread : pool_->threads) {
      thread.join();
    }
  }
}

void Machine::EnsurePool() {
  if (pool_ != nullptr) {
    return;
  }
  pool_ = std::make_unique<WorkerPool>();
  pool_->stops.resize(hart_count());
  for (unsigned i = 1; i < hart_count(); ++i) {
    pool_->threads.emplace_back([this, i] { WorkerMain(i); });
  }
}

void Machine::WorkerMain(unsigned hart_index) {
  WorkerPool& pool = *pool_;
  uint64_t seen_epoch = 0;
  while (true) {
    uint64_t batch = 0;
    uint64_t stop = 0;
    {
      std::unique_lock<std::mutex> lock(pool.mutex);
      pool.work_cv.wait(lock, [&] { return pool.shutdown || pool.epoch != seen_epoch; });
      if (pool.shutdown) {
        return;
      }
      seen_epoch = pool.epoch;
      batch = pool.batch;
      stop = pool.stops[hart_index];
    }
    // The segment itself: this hart's private execution. Everything it shares with
    // other segments is read-only for the duration (RAM, devices, mtime), except the
    // bus's dependency page marks, which are monotonic relaxed-atomic set-bits.
    harts_[hart_index]->RunBatch(batch, stop);  // the result stays in the hart
    {
      std::lock_guard<std::mutex> lock(pool.mutex);
      ++pool.done;
    }
    pool.done_cv.notify_one();
  }
}

// Recording state: the open trace plus the high-water marks the barrier hook
// compares against. Owned by the Machine between StartRecording and StopRecording.
struct Machine::Recorder {
  TraceWriter writer;
  std::string path;
  uint64_t hash_period = 1;
  uint64_t last_hash_rounds = 0;
  uint64_t last_blockdev_completions = 0;
};

// Replay state: the parsed event list and a cursor into it, plus the result being
// filled in. Lives on ReplayFrom's stack; `replay_` points at it so the barrier
// hook can consume checkpoints while the replayed runs execute.
struct Machine::ReplayCursor {
  const std::vector<TraceEvent>* events = nullptr;
  size_t next = 0;
  ReplayResult* result = nullptr;
};

bool Machine::LoadImage(uint64_t addr, const std::vector<uint8_t>& image) {
  const bool ok = bus_.WriteBytes(addr, image.data(), image.size());
  if (ok && recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kLoadImage;
    event.a = addr;
    event.payload = image;
    RecordEvent(std::move(event));
  }
  return ok;
}

void Machine::RefreshInterruptLines() {
  // Writing a line is idempotent but not free (mask, merge); on the hot path almost
  // every round leaves every line unchanged, so compare against the CSR file's true
  // line state and touch only lines whose level actually flipped.
  for (unsigned i = 0; i < hart_count(); ++i) {
    CsrFile& csrs = harts_[i]->csrs();
    const bool mtip = clint_->MtipPending(i);
    if (csrs.InterruptLineSet(InterruptCause::kMachineTimer) != mtip) {
      csrs.SetInterruptLine(InterruptCause::kMachineTimer, mtip);
    }
    const bool msip = clint_->MsipPending(i);
    if (csrs.InterruptLineSet(InterruptCause::kMachineSoftware) != msip) {
      csrs.SetInterruptLine(InterruptCause::kMachineSoftware, msip);
    }
    const bool seip = plic_->SeipPending(i);
    if (csrs.InterruptLineSet(InterruptCause::kSupervisorExternal) != seip) {
      csrs.SetInterruptLine(InterruptCause::kSupervisorExternal, seip);
    }
  }
}

uint64_t Machine::StepAll() {
  const bool traced = BeginTracedRun(TraceRunKind::kStepAll, 0, 0);
  // Superblock host-pointer stores bypass Bus::Write, so any execution round may
  // dirty RAM behind the bus's back; mark conservatively for the CoW freeze reuse.
  bus_.SetRamMaybeDirty();
  RefreshInterruptLines();
  uint64_t retired = 0;
  for (auto& hart : harts_) {
    const StepResult result = hart->Tick();
    if (result.executed && !result.trapped) {
      ++retired;
    }
    if (result.trapped) {
      if (trap_observer_) {
        trap_observer_(*hart, result);
      }
      if (result.entered_mmode && owner_ != nullptr) {
        owner_->OnMachineTrap(*hart);
      }
    }
  }
  // Advance the timebase from hart 0's clock.
  const uint64_t now = harts_[0]->cycles();
  const uint64_t ticks_due = now / config_.cost.mtime_tick_cycles;
  if (ticks_due > clint_->mtime()) {
    clint_->set_mtime(ticks_due);
  }
  if (blockdev_) {
    blockdev_->Tick(clint_->mtime());
  }
  lifetime_retired_ += retired;
  ++lifetime_rounds_;
  TraceBarrier();
  if (traced) {
    EndTracedRun();
  }
  return retired;
}

bool Machine::IdleParked() {
  // Any enabled pending interrupt wakes its hart on the very next tick, so only a
  // machine where every hart is parked with nothing pending counts as idle.
  RefreshInterruptLines();
  for (const auto& hart : harts_) {
    if (!hart->waiting() || (hart->csrs().EffectiveMip() & hart->csrs().mie()) != 0) {
      return false;
    }
  }
  return true;
}

bool Machine::NextDeadline(uint64_t* wake_tick) const {
  // Earliest future event that can change interrupt state, in mtime ticks. While all
  // harts are parked only the timer comparators and the block device move on their
  // own; everything else needs an instruction to execute. Candidates are conservative
  // — a comparator counts even if its interrupt is masked or (for Sstc) the STCE
  // enable is off. Waking early just re-parks and fast-forwards again; it never
  // skips an event.
  const uint64_t mtime = clint_->mtime();
  uint64_t wake = 0;
  bool have_wake = false;
  const auto consider = [&](uint64_t tick) {
    if (tick > mtime && (!have_wake || tick < wake)) {
      wake = tick;
      have_wake = true;
    }
  };
  for (unsigned i = 0; i < hart_count(); ++i) {
    consider(clint_->mtimecmp(i));
    if (config_.isa.has_sstc) {
      consider(harts_[i]->csrs().stimecmp());
    }
  }
  if (blockdev_ && blockdev_->busy()) {
    consider(blockdev_->deadline());
  }
  if (have_wake && wake_tick != nullptr) {
    *wake_tick = wake;
  }
  return have_wake;
}

uint64_t Machine::FastForwardIdle(uint64_t max_rounds) {
  if (max_rounds == 0 || !IdleParked()) {
    return 0;
  }
  uint64_t wake_tick = 0;
  const bool have_wake = NextDeadline(&wake_tick);
  // A parked round charges exactly one cycle per hart, and mtime reaches wake_tick on
  // the round where hart 0's clock reaches wake_tick * mtime_tick_cycles — jump every
  // clock exactly there. With no candidate nothing will ever wake the machine, so
  // burn the caller's whole round budget at once.
  uint64_t skip = max_rounds;
  const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
  if (have_wake && wake_tick <= ~uint64_t{0} / tick_cycles) {
    const uint64_t wake_cycles = wake_tick * tick_cycles;
    const uint64_t now = harts_[0]->cycles();
    if (wake_cycles <= now) {
      return 0;  // software moved the timebase around; fall back to normal rounds
    }
    skip = wake_cycles - now < max_rounds ? wake_cycles - now : max_rounds;
  }
  for (auto& hart : harts_) {
    hart->csrs().AddCycles(skip);
  }
  const uint64_t now = harts_[0]->cycles();
  const uint64_t ticks_due = now / tick_cycles;
  if (ticks_due > clint_->mtime()) {
    clint_->set_mtime(ticks_due);
  }
  if (blockdev_) {
    blockdev_->Tick(clint_->mtime());
  }
  lifetime_rounds_ += skip;
  return skip;
}

uint64_t Machine::FastForwardIdleTo(uint64_t target_tick) {
  const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
  if (tick_cycles == 0) {
    return 0;
  }
  // The jump advances the machine-lifetime round coordinate, so a recording must
  // carry it as a run event for replay to land on the same coordinates.
  const bool traced =
      BeginTracedRun(TraceRunKind::kFastForwardIdleTo, target_tick, 0);
  uint64_t skipped = 0;
  const uint64_t now = harts_[0]->cycles();
  const uint64_t target_cycles = target_tick > ~uint64_t{0} / tick_cycles
                                     ? ~uint64_t{0}
                                     : target_tick * tick_cycles;
  if (target_cycles > now) {
    // FastForwardIdle jumps to min(own wake edge, cap), which is exactly the
    // "target or earlier wake, whichever first" contract.
    skipped = FastForwardIdle(target_cycles - now);
    TraceBarrier();
  }
  if (traced) {
    EndTracedRun();
  }
  return skipped;
}

Machine::SliceResult Machine::RunSlice(uint64_t max_instructions, uint64_t max_rounds) {
  if (max_rounds == 0) {
    max_rounds = max_instructions > ~uint64_t{0} / 4 ? ~uint64_t{0}
                                                     : 4 * max_instructions;
  }
  const bool traced =
      BeginTracedRun(TraceRunKind::kRunSlice, max_instructions, max_rounds);
  slice_idle_stop_ = true;
  slice_went_idle_ = false;
  RunProgress progress;
  const bool finished = RunUntilFinishedInner(max_instructions, max_rounds, &progress);
  SliceResult result;
  result.retired = progress.retired;
  result.rounds = progress.rounds;
  result.finished = finished;
  result.idle = slice_went_idle_;
  slice_idle_stop_ = false;
  slice_went_idle_ = false;
  if (traced) {
    EndTracedRun();
  }
  return result;
}

bool Machine::RunUntilFinished(uint64_t max_instructions) {
  return RunUntilFinished(max_instructions, 4 * max_instructions, nullptr);
}

bool Machine::RunUntilFinished(uint64_t max_instructions, uint64_t max_rounds,
                               RunProgress* progress) {
  const bool traced =
      BeginTracedRun(TraceRunKind::kRunUntilFinished, max_instructions, max_rounds);
  const bool finished = RunUntilFinishedInner(max_instructions, max_rounds, progress);
  if (traced) {
    EndTracedRun();
  }
  return finished;
}

bool Machine::RunUntilFinishedInner(uint64_t max_instructions, uint64_t max_rounds,
                                    RunProgress* progress) {
  // Multi-hart machines default to per-instruction rounds (harts observe each
  // other's stores and IPIs round by round). The quantum tunings switch them to the
  // deterministic quantum schedule (DESIGN.md §2i), where each hart runs privately
  // batched segments between mtime-tick barriers — the multi-hart counterpart of
  // the single-hart batching below.
  if (hart_count() != 1) {
    if (config_.tuning.quantum_harts || config_.tuning.parallel_harts) {
      return RunQuantumLoop(max_instructions, max_rounds, progress);
    }
    return RunUntil([] { return false; }, max_instructions, max_rounds, progress);
  }
  bus_.SetRamMaybeDirty();  // see StepAll
  Hart& hart = *harts_[0];
  const uint64_t max_batch =
      config_.tuning.max_batch_instructions > 0 ? config_.tuning.max_batch_instructions : 1;
  const uint64_t round_cap = max_rounds;
  uint64_t retired = 0;
  uint64_t rounds = 0;
  const auto report = [&] {
    if (progress != nullptr) {
      progress->retired = retired;
      progress->rounds = rounds;
    }
  };
  while (!finisher_->finished()) {
    RefreshInterruptLines();
    // Batch size: the configured cap, clamped so the batch cannot overshoot either
    // the instruction budget or the round bound (a batch tick == one StepAll round).
    uint64_t n = max_batch;
    const uint64_t instret_left = max_instructions - retired;
    const uint64_t rounds_left = round_cap - rounds;
    n = n < instret_left ? n : instret_left;
    n = n < rounds_left ? n : rounds_left;
    if (n == 0) {
      n = 1;  // budget of zero: still run one round, like RunUntil does
    }
    // While the block device has a request in flight it may complete on any mtime
    // tick, so fall back to single-instruction rounds until it goes idle.
    if (blockdev_ && blockdev_->busy()) {
      n = 1;
    }
    // Batch horizon. A timebase tick is only architecturally observable through
    // (a) an mtime read — MMIO and time-CSR reads are live-synced from hart 0's
    // clock (Clint::SyncedTime), so they are exact at any point inside a batch —
    // and (b) the MTIP edge at mtimecmp(0), where the batch must stop so the
    // interrupt is sampled on the same instruction boundary as per-instruction
    // stepping. So the horizon runs to the comparator's cycle, not to the next
    // tick. Cases that reintroduce per-tick observers keep the one-tick horizon:
    // Sstc (stimecmp comparators fire on ticks outside the CLINT), a host-side
    // monitor (it reads the stored mtime between batches), and a busy block
    // device (its completion deadline is an mtime tick; n == 1 above already
    // serializes it). When MTIP is already high there is no future edge — the
    // next flip needs an mtimecmp MMIO write, which ends the batch — so the
    // horizon is unbounded and the instruction budget alone limits the batch.
    const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
    uint64_t stop_cycles = (clint_->mtime() + 1) * tick_cycles;
    if (owner_ == nullptr && !config_.isa.has_sstc && tick_cycles != 0 &&
        !(blockdev_ && blockdev_->busy())) {
      const uint64_t cmp = clint_->mtimecmp(0);
      if (cmp <= clint_->mtime()) {
        stop_cycles = ~uint64_t{0};
      } else {
        stop_cycles =
            cmp > ~uint64_t{0} / tick_cycles ? ~uint64_t{0} : cmp * tick_cycles;
      }
    }
    const Hart::BatchResult& batch = hart.RunBatch(n, stop_cycles);
    rounds += batch.executed;
    retired += batch.retired;
    lifetime_rounds_ += batch.executed;
    lifetime_retired_ += batch.retired;
    if (batch.last.trapped) {
      if (trap_observer_) {
        trap_observer_(hart, batch.last);
      }
      if (batch.last.entered_mmode && owner_ != nullptr) {
        owner_->OnMachineTrap(hart);
      }
    }
    const uint64_t now = hart.cycles();
    const uint64_t ticks_due = now / config_.cost.mtime_tick_cycles;
    if (ticks_due > clint_->mtime()) {
      clint_->set_mtime(ticks_due);
    }
    if (blockdev_) {
      blockdev_->Tick(clint_->mtime());
    }
    // A parked hart burned its round on one idle cycle; jump straight to the next
    // wake candidate instead of taking one such round per cycle. Nothing here
    // observes the skipped rounds, so the full jump is exact (see FastForwardIdle).
    // In slice mode the machine instead stops at the park point and hands the
    // fast-forward decision to the scheduler (RunSlice).
    bool stop_idle = false;
    if (batch.last.waiting && rounds < round_cap) {
      if (slice_idle_stop_) {
        stop_idle = IdleParked();
      } else {
        rounds += FastForwardIdle(round_cap - rounds);
      }
    }
    TraceBarrier();
    if (stop_idle) {
      slice_went_idle_ = true;
      report();
      return false;
    }
    if (retired >= max_instructions || rounds >= round_cap) {
      report();
      if (!slice_idle_stop_) {
        VFM_LOG_WARN("sim", "instruction budget exhausted (%llu instructions, %s)",
                     static_cast<unsigned long long>(max_instructions),
                     hart.waiting() ? "all harts idle" : "harts still running");
      }
      return false;
    }
  }
  report();
  return true;
}

bool Machine::RunQuantumLoop(uint64_t max_instructions, uint64_t max_rounds,
                             RunProgress* progress) {
  const bool parallel = config_.tuning.parallel_harts;
  if (parallel) {
    EnsurePool();
  }
  // Arm the barrier-ordering asserts (Clint pending lines, Bus MMIO dispatch) for
  // the duration of the loop: any such access while segments are in flight is a
  // scheduling bug, not a tolerable reordering.
  bus_.SetMmioBarrierGate(&segment_in_flight_);
  clint_->SetBarrierGate(&segment_in_flight_);
  struct GateCleanup {
    Machine* machine;
    ~GateCleanup() {
      machine->bus_.SetMmioBarrierGate(nullptr);
      machine->clint_->SetBarrierGate(nullptr);
    }
  } cleanup{this};

  const uint64_t max_batch =
      config_.tuning.max_batch_instructions > 0 ? config_.tuning.max_batch_instructions : 1;
  const uint64_t tick_cycles = config_.cost.mtime_tick_cycles;
  const uint64_t round_cap = max_rounds;
  uint64_t retired = 0;
  uint64_t rounds = 0;
  const auto report = [&] {
    if (progress != nullptr) {
      progress->retired = retired;
      progress->rounds = rounds;
    }
  };
  const auto handle_trap = [&](Hart& hart, const StepResult& result) {
    if (result.trapped) {
      if (trap_observer_) {
        trap_observer_(hart, result);
      }
      if (result.entered_mmode && owner_ != nullptr) {
        owner_->OnMachineTrap(hart);
      }
    }
  };
  std::vector<uint64_t> serial_stops(hart_count());
  std::vector<uint64_t>& stops = parallel ? pool_->stops : serial_stops;
  std::vector<uint64_t> hart_rounds(hart_count());

  while (!finisher_->finished()) {
    bus_.SetRamMaybeDirty();  // see StepAll
    RefreshInterruptLines();
    // Segment size: the batch cap, deliberately NOT clamped to the remaining
    // instruction budget. Quantum boundaries are guest-visible schedule points, so
    // they must be a function of architectural state alone — a budget-dependent
    // clamp would give a split run (RunProgramSplit: smaller phase-1 budget)
    // different boundaries than the uninterrupted run. Instead the budget check
    // below stops at the first barrier at or past the budget, identically in both
    // legs; the overshoot is at most one segment per hart.
    uint64_t n = max_batch > 0 ? max_batch : 1;
    // The round clamp IS budget-consistent across a split (both legs inherit the
    // remaining allowance, so at the same barrier they compute the same bound).
    const uint64_t rounds_left = round_cap - rounds;
    n = n < rounds_left ? n : rounds_left;
    if (n == 0) {
      n = 1;  // budget of zero: still run one quantum, like RunUntil does
    }
    // A busy block device may complete on any mtime tick; serialize to
    // one-instruction segments until it goes idle (matches the single-hart loop).
    if (blockdev_ && blockdev_->busy()) {
      n = 1;
    }
    // Quantum horizon, as a cycle delta on hart 0's clock (see SegmentStopCycles
    // for why a delta). Tick-aligned events are only sampled at barriers, so by
    // default the quantum stops at the next mtime tick. When nothing can observe
    // individual ticks — no host-side M-mode owner reading stored mtime, no Sstc
    // comparators, no busy block device — the only tick-aligned events left are
    // the MTIP edges at each hart's CLINT comparator, so the horizon runs to the
    // earliest future edge instead (the same reasoning as the single-hart batch
    // horizon above, taken over all harts). With every comparator in the past
    // there is no future edge — the next one needs an mtimecmp MMIO write, which
    // is a sync event ending the quantum — so the horizon is unbounded and the
    // batch cap alone sizes the segments. This keeps rendezvous costs amortized
    // over thousands of instructions instead of one ~hundred-cycle timer tick.
    uint64_t stop_delta = ~uint64_t{0};
    if (tick_cycles != 0) {
      const uint64_t now0 = harts_[0]->cycles();
      uint64_t horizon_cycles = (clint_->mtime() + 1) * tick_cycles;
      if (owner_ == nullptr && !config_.isa.has_sstc && !(blockdev_ && blockdev_->busy())) {
        uint64_t earliest_cmp = ~uint64_t{0};
        for (unsigned i = 0; i < hart_count(); ++i) {
          const uint64_t cmp = clint_->mtimecmp(i);
          if (cmp > clint_->mtime() && cmp < earliest_cmp) {
            earliest_cmp = cmp;
          }
        }
        if (earliest_cmp == ~uint64_t{0}) {
          horizon_cycles = ~uint64_t{0};
        } else {
          horizon_cycles = earliest_cmp > ~uint64_t{0} / tick_cycles
                               ? ~uint64_t{0}
                               : earliest_cmp * tick_cycles;
        }
      }
      if (horizon_cycles != ~uint64_t{0}) {
        stop_delta = horizon_cycles > now0 ? horizon_cycles - now0 : 1;
      }
    }
    // -- Segments: private per-hart execution, serial in hart order or on the pool;
    // bit-identical either way because segments only read frozen shared state. The
    // absolute stop bounds are fixed here, at the serial point, because the barrier
    // continuations below need the same bound the segment ran under.
    for (unsigned i = 0; i < hart_count(); ++i) {
      stops[i] = SegmentStopCycles(*harts_[i], stop_delta);
    }
    for (auto& hart : harts_) {
      hart->BeginSegment();
    }
    segment_in_flight_ = true;
    if (parallel) {
      WorkerPool& pool = *pool_;
      {
        std::lock_guard<std::mutex> lock(pool.mutex);
        pool.batch = n;
        pool.done = 0;
        ++pool.epoch;
      }
      pool.work_cv.notify_all();
      harts_[0]->RunBatch(n, stops[0]);
      std::unique_lock<std::mutex> lock(pool.mutex);
      pool.done_cv.wait(lock, [&] { return pool.done == hart_count() - 1; });
    } else {
      for (unsigned i = 0; i < hart_count(); ++i) {
        harts_[i]->RunBatch(n, stops[i]);
      }
    }
    segment_in_flight_ = false;
    for (auto& hart : harts_) {
      hart->EndSegment();
    }
    // -- Barrier: all cross-hart effects, in canonical hart order. -----------------
    // (a) Buffered stores flush through Bus::Write (marks and generations bump as
    //     the serial stores would have).
    for (auto& hart : harts_) {
      hart->ApplySegmentStores();
    }
    // (b) Segment-final traps replay their observer/owner callbacks.
    for (auto& hart : harts_) {
      handle_trap(*hart, hart->last_batch().last);
    }
    // (c) Harts whose segment ended early — a sync-event abort (MMIO, AMO/LR/SC,
    //     fence.i, a non-RAM page walk) or a trap — finish their quantum serially
    //     here: every other hart is quiesced at the barrier, so their cross-hart
    //     effects are globally ordered, and segment mode is off, so RunBatch runs
    //     them normally (MMIO executes, stores hit RAM directly). Without this
    //     continuation one sync event would cost its hart the rest of the quantum,
    //     starving MMIO- and trap-heavy phases (firmware boot, SBI calls) by a
    //     factor of the batch cap.
    uint64_t quantum_rounds = 0;
    for (unsigned i = 0; i < hart_count(); ++i) {
      Hart& hart = *harts_[i];
      const Hart::BatchResult& segment = hart.last_batch();
      uint64_t hr = segment.executed;
      retired += segment.retired;
      lifetime_retired_ += segment.retired;
      if (hart.ConsumeSyncPending() || segment.last.trapped) {
        // Each continuation overwrites `segment`, which is read no further.
        while (hr < n && hart.cycles() < stops[i] && !hart.waiting() &&
               !finisher_->finished()) {
          const Hart::BatchResult& cont = hart.RunBatch(n - hr, stops[i]);
          hr += cont.executed;
          retired += cont.retired;
          lifetime_retired_ += cont.retired;
          handle_trap(hart, cont.last);
        }
      }
      hart_rounds[i] = hr;
      quantum_rounds = hr > quantum_rounds ? hr : quantum_rounds;
    }
    // Idle parity: in the per-round schedule a parked hart charges one cycle per
    // round, so harts that parked partway through this quantum are charged the
    // rounds they idled through. This keeps hart clocks — and mtime, which follows
    // hart 0 — advancing while some harts park, so timers held by a parked hart
    // still fire while its siblings compute.
    for (unsigned i = 0; i < hart_count(); ++i) {
      if (harts_[i]->waiting() && hart_rounds[i] < quantum_rounds) {
        harts_[i]->csrs().AddCycles(quantum_rounds - hart_rounds[i]);
      }
    }
    // A quantum advances wall-clock by its longest hart segment; count rounds so
    // the 4x round bound keeps its per-instruction meaning for the busiest hart.
    rounds += quantum_rounds;
    lifetime_rounds_ += quantum_rounds;
    ++quanta_;
    // (d) Timebase and device ticks, from hart 0's clock, exactly as StepAll does.
    if (tick_cycles != 0) {
      const uint64_t ticks_due = harts_[0]->cycles() / tick_cycles;
      if (ticks_due > clint_->mtime()) {
        clint_->set_mtime(ticks_due);
      }
    }
    if (blockdev_) {
      blockdev_->Tick(clint_->mtime());
    }
    // (e) Idle fast-forward when the whole machine parked (see FastForwardIdle);
    //     slice mode stops at the park point instead (RunSlice).
    bool all_waiting = true;
    for (const auto& hart : harts_) {
      all_waiting = all_waiting && hart->waiting();
    }
    bool stop_idle = false;
    if (all_waiting && rounds < round_cap) {
      if (slice_idle_stop_) {
        stop_idle = IdleParked();
      } else {
        rounds += FastForwardIdle(round_cap - rounds);
      }
    }
    TraceBarrier();
    if (stop_idle) {
      slice_went_idle_ = true;
      report();
      return false;
    }
    if (retired >= max_instructions || rounds >= round_cap) {
      report();
      if (!slice_idle_stop_) {
        VFM_LOG_WARN("sim", "instruction budget exhausted (%llu instructions, %s)",
                     static_cast<unsigned long long>(max_instructions),
                     all_waiting ? "all harts idle" : "harts still running");
      }
      return false;
    }
  }
  report();
  return true;
}

bool Machine::RunUntil(const std::function<bool()>& predicate, uint64_t max_instructions) {
  return RunUntil(predicate, max_instructions, 4 * max_instructions, nullptr);
}

bool Machine::RunUntil(const std::function<bool()>& predicate, uint64_t max_instructions,
                       uint64_t max_rounds, RunProgress* progress) {
  const bool traced =
      BeginTracedRun(TraceRunKind::kRunUntil, max_instructions, max_rounds);
  const bool stopped = RunUntilInner(predicate, max_instructions, max_rounds, progress);
  if (traced) {
    EndTracedRun();
  }
  return stopped;
}

bool Machine::RunUntilInner(const std::function<bool()>& predicate,
                            uint64_t max_instructions, uint64_t max_rounds,
                            RunProgress* progress) {
  const uint64_t round_cap = max_rounds;
  uint64_t retired = 0;
  uint64_t rounds = 0;
  const auto report = [&] {
    if (progress != nullptr) {
      progress->retired = retired;
      progress->rounds = rounds;
    }
  };
  // Check the finisher and predicate every round; rounds are cheap (hart_count ticks).
  while (!finisher_->finished()) {
    if (predicate()) {
      report();
      return true;
    }
    retired += StepAll();
    ++rounds;
    bool all_waiting = true;
    for (const auto& hart : harts_) {
      all_waiting = all_waiting && hart->waiting();
    }
    bool stop_idle = false;
    if (all_waiting && rounds < round_cap) {
      if (slice_idle_stop_) {
        // Slice mode (multi-hart non-quantum machines run their slices through
        // this loop): stop at the park point, the scheduler fast-forwards.
        stop_idle = IdleParked();
      } else {
        // Idle fast-forward, capped at the next mtime tick: the predicate then
        // still observes every timebase value it would have seen round by round
        // (several callers watch mtime), it just skips the idle cycles in between.
        const uint64_t next_tick_cycles =
            (clint_->mtime() + 1) * config_.cost.mtime_tick_cycles;
        const uint64_t now = harts_[0]->cycles();
        uint64_t cap = round_cap - rounds;
        if (next_tick_cycles > now && next_tick_cycles - now < cap) {
          cap = next_tick_cycles - now;
        }
        rounds += FastForwardIdle(cap);
      }
    }
    if (stop_idle) {
      slice_went_idle_ = true;
      report();
      return false;
    }
    // The round bound also terminates a machine where every hart is parked in WFI.
    if (retired >= max_instructions || rounds >= round_cap) {
      report();
      if (!slice_idle_stop_) {
        VFM_LOG_WARN("sim", "instruction budget exhausted (%llu instructions, %s)",
                     static_cast<unsigned long long>(max_instructions),
                     all_waiting ? "all harts idle" : "harts still running");
      }
      return false;
    }
  }
  report();
  return true;
}

void Machine::SaveSnapshot(Snapshot& snapshot) {
  // A snapshot point is a replayable host action: the CoW freeze is behaviour-
  // invisible, but replay must mirror it so the RAM images' remap bookkeeping
  // (generation bumps) happens at the identical coordinate.
  if (recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kSnapshotPoint;
    RecordEvent(std::move(event));
  }
  snapshot.state.clear();
  snapshot.ram.clear();
  StateWriter writer;
  writer.BeginSection(StateTag("MACH"), 2);
  // Configuration fingerprint: a snapshot only restores onto a machine whose
  // simulated-behaviour-relevant configuration matches bit for bit. (Host tuning is
  // deliberately excluded — restoring onto a differently-tuned machine is exactly
  // the cosim matrix's job.) The same fingerprint guards trace replay.
  WriteConfigFingerprint(writer, config_);
  // Version 2: machine-lifetime progress, the anchor for record/replay coordinates.
  writer.U64(lifetime_retired_);
  writer.U64(lifetime_rounds_);
  // Per-hart sections, the bus section, then every device in bus registration
  // order — the uniform state API means the machine never enumerates device types.
  for (const auto& hart : harts_) {
    hart->SaveState(writer);
  }
  bus_.SaveState(writer);
  for (const Bus::MmioWindow& window : bus_.mmio_windows()) {
    window.device->SaveState(writer);
  }
  writer.EndSection();
  snapshot.state = writer.Take();
  bus_.FreezeRam(&snapshot.ram);
}

bool Machine::RestoreSnapshot(const Snapshot& snapshot) {
  // Restoring to an arbitrary point invalidates the open trace's coordinate
  // system; a recording cannot continue across it.
  if (recorder_ != nullptr) {
    VFM_LOG_WARN("sim", "snapshot restore while recording: recording abandoned");
    recorder_.reset();
  }
  StateReader reader(snapshot.state);
  const uint32_t version = reader.BeginSection(StateTag("MACH"));
  CheckConfigFingerprint(reader, config_, "snapshot");
  if (reader.ok() && !bus_.RamFits(snapshot.ram)) {
    reader.Fail("snapshot RAM images do not match this machine's RAM regions");
  }
  uint64_t lifetime_retired = 0;
  uint64_t lifetime_rounds = 0;
  if (version >= 2) {
    lifetime_retired = reader.U64();
    lifetime_rounds = reader.U64();
  }
  for (auto& hart : harts_) {
    if (reader.ok() && !hart->LoadState(reader)) {
      break;
    }
  }
  if (reader.ok()) {
    bus_.LoadState(reader);
  }
  for (const Bus::MmioWindow& window : bus_.mmio_windows()) {
    if (reader.ok() && !window.device->LoadState(reader)) {
      break;
    }
  }
  reader.EndSection();
  if (!reader.ok()) {
    VFM_LOG_WARN("sim", "snapshot restore failed: %s", reader.error().c_str());
    return false;
  }
  bus_.AdoptRam(snapshot.ram);
  lifetime_retired_ = lifetime_retired;
  lifetime_rounds_ = lifetime_rounds;
  return true;
}

std::unique_ptr<Machine> Machine::Fork() {
  Snapshot snapshot;
  SaveSnapshot(snapshot);
  std::unique_ptr<Machine> child(new Machine(config_, snapshot.ram.front()));
  const bool restored = child->RestoreSnapshot(snapshot);
  VFM_CHECK_MSG(restored, "Machine::Fork: restore of own snapshot failed");
  return child;
}

uint64_t Machine::total_instret() const {
  uint64_t total = 0;
  for (const auto& hart : harts_) {
    total += hart->instret();
  }
  return total;
}

// -- Deterministic record/replay (DESIGN.md §2j). -----------------------------------

std::string DescribeReplay(const ReplayResult& result) {
  if (result.ok) {
    return "ok";
  }
  if (result.diverged) {
    return "diverged at hart " + std::to_string(result.hart) + " " +
           CoordString(result.retired, result.round) + ": " + result.detail;
  }
  return result.error;
}

bool Machine::StartRecording(const std::string& path, uint64_t hash_period_rounds) {
  if (recorder_ != nullptr || replay_ != nullptr) {
    return false;
  }
  recorder_ = std::make_unique<Recorder>();
  recorder_->path = path;
  recorder_->hash_period = hash_period_rounds > 0 ? hash_period_rounds : 1;
  recorder_->last_hash_rounds = lifetime_rounds_;
  recorder_->last_blockdev_completions =
      blockdev_ != nullptr ? blockdev_->completed_commands() : 0;
  TraceHeader header;
  StateWriter fingerprint;
  WriteConfigFingerprint(fingerprint, config_);
  header.fingerprint = fingerprint.Take();
  header.anchor_retired = lifetime_retired_;
  header.anchor_rounds = lifetime_rounds_;
  header.hart_count = hart_count();
  header.hash_period = recorder_->hash_period;
  recorder_->writer.Begin(header);
  return true;
}

bool Machine::StopRecording(std::vector<uint8_t>* trace_out) {
  if (recorder_ == nullptr) {
    return false;
  }
  // The end-of-trace event doubles as the deepest checkpoint: besides the rolling
  // state hashes it carries a full RAM hash and (if present) a full block-device
  // state hash, too expensive for the periodic cadence but cheap once per trace.
  TraceEvent end;
  end.kind = TraceEventKind::kEnd;
  end.payload = StateHashPayload();
  end.a = HashRam();
  end.b = blockdev_ != nullptr ? HashBlockdevFull() : 0;
  RecordEvent(std::move(end));
  std::vector<uint8_t> bytes = recorder_->writer.Finish();
  bool ok = true;
  if (!recorder_->path.empty()) {
    ok = WriteTraceFile(recorder_->path, bytes);
    if (!ok) {
      VFM_LOG_WARN("sim", "failed to write trace file %s", recorder_->path.c_str());
    }
  }
  if (trace_out != nullptr) {
    *trace_out = std::move(bytes);
  }
  recorder_.reset();
  return ok;
}

void Machine::InjectUartInput(const std::string& bytes) {
  uart_->PushInput(bytes);
  if (recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kUartInput;
    event.payload.assign(bytes.begin(), bytes.end());
    RecordEvent(std::move(event));
  }
}

void Machine::InjectPlicLine(unsigned source, bool level) {
  if (level) {
    plic_->RaiseSource(source);
  } else {
    plic_->ClearSource(source);
  }
  if (recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kPlicLine;
    event.a = source;
    event.b = level ? 1 : 0;
    RecordEvent(std::move(event));
  }
}

void Machine::InjectHostTime(uint64_t mtime) {
  clint_->set_mtime(mtime);
  if (recorder_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kHostTime;
    event.a = mtime;
    RecordEvent(std::move(event));
  }
}

bool Machine::BeginTracedRun(TraceRunKind kind, uint64_t a, uint64_t b) {
  if (recorder_ == nullptr || in_traced_run_) {
    return false;
  }
  in_traced_run_ = true;
  TraceEvent event;
  event.kind = TraceEventKind::kRun;
  event.sub = static_cast<uint8_t>(kind);
  event.a = a;
  event.b = b;
  RecordEvent(std::move(event));
  return true;
}

void Machine::EndTracedRun() {
  TraceEvent event;
  event.kind = TraceEventKind::kRunDone;
  event.a = finisher_->finished() ? 1 : 0;
  RecordEvent(std::move(event));
  in_traced_run_ = false;
}

void Machine::RecordEvent(TraceEvent event) {
  event.retired = lifetime_retired_;
  event.round = lifetime_rounds_;
  recorder_->writer.Append(event);
}

void Machine::TraceBarrier() {
  if (recorder_ != nullptr) {
    if (blockdev_ != nullptr) {
      const uint64_t done = blockdev_->completed_commands();
      if (done != recorder_->last_blockdev_completions) {
        recorder_->last_blockdev_completions = done;
        TraceEvent event;
        event.kind = TraceEventKind::kBlockdevCompletion;
        event.a = done;
        RecordEvent(std::move(event));
      }
    }
    if (lifetime_rounds_ - recorder_->last_hash_rounds >= recorder_->hash_period) {
      recorder_->last_hash_rounds = lifetime_rounds_;
      TraceEvent event;
      event.kind = TraceEventKind::kStateHash;
      event.payload = StateHashPayload();
      RecordEvent(std::move(event));
    }
  } else if (replay_ != nullptr) {
    ReplayConsumeCheckpoints();
  }
}

void Machine::ReplayConsumeCheckpoints() {
  ReplayCursor& cursor = *replay_;
  ReplayResult& result = *cursor.result;
  while (!result.diverged && cursor.next < cursor.events->size()) {
    const TraceEvent& event = (*cursor.events)[cursor.next];
    if (event.kind != TraceEventKind::kStateHash &&
        event.kind != TraceEventKind::kBlockdevCompletion) {
      break;
    }
    if (event.round > lifetime_rounds_) {
      break;  // not due yet
    }
    if (event.round != lifetime_rounds_ || event.retired != lifetime_retired_) {
      // The recording passed through a barrier coordinate this replay never
      // reached: the schedules themselves diverged before any hash could differ.
      ReplayDiverge(0, event,
                    "schedule drift: checkpoint recorded at " +
                        CoordString(event.retired, event.round) +
                        " but replay reached " +
                        CoordString(lifetime_retired_, lifetime_rounds_));
      break;
    }
    VerifyCheckpoint(event);
    ++cursor.next;
  }
}

void Machine::VerifyCheckpoint(const TraceEvent& event) {
  ReplayResult& result = *replay_->result;
  if (event.kind == TraceEventKind::kBlockdevCompletion) {
    const uint64_t done = blockdev_ != nullptr ? blockdev_->completed_commands() : 0;
    if (done != event.a) {
      ReplayDiverge(hart_count(), event,
                    "blockdev completion count " + std::to_string(done) +
                        " != recorded " + std::to_string(event.a));
    }
    return;
  }
  // kStateHash and kEnd share the payload layout: one hash per hart, then the
  // device hash. The first mismatching hart localizes the divergence.
  const size_t expected_size = (hart_count() + 1) * sizeof(uint64_t);
  if (event.payload.size() != expected_size) {
    result.error = "malformed trace: checkpoint payload size mismatch";
    return;
  }
  for (unsigned i = 0; i < hart_count(); ++i) {
    const uint64_t recorded = LoadLe64(event.payload.data() + i * sizeof(uint64_t));
    const uint64_t got = HashHartState(*harts_[i]);
    if (got != recorded) {
      ReplayDiverge(i, event, "hart " + std::to_string(i) + " state hash mismatch");
      return;
    }
  }
  const uint64_t recorded_dev =
      LoadLe64(event.payload.data() + hart_count() * sizeof(uint64_t));
  if (HashDeviceState() != recorded_dev) {
    ReplayDiverge(hart_count(), event, "device state hash mismatch");
    return;
  }
  ++result.hashes_checked;
}

void Machine::ReplayDiverge(uint32_t hart, const TraceEvent& event,
                            const std::string& detail) {
  ReplayResult& result = *replay_->result;
  if (result.diverged) {
    return;  // keep the first divergence
  }
  result.diverged = true;
  result.hart = hart;
  result.retired = event.retired;
  result.round = event.round;
  result.detail = detail;
}

uint64_t Machine::HashHartState(const Hart& hart) const {
  uint64_t h = kFnvBasis;
  h = FnvU64(hart.pc(), h);
  h = FnvU64(static_cast<uint64_t>(hart.priv()), h);
  h = FnvU64(hart.waiting() ? 1 : 0, h);
  for (unsigned i = 1; i < 32; ++i) {
    h = FnvU64(hart.gpr(i), h);
  }
  h = FnvU64(hart.instret(), h);
  h = FnvU64(hart.cycles(), h);
  // The CSRs whose divergence a schedule bug is most likely to surface through;
  // full state is covered by the end-of-trace RAM hash and device sections.
  static constexpr uint16_t kHashedCsrs[] = {
      kCsrMstatus, kCsrMie,  kCsrMip,    kCsrMedeleg,  kCsrMideleg, kCsrMtvec,
      kCsrMepc,    kCsrMcause, kCsrMtval, kCsrMscratch, kCsrStvec,   kCsrSepc,
      kCsrScause,  kCsrStval, kCsrSscratch, kCsrSatp,
  };
  for (uint16_t csr : kHashedCsrs) {
    h = FnvU64(hart.csrs().Get(csr), h);
  }
  return h;
}

uint64_t Machine::HashDeviceState() const {
  // Device state is hashed through the uniform SaveState sections — any device
  // that joins the bus joins the checkpoint with no machine changes. The block
  // device is excluded here because its section carries the whole disk; its
  // registers are folded in from accessors below, and the disk contents are
  // covered by the end-of-trace full hash plus the completion-edge events.
  StateWriter writer;
  for (const Bus::MmioWindow& window : bus_.mmio_windows()) {
    if (blockdev_ != nullptr && window.device == blockdev_.get()) {
      continue;
    }
    window.device->SaveState(writer);
  }
  uint64_t h = FnvBytes(writer.bytes().data(), writer.bytes().size(), kFnvBasis);
  if (blockdev_ != nullptr) {
    h = FnvU64(blockdev_->status(), h);
    h = FnvU64(blockdev_->busy() ? blockdev_->deadline() : 0, h);
    h = FnvU64(blockdev_->completed_commands(), h);
  }
  return h;
}

std::vector<uint8_t> Machine::StateHashPayload() const {
  std::vector<uint8_t> payload;
  payload.reserve((hart_count() + 1) * sizeof(uint64_t));
  const auto append = [&payload](uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  for (unsigned i = 0; i < hart_count(); ++i) {
    append(HashHartState(*harts_[i]));
  }
  append(HashDeviceState());
  return payload;
}

uint64_t Machine::HashRam() const {
  uint8_t buffer[4096];
  uint64_t h = kFnvBasis;
  const uint64_t base = config_.map.ram_base;
  const uint64_t size = config_.map.ram_size;
  for (uint64_t offset = 0; offset < size; offset += sizeof(buffer)) {
    const uint64_t chunk =
        size - offset < sizeof(buffer) ? size - offset : sizeof(buffer);
    if (!bus_.ReadBytes(base + offset, buffer, chunk)) {
      return 0;
    }
    h = FnvBytes(buffer, chunk, h);
  }
  return h;
}

uint64_t Machine::HashBlockdevFull() const {
  StateWriter writer;
  blockdev_->SaveState(writer);
  return FnvBytes(writer.bytes().data(), writer.bytes().size(), kFnvBasis);
}

void Machine::ExecuteReplayRun(const TraceEvent& run) {
  ReplayCursor& cursor = *replay_;
  ReplayResult& result = *cursor.result;
  RunProgress progress;
  switch (static_cast<TraceRunKind>(run.sub)) {
    case TraceRunKind::kStepAll:
      StepAll();
      break;
    case TraceRunKind::kRunUntilFinished:
      // Replay re-issues the original budgets verbatim: quantum segment sizing
      // depends on the remaining round allowance, so a different budget would
      // change the schedule, not just the stop point.
      RunUntilFinished(run.a, run.b, &progress);
      break;
    case TraceRunKind::kRunSlice:
      // Slice stop points are a pure function of architectural state and the
      // budgets, so re-issuing the slice reproduces the recorded stop barrier.
      RunSlice(run.a, run.b);
      break;
    case TraceRunKind::kFastForwardIdleTo:
      FastForwardIdleTo(run.a);
      break;
    case TraceRunKind::kRunUntil: {
      // The original predicate is host code and cannot be serialized; its effect
      // can. Rounds strictly increase between predicate checks and the check
      // coordinates of a deterministic replay are identical, so "progress reached
      // the recorded stop coordinate" fires at exactly the recorded check.
      const TraceEvent* done = nullptr;
      for (size_t i = cursor.next; i < cursor.events->size(); ++i) {
        const TraceEventKind kind = (*cursor.events)[i].kind;
        if (kind == TraceEventKind::kRunDone) {
          done = &(*cursor.events)[i];
          break;
        }
        if (kind != TraceEventKind::kStateHash &&
            kind != TraceEventKind::kBlockdevCompletion) {
          break;
        }
      }
      if (done == nullptr) {
        result.error = "malformed trace: run event without a matching run-done";
        return;
      }
      const uint64_t target_retired = done->retired;
      const uint64_t target_round = done->round;
      RunUntil(
          [this, target_retired, target_round] {
            return lifetime_rounds_ >= target_round &&
                   lifetime_retired_ >= target_retired;
          },
          run.a, run.b, &progress);
      break;
    }
    default:
      result.error = "malformed trace: unknown run kind";
      return;
  }
  if (result.diverged || !result.error.empty()) {
    return;
  }
  // Checkpoints recorded at the stop coordinate may still be pending (e.g. a
  // zero-round run); consume them before matching the run-done event.
  ReplayConsumeCheckpoints();
  if (result.diverged) {
    return;
  }
  if (cursor.next >= cursor.events->size()) {
    result.error = "malformed trace: expected a run-done event";
    return;
  }
  if ((*cursor.events)[cursor.next].kind != TraceEventKind::kRunDone) {
    const TraceEvent& next = (*cursor.events)[cursor.next];
    if (next.kind == TraceEventKind::kStateHash ||
        next.kind == TraceEventKind::kBlockdevCompletion) {
      // The replay's run stopped before the recording reached its next
      // checkpoint — a schedule divergence, not a malformed trace.
      ReplayDiverge(0, next,
                    "replay run stopped at " +
                        CoordString(lifetime_retired_, lifetime_rounds_) +
                        " before the checkpoint recorded at " +
                        CoordString(next.retired, next.round));
    } else {
      result.error = "malformed trace: expected a run-done event";
    }
    return;
  }
  const TraceEvent& done = (*cursor.events)[cursor.next];
  if (done.retired != lifetime_retired_ || done.round != lifetime_rounds_) {
    ReplayDiverge(0, done,
                  "run stopped at " +
                      CoordString(lifetime_retired_, lifetime_rounds_) +
                      " but the recording stopped at " +
                      CoordString(done.retired, done.round));
    return;
  }
  if ((done.a != 0) != finisher_->finished()) {
    ReplayDiverge(0, done,
                  std::string("finished flag mismatch: replay ") +
                      (finisher_->finished() ? "finished" : "did not finish") +
                      ", recording " + (done.a != 0 ? "finished" : "did not"));
    return;
  }
  ++cursor.next;
  ++result.events_applied;
}

ReplayResult Machine::ReplayFrom(const Snapshot& snapshot,
                                 const std::vector<uint8_t>& trace,
                                 const std::function<bool()>& post_restore) {
  ReplayResult result;
  if (recorder_ != nullptr) {
    result.error = "cannot replay while recording";
    return result;
  }
  if (replay_ != nullptr) {
    result.error = "replay already in progress";
    return result;
  }
  TraceReader reader(trace);
  if (!reader.ok()) {
    result.error = "trace rejected: " + reader.error();
    return result;
  }
  const TraceHeader& header = reader.header();
  {
    // The same rejection path snapshot restore uses: the trace embeds the
    // recording machine's config fingerprint, checked against this machine.
    StateReader fingerprint(header.fingerprint);
    CheckConfigFingerprint(fingerprint, config_, "trace");
    if (!fingerprint.ok()) {
      result.error = "trace rejected: " + fingerprint.error();
      return result;
    }
  }
  if (!RestoreSnapshot(snapshot)) {
    result.error = "snapshot restore failed";
    return result;
  }
  if (post_restore != nullptr && !post_restore()) {
    result.error = "post-restore hook failed";
    return result;
  }
  if (lifetime_retired_ != header.anchor_retired ||
      lifetime_rounds_ != header.anchor_rounds) {
    result.error = "trace anchor " +
                   CoordString(header.anchor_retired, header.anchor_rounds) +
                   " does not match the snapshot's progress " +
                   CoordString(lifetime_retired_, lifetime_rounds_);
    return result;
  }
  ReplayCursor cursor;
  cursor.events = &reader.events();
  cursor.result = &result;
  replay_ = &cursor;
  const std::vector<TraceEvent>& events = reader.events();
  bool saw_end = false;
  while (!result.diverged && result.error.empty() && !saw_end &&
         cursor.next < events.size()) {
    const TraceEvent& event = events[cursor.next];
    // Every input event was recorded between runs, at an exact coordinate; a
    // replay that is not at that coordinate when the event comes up has already
    // diverged in schedule.
    const bool checkpoint = event.kind == TraceEventKind::kStateHash ||
                            event.kind == TraceEventKind::kBlockdevCompletion;
    if (!checkpoint &&
        (event.retired != lifetime_retired_ || event.round != lifetime_rounds_)) {
      ReplayDiverge(0, event,
                    "schedule drift: event expected at " +
                        CoordString(event.retired, event.round) +
                        " but replay is at " +
                        CoordString(lifetime_retired_, lifetime_rounds_));
      break;
    }
    switch (event.kind) {
      case TraceEventKind::kUartInput:
        uart_->PushInput(std::string(event.payload.begin(), event.payload.end()));
        ++cursor.next;
        ++result.events_applied;
        break;
      case TraceEventKind::kPlicLine:
        if (event.b != 0) {
          plic_->RaiseSource(static_cast<unsigned>(event.a));
        } else {
          plic_->ClearSource(static_cast<unsigned>(event.a));
        }
        ++cursor.next;
        ++result.events_applied;
        break;
      case TraceEventKind::kHostTime:
        clint_->set_mtime(event.a);
        ++cursor.next;
        ++result.events_applied;
        break;
      case TraceEventKind::kLoadImage:
        if (!bus_.WriteBytes(event.a, event.payload.data(), event.payload.size())) {
          result.error = "replay LoadImage write failed";
          break;
        }
        ++cursor.next;
        ++result.events_applied;
        break;
      case TraceEventKind::kSnapshotPoint: {
        ++cursor.next;
        ++result.events_applied;
        Snapshot scratch;
        SaveSnapshot(scratch);  // mirror the recording's CoW freeze side effects
        break;
      }
      case TraceEventKind::kRun:
        ++cursor.next;
        ++result.events_applied;
        ExecuteReplayRun(event);
        break;
      case TraceEventKind::kStateHash:
      case TraceEventKind::kBlockdevCompletion:
        // Due exactly between runs (recorded at a barrier that coincided with a
        // run boundary).
        VerifyCheckpoint(event);
        ++cursor.next;
        break;
      case TraceEventKind::kRunDone:
        result.error = "malformed trace: stray run-done event";
        break;
      case TraceEventKind::kEnd: {
        VerifyCheckpoint(event);
        if (!result.diverged && result.error.empty()) {
          if (HashRam() != event.a) {
            ReplayDiverge(hart_count(), event, "RAM hash mismatch at end of trace");
          } else if (blockdev_ != nullptr && HashBlockdevFull() != event.b) {
            ReplayDiverge(hart_count(), event,
                          "blockdev state hash mismatch at end of trace");
          }
        }
        saw_end = true;
        ++cursor.next;
        break;
      }
      default:
        result.error = "malformed trace: unknown event kind";
        break;
    }
  }
  replay_ = nullptr;
  if (!result.diverged && result.error.empty() && !saw_end) {
    result.error = "trace truncated";  // unreachable: TraceReader enforces kEnd
  }
  result.ok = !result.diverged && result.error.empty();
  return result;
}

// -- Snapshot files (self-describing: full MachineConfig + state + RAM + aux). ------

bool WriteSnapshotFile(const std::string& path, const MachineConfig& config,
                       const Snapshot& snapshot, const std::vector<uint8_t>& aux) {
  StateWriter writer;
  writer.BeginSection(StateTag("SNPF"), 1);
  WriteMachineConfig(writer, config);
  writer.Bytes(snapshot.state.data(), snapshot.state.size());
  writer.U32(static_cast<uint32_t>(snapshot.ram.size()));
  for (const std::shared_ptr<RamImage>& image : snapshot.ram) {
    std::vector<uint8_t> contents(image->size());
    image->CopyTo(contents.data());
    writer.Bytes(contents.data(), contents.size());
  }
  writer.Bytes(aux.data(), aux.size());
  writer.EndSection();
  return WriteTraceFile(path, writer.bytes());
}

bool ReadSnapshotFile(const std::string& path, MachineConfig* config,
                      Snapshot* snapshot, std::vector<uint8_t>* aux) {
  std::vector<uint8_t> bytes;
  if (!ReadTraceFile(path, &bytes)) {
    return false;
  }
  StateReader reader(bytes);
  reader.BeginSection(StateTag("SNPF"));
  if (!ReadMachineConfig(reader, config)) {
    return false;
  }
  reader.Bytes(&snapshot->state);
  const uint32_t ram_count = reader.U32();
  snapshot->ram.clear();
  std::vector<uint8_t> contents;
  for (uint32_t i = 0; reader.ok() && i < ram_count; ++i) {
    reader.Bytes(&contents);
    snapshot->ram.push_back(RamImage::FromBytes(contents.data(), contents.size()));
  }
  std::vector<uint8_t> aux_bytes;
  reader.Bytes(&aux_bytes);
  reader.EndSection();
  if (!reader.ok()) {
    return false;
  }
  if (aux != nullptr) {
    *aux = std::move(aux_bytes);
  }
  return true;
}

}  // namespace vfm
