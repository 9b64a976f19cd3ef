// Host-side throughput microbenchmarks (google-benchmark): how fast the simulator
// and the monitor's hot paths run on the host. These are engineering benchmarks for
// the library itself, not paper reproductions, and guard against regressions in the
// interpreter and PMP-check fast paths that all the figure benches depend on.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "src/asm/assembler.h"
#include "src/common/log.h"
#include "src/core/vcpu.h"
#include "src/core/vpmp.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

void BM_InterpreterThroughput(benchmark::State& state) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitComputeLoop(1'000'000'000, 16);  // effectively endless
  kb.EmitFinish(true);
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  // Skip firmware boot.
  system.machine->RunUntilFinished(20'000);
  uint64_t instructions = 0;
  for (auto _ : state) {
    const uint64_t before = system.machine->total_instret();
    system.machine->RunUntilFinished(100'000);
    instructions += system.machine->total_instret() - before;
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput)->Unit(benchmark::kMillisecond);

void BM_PmpCheck(benchmark::State& state) {
  PmpBank bank(8);
  VCsrFile vcsr(VhartConfig{});
  vcsr.Set(CsrPmpaddr(0), 0x2000'0000);
  vcsr.Set(CsrPmpcfg(0), 0x1F);
  VpmpInputs inputs;
  inputs.monitor = {true, 0x8000'0000, 1 << 20, false, false, false};
  inputs.vdev = {true, 0x200'0000, 0x10000, false, false, false};
  ComputePhysicalPmp(vcsr, inputs, &bank);
  uint64_t addr = 0x8000'0000;
  bool sink = false;
  for (auto _ : state) {
    addr = addr * 1664525 + 1013904223;
    sink ^= bank.Check(addr & 0xFFFF'FFFF, 8, AccessType::kLoad, PrivMode::kSupervisor);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_PmpCheck);

void BM_PrivilegedEmulation(benchmark::State& state) {
  VhartConfig config;
  VirtContext vctx(config);
  uint64_t gprs[32] = {};
  const DecodedInstr instr = Decode(0x34011073);  // csrw mscratch, sp
  for (auto _ : state) {
    benchmark::DoNotOptimize(vctx.EmulatePrivileged(instr, gprs));
    vctx.set_priv(PrivMode::kMachine);
  }
}
BENCHMARK(BM_PrivilegedEmulation);

void BM_WorldSwitchPath(benchmark::State& state) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Bind("bm_loop");
  a.Li(a7, 0x10);  // BASE extension: never fast-pathed, always a world switch
  a.Li(a6, 0);
  a.Ecall();
  a.J("bm_loop");
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  system.machine->RunUntilFinished(20'000);  // reach the loop
  for (auto _ : state) {
    const uint64_t before = system.monitor->stats().world_switches;
    system.machine->RunUntil([&] {
      return system.monitor->stats().world_switches >= before + 10;
    }, 1'000'000);
  }
  state.counters["switches"] = static_cast<double>(system.monitor->stats().world_switches);
}
BENCHMARK(BM_WorldSwitchPath)->Unit(benchmark::kMicrosecond);

// An M-mode owner that leaves every trap to the guest's own handler. Installing any
// owner shortens the quantum horizon to one mtime tick (the monitor reads the stored
// mtime between quanta), so with it the quantum loop pays its per-quantum cost as
// often as it does under the monitor.
class NoopOwner final : public MmodeOwner {
 public:
  void OnMachineTrap(Hart&) override {}
};

// One multi-hart throughput run: aggregate MIPS, and the quanta and rounds the
// measured part ran (0 quanta on the timeshared loop).
struct MultiHartRun {
  double mips = 0;
  double seconds = 0;
  uint64_t quanta = 0;
  uint64_t rounds = 0;
};

// Boots an N-hart native system whose harts all run an endless compute loop under
// the given multi-hart scheduling mode, and returns aggregate wall-clock MIPS.
// Timeshared (no tuning) is the per-instruction round-robin loop; quantum is the
// deterministic quantum schedule run serially; parallel is the same schedule with
// one host thread per hart (DESIGN.md §2i). `owned` installs a NoopOwner after boot.
MultiHartRun MeasureMultiHart(unsigned harts, bool quantum, bool parallel, bool owned = false) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, harts, false);
  profile.machine.tuning.quantum_harts = quantum;
  profile.machine.tuning.parallel_harts = parallel;
  // Rendezvous cost amortizes over the segment length; with no timers armed the
  // quantum horizon is the batch cap, so give multi-hart throughput runs segments
  // long enough that the barrier is noise (timeshared ignores the knob entirely).
  profile.machine.tuning.max_batch_instructions = 65536;
  KernelConfig config;
  config.base = profile.kernel_base;
  config.hart_count = harts;
  KernelBuilder kb(config);
  kb.EmitStartSecondaries();
  kb.EmitComputeLoop(1'000'000'000, 16);  // effectively endless
  kb.EmitFinish(true);
  kb.DefineSecondaryMain();
  kb.EmitComputeLoop(1'000'000'000, 16);
  kb.EmitSecondaryPark();
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  // Boot, bring every secondary online, and settle into the loops.
  system.machine->RunUntilFinished(2'000'000);
  NoopOwner owner;
  if (owned) {
    system.machine->SetMmodeOwner(&owner);
  }
  // The timeshared loop steps per instruction and is ~an order of magnitude slower;
  // give it a smaller measured budget so the bench stays quick.
  const uint64_t measured = (quantum || parallel) ? 200'000'000 : 40'000'000;
  const uint64_t start = system.machine->total_instret();
  const uint64_t start_quanta = system.machine->quanta();
  const uint64_t start_rounds = system.machine->progress().rounds;
  const auto t0 = std::chrono::steady_clock::now();
  system.machine->RunUntilFinished(measured);
  const auto t1 = std::chrono::steady_clock::now();
  MultiHartRun run;
  run.seconds = std::chrono::duration<double>(t1 - t0).count();
  const uint64_t instructions = system.machine->total_instret() - start;
  run.mips = run.seconds > 0 ? static_cast<double>(instructions) / run.seconds / 1e6 : 0.0;
  run.quanta = system.machine->quanta() - start_quanta;
  run.rounds = system.machine->progress().rounds - start_rounds;
  return run;
}

// Memory-traffic workload: the kernel's read-modify-write sweep loop, under Sv39
// (`paging`) or with a bare satp. Either way its loads and stores go through the
// software TLB into the host-pointer fast path (DESIGN.md §2d): paged ones through
// walked entries, bare ones through identity entries.
struct MemoryLoopRun {
  double mips = 0;
  double fastpath_hit_rate = 0;
};

MemoryLoopRun MeasureMemoryLoop(bool paging) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  config.enable_paging = paging;
  KernelBuilder kb(config);
  kb.EmitMemoryLoop(1'000'000'000);  // effectively endless
  kb.EmitFinish(true);
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  system.machine->RunUntilFinished(20'000);  // skip boot: steady-state only
  const Hart& hart = system.machine->hart(0);
  const uint64_t start_instret = system.machine->total_instret();
  const uint64_t start_hits = hart.host_fastpath_hits();
  const uint64_t start_misses = hart.host_fastpath_misses();
  constexpr uint64_t kMeasured = 100'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  system.machine->RunUntilFinished(kMeasured);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const uint64_t instructions = system.machine->total_instret() - start_instret;
  const uint64_t hits = hart.host_fastpath_hits() - start_hits;
  const uint64_t ops = hits + (hart.host_fastpath_misses() - start_misses);
  MemoryLoopRun run;
  run.mips = seconds > 0 ? static_cast<double>(instructions) / seconds / 1e6 : 0.0;
  run.fastpath_hit_rate = ops > 0 ? static_cast<double>(hits) / static_cast<double>(ops) : 0.0;
  return run;
}

// Store-next-to-code workload: a loop that read-modify-writes one data word in its
// own 4 KiB page, outside the 64-byte granules its instructions occupy — the layout
// of firmware trap frames and of kernel data slots placed right after code. Only a
// store into cached code has to invalidate it (DESIGN.md §2b), so this loop should
// run like any other memory loop. Sv39 is on, as for the memory workload, so the
// stores take the host-pointer fast path. Returns MIPS; *invalidations receives the
// code invalidations the measured run caused.
double MeasureStoreNearCodeMips(uint64_t* invalidations) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  config.enable_paging = true;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.J("snc_start");
  a.Align(4096);  // the loop, its exit and its data word share one page
  a.Bind("snc_start");
  a.La(s4, "snc_data");
  a.Li(s2, 1'000'000'000);  // effectively endless
  a.Bind("snc_loop");
  a.Ld(t0, s4, 0);
  a.Addi(t0, t0, 1);
  a.Sd(t0, s4, 0);
  a.Addi(s2, s2, -1);
  a.Bnez(s2, "snc_loop");
  kb.EmitFinish(true);
  a.Align(64);  // a granule past all of the code
  a.Bind("snc_data");
  a.Word64(0);
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  system.machine->RunUntilFinished(20'000);  // skip boot: steady-state only
  const uint64_t start_instret = system.machine->total_instret();
  const uint64_t start_invalidations = system.machine->bus().code_generation();
  constexpr uint64_t kMeasured = 10'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  system.machine->RunUntilFinished(kMeasured);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  *invalidations = system.machine->bus().code_generation() - start_invalidations;
  const uint64_t instructions = system.machine->total_instret() - start_instret;
  return seconds > 0 ? static_cast<double>(instructions) / seconds / 1e6 : 0.0;
}

// Dedicated timed run for the machine-readable result file: boots the same native
// compute loop as BM_InterpreterThroughput and measures wall-clock throughput plus
// the decoded-instruction cache hit rate over a fixed instruction count.
void WriteSimSpeedJson() {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitComputeLoop(1'000'000'000, 16);  // effectively endless
  kb.EmitFinish(true);
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  system.machine->RunUntilFinished(20'000);  // skip boot: steady-state only

  const Hart& hart = system.machine->hart(0);
  const uint64_t start_instret = system.machine->total_instret();
  const uint64_t start_hits = hart.decode_cache_hits();
  const uint64_t start_misses = hart.decode_cache_misses();
  const uint64_t start_tlb_hits = hart.tlb_hits();
  const uint64_t start_tlb_misses = hart.tlb_misses();
  const uint64_t start_sb_hits = hart.superblock_hits();
  const uint64_t start_sb_misses = hart.superblock_misses();
  const uint64_t start_sb_blocks = hart.superblock_blocks();
  const uint64_t start_sb_instrs = hart.superblock_instrs();
  const uint64_t start_fp_hits = hart.host_fastpath_hits();
  const uint64_t start_fp_misses = hart.host_fastpath_misses();
  const uint64_t start_th_blocks = hart.threaded_blocks();
  const uint64_t start_th_instrs = hart.threaded_instrs();
  const uint64_t start_th_promotions = hart.threaded_promotions();
  const uint64_t start_th_deopts = hart.threaded_deopts();
  constexpr uint64_t kMeasured = 200'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  system.machine->RunUntilFinished(kMeasured);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  const uint64_t instructions = system.machine->total_instret() - start_instret;
  const uint64_t hits = hart.decode_cache_hits() - start_hits;
  const uint64_t misses = hart.decode_cache_misses() - start_misses;
  const uint64_t lookups = hits + misses;
  const uint64_t tlb_hits = hart.tlb_hits() - start_tlb_hits;
  const uint64_t tlb_lookups = tlb_hits + (hart.tlb_misses() - start_tlb_misses);
  const uint64_t sb_hits = hart.superblock_hits() - start_sb_hits;
  const uint64_t sb_lookups = sb_hits + (hart.superblock_misses() - start_sb_misses);
  const uint64_t sb_blocks = hart.superblock_blocks() - start_sb_blocks;
  const uint64_t sb_instrs = hart.superblock_instrs() - start_sb_instrs;
  const uint64_t fp_hits = hart.host_fastpath_hits() - start_fp_hits;
  const uint64_t fp_ops = fp_hits + (hart.host_fastpath_misses() - start_fp_misses);
  const uint64_t th_blocks = hart.threaded_blocks() - start_th_blocks;
  const uint64_t th_instrs = hart.threaded_instrs() - start_th_instrs;

  // Memory-traffic phase: the compute loop above is pure ALU and never issues a
  // load or store, so the host fast path is measured on loops that do, with Sv39 on
  // and with a bare satp.
  const MemoryLoopRun paged = MeasureMemoryLoop(/*paging=*/true);
  const MemoryLoopRun bare = MeasureMemoryLoop(/*paging=*/false);

  uint64_t store_near_code_invalidations = 0;
  const double store_near_code_mips = MeasureStoreNearCodeMips(&store_near_code_invalidations);

  // Multi-hart throughput matrix: the deterministic quantum schedule, serial and
  // parallel, against the per-instruction timeshared loop at 4 harts (the CI gate
  // compares parallel against timeshared at equal hart count).
  const double mips_timeshared_4h = MeasureMultiHart(4, false, false).mips;
  const double mips_quantum_2h = MeasureMultiHart(2, true, false).mips;
  const double mips_quantum_4h = MeasureMultiHart(4, true, false).mips;
  const double mips_quantum_8h = MeasureMultiHart(8, true, false).mips;
  const double mips_parallel_2h = MeasureMultiHart(2, false, true).mips;
  const double mips_parallel_4h = MeasureMultiHart(4, false, true).mips;
  const double mips_parallel_8h = MeasureMultiHart(8, false, true).mips;
  // The per-quantum cost: the 4-hart quantum loop with an owner installed, so every
  // quantum ends at the next mtime tick, as it does under the monitor.
  const MultiHartRun owned_4h = MeasureMultiHart(4, true, false, /*owned=*/true);

  JsonResultWriter json("sim_speed");
  json.Add("instructions_retired", static_cast<double>(instructions));
  json.Add("seconds", seconds);
  json.Add("mips", seconds > 0 ? static_cast<double>(instructions) / seconds / 1e6 : 0.0);
  json.Add("decode_cache_hit_rate",
           lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0);
  json.Add("tlb_hit_rate",
           tlb_lookups > 0 ? static_cast<double>(tlb_hits) / static_cast<double>(tlb_lookups)
                           : 0.0);
  json.Add("superblock_hit_rate",
           sb_lookups > 0 ? static_cast<double>(sb_hits) / static_cast<double>(sb_lookups)
                          : 0.0);
  json.Add("mean_block_length",
           sb_blocks > 0 ? static_cast<double>(sb_instrs) / static_cast<double>(sb_blocks)
                         : 0.0);
  // From the memory-traffic phase (the compute loop has no memory operations; its
  // own counters are still emitted as compute_fastpath_ops for reference).
  json.Add("host_fastpath_hit_rate", paged.fastpath_hit_rate);
  json.Add("memory_mips", paged.mips);
  json.Add("host_fastpath_hit_rate_bare", bare.fastpath_hit_rate);
  json.Add("memory_bare_mips", bare.mips);
  json.Add("compute_fastpath_ops", static_cast<double>(fp_ops));
  json.Add("store_near_code_mips", store_near_code_mips);
  json.Add("store_near_code_invalidations", static_cast<double>(store_near_code_invalidations));
  json.Add("threaded_hit_rate",
           instructions > 0 ? static_cast<double>(th_instrs) / static_cast<double>(instructions)
                            : 0.0);
  json.Add("promotions", static_cast<double>(hart.threaded_promotions() - start_th_promotions));
  json.Add("deopts", static_cast<double>(hart.threaded_deopts() - start_th_deopts));
  json.Add("mean_lowered_block_length",
           th_blocks > 0 ? static_cast<double>(th_instrs) / static_cast<double>(th_blocks)
                         : 0.0);
  json.Add("mips_timeshared_4h", mips_timeshared_4h);
  json.Add("mips_quantum_2h", mips_quantum_2h);
  json.Add("mips_quantum_4h", mips_quantum_4h);
  json.Add("mips_quantum_8h", mips_quantum_8h);
  json.Add("mips_parallel_2h", mips_parallel_2h);
  json.Add("mips_parallel_4h", mips_parallel_4h);
  json.Add("mips_parallel_8h", mips_parallel_8h);
  json.Add("mips_quantum_4h_owned", owned_4h.mips);
  json.Add("quanta", static_cast<double>(owned_4h.quanta));
  json.Add("rounds_per_quantum", owned_4h.quanta > 0 ? static_cast<double>(owned_4h.rounds) /
                                                         static_cast<double>(owned_4h.quanta)
                                                   : 0.0);
  json.Add("ns_per_quantum", owned_4h.quanta > 0 ? owned_4h.seconds * 1e9 /
                                                     static_cast<double>(owned_4h.quanta)
                                               : 0.0);
  json.Add("parallel_per_hart_mips_4h", mips_parallel_4h / 4.0);
  json.Add("parallel_speedup_4h",
           mips_timeshared_4h > 0 ? mips_parallel_4h / mips_timeshared_4h : 0.0);
  const char* path = "BENCH_sim_speed.json";
  if (json.WriteTo(path)) {
    std::printf("wrote %s (%.1f MIPS)\n", path,
                seconds > 0 ? static_cast<double>(instructions) / seconds / 1e6 : 0.0);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

}  // namespace
}  // namespace vfm

int main(int argc, char** argv) {
  vfm::SetLogLevel(vfm::LogLevel::kError);  // warm-up budget warnings are expected
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  vfm::WriteSimSpeedJson();
  return 0;
}
