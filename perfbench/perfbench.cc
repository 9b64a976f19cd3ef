#include "perfbench/perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "src/common/log.h"
#include "src/fleet/fleet.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/workloads/workloads.h"

namespace vfm::perfbench {
namespace {

// -- Host clocks. ----------------------------------------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// User + system CPU seconds of the whole process, all threads included.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank percentile of an unsorted sample; sorts in place.
double Percentile(std::vector<uint64_t>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(values.size()));
  index = std::min(index, values.size() - 1);
  return static_cast<double>(values[index]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// -- Spans. ------------------------------------------------------------------------
// Kept in memory and written as Chrome trace-event JSON at exit. A disabled
// tracer records nothing, so untraced runs pay one branch per span.

class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;
    uint32_t run = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(uint32_t run) { run_ = run; }

  int64_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns, int64_t parent) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({name, start_ns, end_ns, parent, run_});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  int64_t Open(const std::string& name, int64_t parent) {
    return Add(name, NowNs(), 0, parent);
  }
  void Close(int64_t id) {
    if (id >= 0) {
      spans_[static_cast<size_t>(id)].end_ns = NowNs();
    }
  }

  // Total seconds of the spans named `name`.
  double Seconds(const std::string& name) const {
    uint64_t total = 0;
    for (const Span& span : spans_) {
      if (span.name == name) {
        total += span.end_ns - span.start_ns;
      }
    }
    return static_cast<double>(total) * 1e-9;
  }

  bool WriteChrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, \"tid\": 0, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": "
                   "%" PRId64 ", \"run\": %u}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.run,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.run);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  uint32_t run_ = 0;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, int64_t parent)
      : tracer_(tracer), id_(tracer.Open(name, parent)) {}
  ~Scope() { tracer_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// Forwards every M-mode trap to the monitor and times it. Installed only in the
// traced repetition, so untraced timings carry no per-trap clock reads.
class TimedOwner final : public MmodeOwner {
 public:
  // Trap spans written to the trace file; every trap is still timed.
  static constexpr size_t kMaxTraceSpans = 20'000;

  TimedOwner(MmodeOwner* inner, Tracer* tracer, int64_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  void OnMachineTrap(Hart& hart) override {
    const uint64_t start = NowNs();
    inner_->OnMachineTrap(hart);
    const uint64_t end = NowNs();
    samples_ns_.push_back(end - start);
    if (samples_ns_.size() <= kMaxTraceSpans) {
      tracer_->Add("core.Monitor::OnMachineTrap", start, end, parent_);
    }
  }

  std::vector<uint64_t>& samples_ns() { return samples_ns_; }

 private:
  MmodeOwner* inner_;
  Tracer* tracer_;
  int64_t parent_;
  std::vector<uint64_t> samples_ns_;
};

// -- Output signatures. --------------------------------------------------------------

class Signature {
 public:
  void Add(uint64_t value) {
    for (unsigned i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

void AddMonitorStats(Signature& sig, const MonitorStats& s) {
  for (uint64_t v : {s.os_traps, s.firmware_traps, s.emulated_instrs, s.world_switches,
                     s.injected_interrupts, s.mmio_emulations, s.mprv_emulations,
                     s.fastpath_hits, s.policy_denials}) {
    sig.Add(v);
  }
  for (uint64_t v : s.os_traps_by_cause) {
    sig.Add(v);
  }
}

// -- Per-layer counters (deltas over the measured phase). ------------------------------

enum Counter : size_t {
  kRetired, kRounds,
  kDecodeHits, kDecodeMisses, kSbHits, kSbMisses,
  kThreadedInstrs, kPromotions, kDeopts,
  kTlbHits, kTlbMisses, kTlbFlushes, kFastHits, kFastMisses,
  kCodeGen, kPtGen, kMmioOps,
  kOsTraps, kFastpathTraps, kWorldSwitches, kEmulated,
  kCounterCount,
};
using Counters = std::array<uint64_t, kCounterCount>;

Counters Sample(Machine& machine, const Monitor* monitor) {
  Counters c{};
  const Machine::RunProgress progress = machine.progress();
  c[kRetired] = progress.retired;
  c[kRounds] = progress.rounds;
  for (unsigned i = 0; i < machine.hart_count(); ++i) {
    const Hart& h = machine.hart(i);
    c[kDecodeHits] += h.decode_cache_hits();
    c[kDecodeMisses] += h.decode_cache_misses();
    c[kSbHits] += h.superblock_hits();
    c[kSbMisses] += h.superblock_misses();
    c[kThreadedInstrs] += h.threaded_instrs();
    c[kPromotions] += h.threaded_promotions();
    c[kDeopts] += h.threaded_deopts();
    c[kTlbHits] += h.tlb_hits();
    c[kTlbMisses] += h.tlb_misses();
    c[kTlbFlushes] += h.tlb_flushes();
    c[kFastHits] += h.host_fastpath_hits();
    c[kFastMisses] += h.host_fastpath_misses();
  }
  c[kCodeGen] = machine.bus().code_generation();
  c[kPtGen] = machine.bus().pt_generation();
  c[kMmioOps] = machine.bus().mmio_ops();
  if (monitor != nullptr) {
    const MonitorStats& s = monitor->stats();
    c[kOsTraps] = s.os_traps;
    c[kFastpathTraps] = s.fastpath_hits;
    c[kWorldSwitches] = s.world_switches;
    c[kEmulated] = s.emulated_instrs;
  }
  return c;
}

// -- One booted guest run ("leg"). -----------------------------------------------------

struct LegSpec {
  std::string name;  // native | miralis | no_offload
  PlatformProfile platform;
  DeployMode mode = DeployMode::kNative;
  std::function<Image()> build;  // assembles the guest kernel
  uint64_t expected_requests = 0;  // kScratch after the run
  uint64_t requests = 0;    // guest requests served: host_us_per_request's base
  uint64_t operations = 0;  // failed_ratio's base
  bool has_expected_check = false;  // kScratch+1 must equal expected_check
  uint64_t expected_check = 0;
  std::string latency_symbol;  // latency buffer folded into the signature
  uint64_t latency_entries = 0;
};

struct BootedLeg {
  System system;
  double build_s = 0;
  double boot_s = 0;
};

struct LegResult {
  std::string name;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t requests = 0;
  uint64_t signature = 0;
  Counters delta{};
  std::vector<uint64_t> trap_ns;  // traced repetition only
};

constexpr uint64_t kLegBudget = 2'000'000'000;

BootedLeg BootLeg(const LegSpec& spec, Tracer& tracer, int64_t parent) {
  BootedLeg leg;
  const uint64_t t0 = NowNs();
  Image kernel;
  {
    Scope scope(tracer, "workloads.BuildWorkloadKernel", parent);
    kernel = spec.build();
  }
  const uint64_t t1 = NowNs();
  {
    Scope scope(tracer, "platform.BootSystem", parent);
    leg.system = BootSystem(spec.platform, spec.mode, std::move(kernel));
  }
  const uint64_t t2 = NowNs();
  leg.build_s = static_cast<double>(t1 - t0) * 1e-9;
  leg.boot_s = static_cast<double>(t2 - t1) * 1e-9;
  return leg;
}

LegResult RunLeg(const LegSpec& spec, BootedLeg& leg, Tracer& tracer, int64_t parent,
                 std::vector<std::string>* errors) {
  Machine& machine = *leg.system.machine;
  Monitor* monitor = leg.system.monitor.get();
  std::unique_ptr<TimedOwner> timed;
  if (tracer.enabled() && monitor != nullptr) {
    timed = std::make_unique<TimedOwner>(monitor, &tracer, parent);
    machine.SetMmodeOwner(timed.get());
  }
  LegResult result;
  result.name = spec.name;
  const Counters before = Sample(machine, monitor);
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNs();
  bool finished = false;
  {
    Scope scope(tracer, "sim.Machine::RunUntilFinished", parent);
    finished = machine.RunUntilFinished(kLegBudget);
  }
  const uint64_t t1 = NowNs();
  result.cpu_s = CpuSeconds() - cpu0;
  result.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (monitor != nullptr) {
    machine.SetMmodeOwner(monitor);
  }
  const Counters after = Sample(machine, monitor);
  for (size_t i = 0; i < kCounterCount; ++i) {
    result.delta[i] = after[i] - before[i];
  }
  if (timed != nullptr) {
    result.trap_ns = std::move(timed->samples_ns());
  }

  const System& system = leg.system;
  const uint64_t requests = system.ReadResult(KernelSlots::kScratch);
  const uint64_t check = system.ReadResult(KernelSlots::kScratch + 1);
  result.requests = requests;
  const std::string who = spec.name + ": ";
  if (!finished) {
    errors->push_back(who + "guest did not finish within the instruction budget");
  } else if (machine.finisher().exit_code() != 0) {
    errors->push_back(who + "guest exit code " +
                      std::to_string(machine.finisher().exit_code()));
  }
  if (requests != spec.expected_requests) {
    errors->push_back(who + "completed " + std::to_string(requests) + " of " +
                      std::to_string(spec.expected_requests) + " requests");
  }
  if (spec.has_expected_check && check != spec.expected_check) {
    errors->push_back(who + "checked value mismatch");
  }

  Signature sig;
  sig.Add(machine.cycles());
  sig.Add(machine.total_instret());
  sig.Add(machine.finisher().exit_code());
  sig.Add(requests);
  sig.Add(check);
  if (monitor != nullptr) {
    AddMonitorStats(sig, monitor->stats());
  }
  if (!spec.latency_symbol.empty()) {
    const uint64_t buf = system.kernel.Symbol(spec.latency_symbol);
    for (uint64_t i = 0; i < spec.latency_entries; ++i) {
      uint64_t ticks = 0;
      machine.bus().Read(buf + 8 * i, 8, &ticks);
      sig.Add(ticks);
    }
  }
  result.signature = sig.value();
  return result;
}

// -- Workloads. ------------------------------------------------------------------------

// One repetition of a workload's fixed work.
struct Repetition {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t requests = 0;    // for host_us_per_request
  uint64_t operations = 0;  // attempted operations (failed_ratio's base)
  uint64_t signature = 0;
  std::vector<LegResult> legs;
  std::vector<std::string> errors;
  // Set-up breakdown.
  double build_s = 0;
  double boot_s = 0;
  // fleet_serve only.
  FleetStats fleet;
  unsigned fleet_workers = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds guest images and boots (the timed set-up); keeps what Run needs.
  virtual void Setup(Tracer& tracer, int64_t parent, Repetition& rep) = 0;
  // Runs the fixed work on what Setup prepared.
  virtual void Run(Tracer& tracer, int64_t parent, Repetition& rep) = 0;
  // Seed-independent outputs are compared with the stored signature on every seed.
  virtual bool SeedIndependent() const = 0;
  // Extra per-layer measurements of the traced repetition.
  virtual void TraceExtras(Tracer& /*tracer*/, int64_t /*parent*/, Repetition& /*rep*/,
                           std::vector<Metric>* /*metrics*/) {}
};

// Workloads made of booted single-machine legs, run back to back.
class LegWorkload : public Workload {
 public:
  LegWorkload(std::vector<LegSpec> specs, bool seed_independent)
      : specs_(std::move(specs)), seed_independent_(seed_independent) {}

  bool SeedIndependent() const override { return seed_independent_; }

  void Setup(Tracer& tracer, int64_t parent, Repetition& rep) override {
    booted_.clear();
    for (const LegSpec& spec : specs_) {
      Scope scope(tracer, "setup." + spec.name, parent);
      booted_.push_back(BootLeg(spec, tracer, scope.id()));
      rep.build_s += booted_.back().build_s;
      rep.boot_s += booted_.back().boot_s;
    }
  }

  void Run(Tracer& tracer, int64_t parent, Repetition& rep) override {
    Signature sig;
    for (size_t i = 0; i < specs_.size(); ++i) {
      Scope scope(tracer, "leg." + specs_[i].name, parent);
      LegResult leg = RunLeg(specs_[i], booted_[i], tracer, scope.id(), &rep.errors);
      rep.wall_s += leg.wall_s;
      rep.cpu_s += leg.cpu_s;
      rep.requests += specs_[i].requests;
      rep.operations += specs_[i].operations;
      sig.Add(leg.signature);
      rep.legs.push_back(std::move(leg));
    }
    rep.signature = sig.value();
    booted_.clear();
  }

 private:
  std::vector<LegSpec> specs_;
  std::vector<BootedLeg> booted_;
  bool seed_independent_;
};

// trap_mix: the memcached-latency guest with all five offloaded trap causes,
// under native firmware, Miralis, and Miralis without offload.
std::unique_ptr<Workload> MakeTrapMix() {
  WorkloadProfile profile = MemcachedLatencyProfile();
  // A fifth of the profile's 2000 requests: a repetition of the three legs takes
  // ~7 s, so a run's median covers several repetitions, and each slow leg still
  // makes over 100k code invalidations.
  profile.requests = 400;
  profile.misaligned_per_request = 1;  // every fast-path cause in the mix
  profile.rfences_per_request = 1;
  const PlatformProfile platform = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  std::vector<LegSpec> specs;
  const std::pair<const char*, DeployMode> modes[] = {
      {"native", DeployMode::kNative},
      {"miralis", DeployMode::kMiralis},
      {"no_offload", DeployMode::kMiralisNoOffload}};
  for (const auto& [name, mode] : modes) {
    LegSpec spec;
    spec.name = name;
    spec.platform = platform;
    spec.mode = mode;
    spec.build = [platform, profile] { return BuildWorkloadKernel(platform, profile); };
    spec.expected_requests = profile.requests;
    spec.requests = profile.requests;
    spec.operations = profile.requests;
    spec.latency_symbol = "w_lat_buf";
    spec.latency_entries = profile.requests;
    specs.push_back(std::move(spec));
  }
  return std::make_unique<LegWorkload>(std::move(specs), /*seed_independent=*/true);
}

// multihart_compute: the 4-hart CoreMark-Pro guest with Sv39 paging, under
// Miralis, on the quantum multi-hart schedule. The measured leg runs the serial
// quantum engine; the traced run repeats the work on the parallel engine, which
// must produce the same outputs bit for bit (WORKLOADS.md says why the parallel
// engine is not the measured leg).
LegSpec MultihartSpec(bool parallel) {
  WorkloadProfile profile = CoreMarkProProfile();
  profile.paging = true;
  PlatformProfile platform = MakePlatform(PlatformKind::kVf2Sim, profile.harts, false);
  platform.machine.tuning.quantum_harts = !parallel;
  platform.machine.tuning.parallel_harts = parallel;
  LegSpec spec;
  spec.name = parallel ? "miralis_parallel" : "miralis";
  spec.platform = platform;
  spec.mode = DeployMode::kMiralis;
  spec.build = [platform, profile] { return BuildWorkloadKernel(platform, profile); };
  spec.expected_requests = profile.requests;  // hart 0's count; the join covers the rest
  spec.requests = profile.requests * profile.harts;
  spec.operations = 1;  // one run leg
  return spec;
}

std::unique_ptr<Workload> MakeMultihart() {
  class Multihart final : public LegWorkload {
   public:
    Multihart() : LegWorkload({MultihartSpec(/*parallel=*/false)}, /*seed_independent=*/true) {}

    void TraceExtras(Tracer& tracer, int64_t parent, Repetition& rep,
                     std::vector<Metric>* metrics) override {
      const LegSpec parallel = MultihartSpec(/*parallel=*/true);
      Scope scope(tracer, "leg." + parallel.name, parent);
      BootedLeg booted = BootLeg(parallel, tracer, scope.id());
      LegResult leg = RunLeg(parallel, booted, tracer, scope.id(), &rep.errors);
      if (leg.signature != rep.legs.front().signature) {
        rep.errors.push_back("parallel engine diverged from the serial quantum engine");
      }
      metrics->push_back({"sim.parallel_over_quantum",
                          Ratio(leg.wall_s, rep.legs.front().wall_s), "ratio"});
    }
  };
  return std::make_unique<Multihart>();
}

// code_patch: a native single-hart guest that rewrites the immediate of an
// `addi` inside a hot loop, runs fence.i, runs the loop, and folds the result
// into a checked value. The immediates come from the seed.
constexpr uint64_t kPatchRounds = 10'000;
constexpr uint64_t kPatchLoopIters = 64;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<int32_t> PatchSchedule(uint64_t seed) {
  std::vector<int32_t> imms(kPatchRounds);
  uint64_t state = seed;
  for (int32_t& imm : imms) {
    state = SplitMix64(state);
    imm = static_cast<int32_t>(state % 4096) - 2048;  // any 12-bit signed immediate
  }
  return imms;
}

// Host model of the guest loop below.
uint64_t PatchChecksum(const std::vector<int32_t>& imms) {
  uint64_t folded = 0;
  for (uint64_t round = 0; round < imms.size(); ++round) {
    uint64_t x = folded;
    for (uint64_t i = 0; i < kPatchLoopIters; ++i) {
      x += static_cast<uint64_t>(static_cast<int64_t>(imms[round]));
      x ^= x << 3;
      x += x >> 5;
    }
    folded = x + round;
  }
  return folded;
}

Image BuildCodePatchKernel(const PlatformProfile& platform, const std::vector<int32_t>& imms,
                           bool pass) {
  KernelConfig config;
  config.base = platform.kernel_base;
  config.finisher_base = platform.machine.map.finisher_base;
  config.plic_base = platform.machine.map.plic_base;
  config.blockdev_base = platform.machine.map.blockdev_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  constexpr uint32_t kAddiT1T1 = (t1 << 15) | (t1 << 7) | 0x13;  // addi t1, t1, 0

  a.La(s2, "cp_imms");
  a.La(s3, "cp_site");
  a.Li(s4, 0);  // round
  a.Li(s5, 0);  // folded value
  a.Li(s6, imms.size());
  a.Li(s7, kAddiT1T1);
  a.Bind("cp_round");
  a.Lw(t0, s2, 0);
  a.Slli(t0, t0, 20);  // imm[11:0] -> instruction bits 31:20
  a.Or(t0, t0, s7);
  a.Sw(t0, s3, 0);  // rewrite the loop's first instruction
  a.FenceI();
  a.Mv(t1, s5);
  a.Li(t2, kPatchLoopIters);
  a.Bind("cp_site");
  a.Addi(t1, t1, 0);  // patched every round
  a.Slli(t3, t1, 3);
  a.Xor(t1, t1, t3);
  a.Srli(t3, t1, 5);
  a.Add(t1, t1, t3);
  a.Addi(t2, t2, -1);
  a.Bnez(t2, "cp_site");
  a.Add(s5, t1, s4);
  a.Addi(s2, s2, 4);
  a.Addi(s4, s4, 1);
  a.Bne(s4, s6, "cp_round");
  a.Mv(a0, s4);
  kb.EmitStoreResult(KernelSlots::kScratch);
  a.Mv(a0, s5);
  kb.EmitStoreResult(KernelSlots::kScratch + 1);
  kb.EmitFinish(pass);

  a.Align(8);
  a.Bind("cp_imms");
  for (const int32_t imm : imms) {
    a.Word32(static_cast<uint32_t>(imm));
  }
  return kb.Finish();
}

std::unique_ptr<Workload> MakeCodePatch(uint64_t seed, bool fail_guest) {
  const std::vector<int32_t> imms = PatchSchedule(seed);
  const PlatformProfile platform = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  LegSpec spec;
  spec.name = "native";
  spec.platform = platform;
  spec.mode = DeployMode::kNative;
  spec.build = [platform, imms, fail_guest] {
    return BuildCodePatchKernel(platform, imms, !fail_guest);
  };
  spec.expected_requests = imms.size();
  spec.requests = imms.size();
  spec.operations = imms.size();  // one patch check per round
  spec.has_expected_check = true;
  spec.expected_check = PatchChecksum(imms);
  std::vector<LegSpec> specs;
  specs.push_back(std::move(spec));
  return std::make_unique<LegWorkload>(std::move(specs), /*seed_independent=*/false);
}

// fleet_serve: the fleet executor's default cell, open-loop in simulated time.
class FleetServe final : public Workload {
 public:
  static constexpr unsigned kForkSamples = 1024;

  explicit FleetServe(uint64_t seed) {
    config_.seed = seed;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    config_.workers = std::min(cores, 4u);
  }

  bool SeedIndependent() const override { return false; }

  void Setup(Tracer& tracer, int64_t parent, Repetition& rep) override {
    const uint64_t t0 = NowNs();
    manager_ = std::make_unique<FleetManager>(config_);
    {
      Scope scope(tracer, "platform.FleetManager::BootedTemplate", parent);
      manager_->BootedTemplate();
    }
    rep.boot_s += static_cast<double>(NowNs() - t0) * 1e-9;
  }

  void Run(Tracer& tracer, int64_t parent, Repetition& rep) override {
    const double cpu0 = CpuSeconds();
    const uint64_t t0 = NowNs();
    {
      Scope scope(tracer, "fleet.FleetManager::Run", parent);
      rep.fleet = manager_->Run();
    }
    rep.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    rep.cpu_s = CpuSeconds() - cpu0;
    rep.fleet_workers = config_.workers;
    const FleetStats& s = rep.fleet;
    const uint64_t expected = uint64_t{config_.machines} * config_.requests_per_machine;
    rep.requests = s.requests_completed;
    rep.operations = expected;
    rep.signature = s.DeterministicSignature();
    if (s.stalled != 0) {
      rep.errors.push_back(std::to_string(s.stalled) + " fleet machines stalled");
    }
    if (s.finished != config_.machines) {
      rep.errors.push_back("only " + std::to_string(s.finished) + " of " +
                           std::to_string(config_.machines) + " machines finished");
    }
    if (s.requests_completed != expected || s.requests_injected != expected ||
        s.latencies_ticks.size() != expected) {
      rep.errors.push_back("completed " + std::to_string(s.requests_completed) + " of " +
                           std::to_string(expected) + " requests");
    }
  }

  void TraceExtras(Tracer& tracer, int64_t parent, Repetition& rep,
                   std::vector<Metric>* metrics) override {
    // The guest build alone, with the template's inputs (the template boot
    // builds it internally, inside platform.FleetManager::BootedTemplate).
    PlatformProfile platform = MakePlatform(config_.platform, 1, false);
    platform.machine.map.ram_size = config_.ram_size;
    {
      Scope scope(tracer, "workloads.BuildFleetServerKernel", parent);
      FleetServerLayout layout;
      BuildFleetServerKernel(platform, config_.profile, config_.poll_interval_ticks,
                             &layout);
    }
    rep.build_s = tracer.Seconds("workloads.BuildFleetServerKernel");

    Machine* tmpl = manager_->BootedTemplate();
    std::vector<uint64_t> fork_ns;
    fork_ns.reserve(kForkSamples);
    for (unsigned i = 0; i < kForkSamples; ++i) {
      const uint64_t t0 = NowNs();
      std::unique_ptr<Machine> child = tmpl->Fork();
      const uint64_t t1 = NowNs();
      tracer.Add("fleet.Machine::Fork", t0, t1, parent);
      fork_ns.push_back(t1 - t0);
    }
    metrics->push_back({"fleet.fork_us_p50", Percentile(fork_ns, 0.50) * 1e-3, "us"});
    metrics->push_back({"fleet.fork_us_p99", Percentile(fork_ns, 0.99) * 1e-3, "us"});
    metrics->push_back({"fleet.fork_samples", static_cast<double>(fork_ns.size()), "count"});
  }

 private:
  FleetConfig config_;
  std::unique_ptr<FleetManager> manager_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "trap_mix") {
    return MakeTrapMix();
  }
  if (options.workload == "multihart_compute") {
    return MakeMultihart();
  }
  if (options.workload == "fleet_serve") {
    return std::make_unique<FleetServe>(options.seed);
  }
  if (options.workload == "code_patch") {
    return MakeCodePatch(options.seed, options.fail_guest);
  }
  return nullptr;
}

// -- Per-layer metrics of the traced repetition. ------------------------------------------

void AddLayerMetrics(const std::string& workload, const Repetition& rep,
                     const Tracer& tracer, double untraced_wall_s, double untraced_cpu_s,
                     std::vector<Metric>* out) {
  Counters sum{};
  std::vector<uint64_t> trap_ns;
  for (const LegResult& leg : rep.legs) {
    for (size_t i = 0; i < kCounterCount; ++i) {
      sum[i] += leg.delta[i];
    }
    trap_ns.insert(trap_ns.end(), leg.trap_ns.begin(), leg.trap_ns.end());
  }
  const bool fleet = workload == "fleet_serve";
  double run_s = 0;
  for (const LegResult& leg : rep.legs) {
    run_s += leg.wall_s;
  }
  double trap_s = 0;
  for (uint64_t ns : trap_ns) {
    trap_s += static_cast<double>(ns) * 1e-9;
  }
  const double fleet_run_s = tracer.Seconds("fleet.FleetManager::Run");
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const auto rate = [&](uint64_t hits, uint64_t misses) {
    return Ratio(d(hits), d(hits + misses));
  };
  if (fleet) {
    sum[kRetired] = rep.fleet.total_retired;
    sum[kRounds] = rep.fleet.total_rounds;
  }
  const double guest_s = fleet ? fleet_run_s : run_s;

  out->push_back({"workloads.build_s", rep.build_s, "s"});
  out->push_back({"platform.boot_s", rep.boot_s, "s"});
  out->push_back({"sim.run_s", run_s, "s"});
  out->push_back({"sim.self_s", run_s - trap_s, "s"});
  out->push_back({"sim.guest_mips", Ratio(d(sum[kRetired]), guest_s) * 1e-6, "MIPS"});
  out->push_back({"sim.decode_hit_rate", rate(sum[kDecodeHits], sum[kDecodeMisses]), "ratio"});
  out->push_back({"sim.superblock_hit_rate", rate(sum[kSbHits], sum[kSbMisses]), "ratio"});
  out->push_back({"sim.threaded_share", Ratio(d(sum[kThreadedInstrs]), d(sum[kRetired])),
                  "ratio"});
  out->push_back({"sim.threaded_promotions", d(sum[kPromotions]), "count"});
  out->push_back({"sim.threaded_deopts", d(sum[kDeopts]), "count"});
  out->push_back({"sim.tlb_hit_rate", rate(sum[kTlbHits], sum[kTlbMisses]), "ratio"});
  out->push_back({"sim.tlb_flushes", d(sum[kTlbFlushes]), "count"});
  out->push_back({"sim.host_fastpath_hit_rate", rate(sum[kFastHits], sum[kFastMisses]),
                  "ratio"});
  out->push_back({"sim.rounds_per_retired", Ratio(d(sum[kRounds]), d(sum[kRetired])), "ratio"});
  out->push_back({"sim.cpu_per_wall", Ratio(untraced_cpu_s, untraced_wall_s), "ratio"});
  out->push_back({"sim.parallel_over_quantum", 0, "ratio"});  // multihart_compute
  out->push_back({"mem.code_invalidations", d(sum[kCodeGen]), "count"});
  out->push_back({"mem.pt_invalidations", d(sum[kPtGen]), "count"});
  out->push_back({"mem.mmio_ops", d(sum[kMmioOps]), "count"});
  out->push_back({"core.trap_s", trap_s, "s"});
  out->push_back({"core.trap_ns_p50", Percentile(trap_ns, 0.50), "ns"});
  out->push_back({"core.trap_ns_p99", Percentile(trap_ns, 0.99), "ns"});
  out->push_back({"core.trap_samples", d(trap_ns.size()), "count"});
  out->push_back({"core.os_traps", d(sum[kOsTraps]), "count"});
  out->push_back({"core.fastpath_ratio", Ratio(d(sum[kFastpathTraps]), d(sum[kOsTraps])),
                  "ratio"});
  out->push_back({"core.world_switches", d(sum[kWorldSwitches]), "count"});
  out->push_back({"core.emulated_instrs", d(sum[kEmulated]), "count"});

  double busy = 0;
  uint64_t slices = 0;
  for (double b : rep.fleet.worker_busy_seconds) {
    busy += b;
  }
  for (uint64_t s : rep.fleet.worker_slices) {
    slices += s;
  }
  out->push_back({"fleet.run_s", fleet_run_s, "s"});
  out->push_back({"fleet.fork_us_p50", 0, "us"});  // fleet_serve: see TraceExtras
  out->push_back({"fleet.fork_us_p99", 0, "us"});
  out->push_back({"fleet.fork_samples", 0, "count"});
  out->push_back({"fleet.worker_busy_ratio",
                  Ratio(busy, rep.fleet.wall_seconds * rep.fleet_workers), "ratio"});
  out->push_back({"fleet.steal_success_ratio",
                  Ratio(d(rep.fleet.steals), d(rep.fleet.steal_attempts)), "ratio"});
  out->push_back({"fleet.slices", d(slices), "count"});
  out->push_back({"fleet.rss_per_machine_mib",
                  fleet ? PeakRssMib() / d(rep.fleet.machines) : 0, "MiB"});

  // Per-leg values: trap_mix's three deployments side by side. A workload with
  // one leg reports it under its deploy mode and 0 for the others.
  for (const char* leg_name : {"native", "miralis", "no_offload"}) {
    double leg_run = 0;
    double leg_code = 0;
    for (const LegResult& leg : rep.legs) {
      if (leg.name == leg_name) {
        leg_run = leg.wall_s;
        leg_code = d(leg.delta[kCodeGen]);
      }
    }
    out->push_back({std::string("sim.run_s.") + leg_name, leg_run, "s"});
    out->push_back({std::string("mem.code_invalidations.") + leg_name, leg_code, "count"});
  }
}

void AddNotes(const Repetition& rep, Report* report) {
  char line[256];
  for (const LegResult& leg : rep.legs) {
    std::snprintf(line, sizeof(line),
                  "leg %-16s wall %9.4f s  cpu %9.4f s  retired %11" PRIu64
                  "  code invalidations %8" PRIu64 "  os traps %7" PRIu64,
                  leg.name.c_str(), leg.wall_s, leg.cpu_s, leg.delta[kRetired],
                  leg.delta[kCodeGen], leg.delta[kOsTraps]);
    report->notes.push_back(line);
  }
  if (rep.fleet.machines != 0) {
    std::snprintf(line, sizeof(line),
                  "fleet %" PRIu64 " machines x %u workers  requests %" PRIu64
                  "  retired %" PRIu64 "  rounds %" PRIu64 "  steals %" PRIu64,
                  rep.fleet.machines, rep.fleet_workers, rep.fleet.requests_completed,
                  rep.fleet.total_retired, rep.fleet.total_rounds, rep.fleet.steals);
    report->notes.push_back(line);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"trap_mix", "multihart_compute",
                                                 "fleet_serve", "code_patch"};
  return names;
}

Report RunWorkload(const Options& options) {
  Report report;
  report.workload = options.workload;
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    report.correct = false;
    report.errors.push_back("unknown workload '" + options.workload + "'");
    return report;
  }
  SetLogLevel(LogLevel::kError);

  // Set-up is sampled this many extra times before every repetition, so its
  // samples spread over the run like the repetitions do; the median is reported.
  constexpr int kExtraSetupSamples = 8;
  Tracer quiet(false);
  std::vector<double> setup_samples;
  const auto sample_setup = [&](Repetition& rep) {
    const uint64_t t0 = NowNs();
    workload->Setup(quiet, -1, rep);
    setup_samples.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };

  // The measured phase: repetitions of the fixed work, each on freshly booted
  // machines (host caches start cold), until the time box closes. A repetition
  // that the longest one so far says would end past the box is not started, so
  // a run ends within --seconds (after at least one repetition).
  std::vector<double> wall, cpu, per_request;
  const uint64_t start = NowNs();
  double longest_s = 0;
  Repetition last;
  uint32_t run = 0;
  do {
    const uint64_t rep_start = NowNs();
    for (int i = 0; i < kExtraSetupSamples; ++i) {
      Repetition scratch;
      sample_setup(scratch);
    }
    Repetition rep;
    sample_setup(rep);
    workload->Run(quiet, -1, rep);
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
    per_request.push_back(Ratio(rep.wall_s * 1e6, static_cast<double>(rep.requests)));
    report.attempted += rep.operations;
    if (run > 0 && rep.signature != last.signature) {
      rep.errors.push_back("simulated outputs differ from the previous repetition's");
    }
    for (const std::string& e : rep.errors) {
      report.errors.push_back("repetition " + std::to_string(run) + ": " + e);
    }
    last = std::move(rep);
    ++run;
    longest_s = std::max(longest_s, static_cast<double>(NowNs() - rep_start) * 1e-9);
  } while (static_cast<double>(NowNs() - start) * 1e-9 + longest_s <= options.seconds);

  const auto check_signature = [&](uint64_t signature) {
    const auto it = options.expected.find(options.workload);
    const bool compare = workload->SeedIndependent() || options.seed == kDefaultSeed;
    if (compare && it != options.expected.end() && it->second != signature) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "signature %016" PRIx64 " differs from the stored %016" PRIx64,
                    signature, it->second);
      report.errors.push_back(line);
    }
  };
  check_signature(last.signature);
  report.signature = last.signature;

  if (!options.trace) {
    report.metrics = {
        {"setup_s", Median(setup_samples), "s"},
        {"wall_s", Median(wall), "s"},
        {"cpu_s", Median(cpu), "s"},
        {"host_us_per_request", Median(per_request), "us"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
    };
    AddNotes(last, &report);
  } else {
    // One more repetition with every span recorded and the trap owner timed.
    Tracer tracer(true);
    tracer.set_run(run);
    Repetition rep;
    std::vector<Metric> extras;
    {
      Scope root(tracer, options.workload, -1);
      {
        Scope setup(tracer, "setup", root.id());
        workload->Setup(tracer, setup.id(), rep);
      }
      {
        Scope measured(tracer, "measured", root.id());
        workload->Run(tracer, measured.id(), rep);
      }
      workload->TraceExtras(tracer, root.id(), rep, &extras);
    }
    report.attempted += rep.operations;
    for (const std::string& e : rep.errors) {
      report.errors.push_back("traced repetition: " + e);
    }
    check_signature(rep.signature);
    if (rep.signature != last.signature) {
      report.errors.push_back("traced repetition changed the simulated outputs");
    }
    AddLayerMetrics(options.workload, rep, tracer, Median(wall), Median(cpu),
                    &report.metrics);
    for (const Metric& extra : extras) {
      for (Metric& m : report.metrics) {
        if (m.name == extra.name) {
          m.value = extra.value;
        }
      }
    }
    report.metrics.push_back({"trace.overhead_ratio", Ratio(rep.wall_s, Median(wall)),
                              "ratio"});
    AddNotes(rep, &report);
    if (!options.trace_out.empty() && !tracer.WriteChrome(options.trace_out)) {
      report.errors.push_back("cannot write trace file " + options.trace_out);
    }
  }

  if (!report.errors.empty()) {
    report.correct = false;
    report.failed = report.attempted;  // a failed output check fails the whole run
  }
  return report;
}

bool LoadExpected(const std::string& path, std::map<std::string, uint64_t>* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string name, hex;
    if (!(fields >> name)) {
      continue;
    }
    if (!(fields >> hex)) {
      return false;
    }
    char* end = nullptr;
    const uint64_t value = std::strtoull(hex.c_str(), &end, 16);
    if (end == hex.c_str() || *end != '\0') {
      return false;
    }
    (*out)[name] = value;
  }
  return true;
}

std::string ReportJson(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace vfm::perfbench
