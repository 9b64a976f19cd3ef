// The machine-fleet executor (DESIGN.md §2k): thousands of simulated machines
// behind a work-stealing scheduler — the ROADMAP's "millions of users" story.
//
// One template machine boots the fleet-server kernel (src/workloads) once and is
// CoW-Fork()ed per fleet machine through the shared MachinePool, amortizing the
// boot across the fleet. Each worker thread owns a Chase-Lev deque of runnable
// machines and steps them in bounded slices (Machine::RunSlice); a machine that
// idle-parks in WFI goes to a shared timer heap keyed by its NextDeadline()
// instead of burning slice budget, and whichever worker runs dry next pops the
// earliest-deadline machine, FastForwardIdleTo()s it, and resumes it. An
// open-loop front-end injects request bytes (InjectUartInput) on each machine's
// own arrival schedule and drains per-request latency from the guest's
// completion ring — latency is measured against the *scheduled* arrival tick,
// so queueing delay inside a saturated guest is counted (no coordinated
// omission).
//
// Determinism: every scheduling decision a machine's virtual time depends on —
// slice budgets, arrival ticks (per-machine xorshift seeded from (seed, index)),
// fast-forward targets (its own NextDeadline or next arrival) — is a function of
// machine-local state only. Worker count and steal order change only *when in
// host time* a machine runs, never what it computes, so the aggregate stats
// (requests, retired, rounds, cycles, the full latency multiset) are bit-equal
// across 1..N workers; FleetStats::DeterministicSignature() is the test hook.
// Steal counts, worker utilization, and wall-clock are reporting-only.

#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/platform/platform.h"
#include "src/sim/machine_pool.h"
#include "src/workloads/workloads.h"

namespace vfm {

struct FleetConfig {
  unsigned machines = 64;
  unsigned workers = 1;
  uint64_t seed = 1;
  // Per-request guest work (compute chain + trap mix); `requests`/`harts`/
  // latency-buffer fields of the profile are ignored — the fleet front-end
  // drives the open loop and the server kernel is single-hart.
  WorkloadProfile profile = MemcachedLatencyProfile();
  uint64_t requests_per_machine = 64;
  // Mean request inter-arrival time in timebase ticks (uniform on
  // [1, 2*mean-1], integer — deliberately no floating point in the schedule).
  // 0 = closed-burst: every request is due the moment the fleet starts.
  uint64_t mean_interarrival_ticks = 2000;
  uint64_t slice_instructions = 20'000;   // RunSlice budget per scheduling turn
  uint64_t poll_interval_ticks = 500;     // guest server poll timer
  PlatformKind platform = PlatformKind::kVf2Sim;
  // Fleet machines get a small RAM (the server kernel needs ~5 MiB of the
  // address space) and shrunken host-side caches so a 4096-machine fleet fits
  // host memory; both are host-visible only.
  uint64_t ram_size = 16ull << 20;
  // Skewed-load knobs: the first `heavy_machines` machines use
  // `heavy_interarrival_ticks` instead of the mean (0 = closed-burst). With
  // block distribution this concentrates the heavy machines on worker 0, which
  // is what the steal-rebalancing test leans on.
  unsigned heavy_machines = 0;
  uint64_t heavy_interarrival_ticks = 0;
};

struct FleetStats {
  // -- Deterministic aggregates (bit-equal across worker counts). ---------------
  uint64_t machines = 0;
  uint64_t finished = 0;           // machines that reached the finisher
  uint64_t stalled = 0;            // machines with no wake edge left (bug guard)
  uint64_t requests_injected = 0;
  uint64_t requests_completed = 0;
  uint64_t total_retired = 0;      // guest instructions, summed over machines
  uint64_t total_rounds = 0;       // slice + fast-forward rounds
  uint64_t total_cycles = 0;       // hart-0 cycles consumed, summed over machines
  std::vector<uint64_t> latencies_ticks;  // sorted, one per completed request

  // Latency percentiles in microseconds (ticks * mtime_tick_cycles / freq_mhz).
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mean_us = 0;

  // -- Reporting-only (host-time dependent; excluded from the signature). -------
  uint64_t steals = 0;
  uint64_t steal_attempts = 0;
  double wall_seconds = 0;
  double fleet_mips = 0;           // total_retired / wall_seconds / 1e6
  double requests_per_host_sec = 0;
  std::vector<uint64_t> worker_retired;  // per worker
  std::vector<uint64_t> worker_slices;
  std::vector<double> worker_busy_seconds;
  // Host code caches, summed over every machine's harts (DESIGN.md §2b, §2f). They
  // repeat exactly across worker counts but describe the host, not the guest.
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  uint64_t superblock_hits = 0;
  uint64_t superblock_misses = 0;
  uint64_t promotions = 0;

  // FNV-1a over the deterministic fields above — the cross-worker-count
  // equality hook for the determinism tests.
  uint64_t DeterministicSignature() const;
};

class FleetManager {
 public:
  explicit FleetManager(const FleetConfig& config);
  ~FleetManager();

  // Boots the template (first call only), forks the fleet, runs it to
  // completion on `config.workers` threads, and aggregates. Repeatable: each
  // Run() forks a fresh fleet from the same template, so back-to-back runs
  // (e.g. the 1-worker vs N-worker legs of a bench) see identical guests.
  FleetStats Run();

  // The booted server template (boots on first use) — exposed so benches can
  // measure single-machine baselines against the exact fleet guest.
  Machine* BootedTemplate();

  const FleetServerLayout& layout() const { return layout_; }

 private:
  struct FleetMachine {
    std::unique_ptr<Machine> machine;
    unsigned index = 0;
    uint64_t rng = 0;
    uint64_t interarrival = 0;       // 0 = closed-burst
    uint64_t next_arrival_tick = 0;
    uint64_t quota = 0;
    uint64_t arrivals_injected = 0;
    uint64_t drained = 0;            // completions read from the guest ring
    std::deque<uint64_t> inflight;   // scheduled arrival tick per injected byte
    std::vector<uint64_t> latencies; // completion - scheduled arrival, in ticks
    bool shutdown_sent = false;
    bool finished = false;
    bool stalled = false;
    uint64_t parked_wake = 0;        // fast-forward target when popped from heap
    uint64_t retired = 0;
    uint64_t rounds = 0;
    uint64_t start_cycles = 0;       // fork-time baseline (template cycles)
  };
  struct Worker;

  void EnsureTemplate();
  void PrepareFleet();
  void WorkerMain(unsigned index);
  FleetMachine* FindWork(Worker& worker);
  void StepMachine(Worker& worker, FleetMachine& fm);
  void InjectDueArrivals(FleetMachine& fm);
  void DrainCompletions(FleetMachine& fm);
  void ParkMachine(FleetMachine& fm, uint64_t wake_tick);
  FleetMachine* PopParked();
  void RetireMachine(FleetMachine& fm);
  uint64_t NextInterarrival(FleetMachine& fm) const;
  FleetStats Aggregate(double wall_seconds) const;

  const FleetConfig config_;
  PlatformProfile platform_;
  Image kernel_;
  FleetServerLayout layout_;
  MachinePool pool_;
  uint64_t ready_tick_ = 0;  // template mtime at the fork point
  std::vector<std::unique_ptr<FleetMachine>> fleet_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Timer heap of parked machines, keyed by wake tick (earliest first). A
  // mutex-protected binary heap: parking is rare relative to slices (one park
  // per guest poll interval), so contention is negligible next to the deques.
  struct Parked {
    uint64_t wake_tick;
    FleetMachine* machine;
  };
  std::mutex park_mutex_;
  std::vector<Parked> parked_;  // std::push_heap/pop_heap, min-heap on wake_tick
  std::atomic<uint64_t> remaining_{0};
};

}  // namespace vfm

#endif  // SRC_FLEET_FLEET_H_
