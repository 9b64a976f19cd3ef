// The simulated machine: harts, bus, CLINT, PLIC, UART, optional block device, a
// test-finisher, and the M-mode owner hook through which the monitor takes ownership
// of machine mode (paper §4.1 execution model: M-mode handlers run to completion with
// interrupts disabled).

#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/dev/blockdev.h"
#include "src/dev/clint.h"
#include "src/dev/plic.h"
#include "src/dev/uart.h"
#include "src/mem/bus.h"
#include "src/sim/config.h"
#include "src/sim/hart.h"
#include "src/trace/trace.h"

namespace vfm {

// Native C++ code that owns machine mode. When installed, a trap that vectors to
// M-mode is delivered to the owner instead of executing guest code at mtvec. The owner
// manipulates the hart through its architectural interface and must leave it in the
// state an M-mode handler would (typically by performing an mret-equivalent).
class MmodeOwner {
 public:
  virtual ~MmodeOwner() = default;
  virtual void OnMachineTrap(Hart& hart) = 0;
};

// Physical memory map shared by the platform profiles. Machine construction
// validates that the enabled regions are pairwise disjoint (silent aliasing would
// route accesses to whichever window registered first).
struct MemoryMap {
  uint64_t ram_base = 0x8000'0000;
  uint64_t ram_size = 128ull << 20;
  uint64_t clint_base = 0x200'0000;
  uint64_t plic_base = 0xC00'0000;
  uint64_t uart_base = 0x1000'0000;
  uint64_t blockdev_base = 0x1001'0000;
  uint64_t finisher_base = 0x10'0000;
};

// Block-device instantiation knobs (device model parameters live with the device
// they configure; the map above owns only its MMIO window).
struct BlockdevConfig {
  bool enabled = false;
  uint64_t sectors = 16384;        // disk capacity in 512-byte sectors
  uint64_t latency_ticks = 20;     // fixed command setup latency (device ticks)
  uint64_t ticks_per_sector = 2;   // per-sector transfer time (device ticks)
};

struct MachineConfig {
  unsigned hart_count = 1;
  HartIsaConfig isa;
  CostModel cost;
  SimTuning tuning;  // host-side speed knobs; no effect on simulated behaviour
  MemoryMap map;
  BlockdevConfig blockdev;
};

// The SiFive-style test finisher: a store of kFinishPass/kFinishFail powers off the
// machine. Used by kernels and firmware to terminate simulations.
class Finisher : public MmioDevice {
 public:
  static constexpr uint64_t kSize = 0x1000;
  static constexpr uint32_t kFinishPass = 0x5555;
  static constexpr uint32_t kFinishFail = 0x3333;

  const char* name() const override { return "finisher"; }
  bool MmioRead(uint64_t offset, unsigned size, uint64_t* value) override;
  bool MmioWrite(uint64_t offset, unsigned size, uint64_t value) override;
  void SaveState(StateWriter& writer) const override;
  bool LoadState(StateReader& reader) override;

  bool finished() const { return finished_; }
  uint32_t exit_code() const { return exit_code_; }

 private:
  bool finished_ = false;
  uint32_t exit_code_ = 0;
};

// A whole-machine snapshot (DESIGN.md §2h): one tagged-section state stream holding
// every hart, the bus section, and every device (in bus registration order), plus
// the RAM contents as refcounted copy-on-write images — many machines restored from
// the same snapshot share RAM pages until they diverge. Snapshots are
// machine-independent values: save on one Machine, restore on any other constructed
// from the same MachineConfig.
struct Snapshot {
  std::vector<uint8_t> state;
  std::vector<std::shared_ptr<RamImage>> ram;  // one per bus RAM region, in order
};

// The simulated-behaviour-relevant configuration fingerprint (hart count, memory
// map, ISA, block device — host tuning deliberately excluded), shared by snapshot
// restore and trace replay: both artifacts embed it at save/record time and both
// load paths reject a mismatch the same way. Check* Fail()s the reader with a
// message naming `what` ("snapshot", "trace") on any mismatch.
void WriteConfigFingerprint(StateWriter& writer, const MachineConfig& config);
void CheckConfigFingerprint(StateReader& reader, const MachineConfig& config,
                            const char* what);

// The invariants a Machine needs of its config: at least one hart, a nonzero mtime
// tick, instr_base >= 1 when the block tier is on, and pairwise-disjoint memory map
// regions. The constructor aborts on a violation; ReadMachineConfig rejects one.
// On failure `*error` says which invariant broke.
bool ValidateMachineConfig(const MachineConfig& config, std::string* error);

// Full MachineConfig serialization (fingerprint fields plus cost model and tuning),
// used by snapshot *files* so tools can reconstruct a Machine from the file alone.
void WriteMachineConfig(StateWriter& writer, const MachineConfig& config);
bool ReadMachineConfig(StateReader& reader, MachineConfig* config);

// Snapshot file I/O: the in-memory Snapshot (state stream + RAM images), prefixed
// with the full MachineConfig and followed by an opaque caller blob (`aux` — e.g.
// serialized monitor state for monitored machines). Returns false on I/O or
// format errors; `config`/`aux` may be nullptr when the caller does not need them.
bool WriteSnapshotFile(const std::string& path, const MachineConfig& config,
                       const Snapshot& snapshot,
                       const std::vector<uint8_t>& aux = {});
bool ReadSnapshotFile(const std::string& path, MachineConfig* config,
                      Snapshot* snapshot, std::vector<uint8_t>* aux = nullptr);

// Outcome of Machine::ReplayFrom (DESIGN.md §2j). `error` reports rejection before
// or during replay (bad trace, fingerprint mismatch, malformed event stream);
// `diverged` reports a verified divergence at the first mismatching coordinate.
// `hart` identifies the first mismatching hart's state hash; hart == hart_count
// means the device-state (or RAM) hash diverged.
struct ReplayResult {
  bool ok = false;       // replay ran to the end of the trace with zero divergence
  bool diverged = false;
  uint32_t hart = 0;     // first-divergence coordinate, valid when diverged
  uint64_t retired = 0;
  uint64_t round = 0;
  std::string detail;    // human-readable divergence description
  std::string error;     // non-divergence failure, empty otherwise
  uint64_t events_applied = 0;
  uint64_t hashes_checked = 0;
};

// One-line human-readable summary of a replay verdict: "ok", "diverged at hart H
// (retired N, round M): <detail>", or the error.
std::string DescribeReplay(const ReplayResult& result);

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();  // parks and joins the parallel-hart worker pool, if one was created

  const MachineConfig& config() const { return config_; }
  Bus& bus() { return bus_; }
  Clint& clint() { return *clint_; }
  Plic& plic() { return *plic_; }
  Uart& uart() { return *uart_; }
  BlockDev* blockdev() { return blockdev_.get(); }
  Finisher& finisher() { return *finisher_; }

  unsigned hart_count() const { return static_cast<unsigned>(harts_.size()); }
  Hart& hart(unsigned index) { return *harts_[index]; }
  const Hart& hart(unsigned index) const { return *harts_[index]; }

  // Installs (or removes, with nullptr) the M-mode owner.
  void SetMmodeOwner(MmodeOwner* owner) { owner_ = owner; }
  MmodeOwner* mmode_owner() const { return owner_; }

  // Loads a byte image into RAM.
  bool LoadImage(uint64_t addr, const std::vector<uint8_t>& image);

  // Runs one round: each hart ticks once, device lines are refreshed, mtime advances.
  // Returns the number of instructions retired this round (executed ticks that did
  // not trap), so run loops can track budgets incrementally instead of re-summing
  // every hart's minstret each round.
  uint64_t StepAll();

  // Runs until the finisher fires or `max_instructions` retire (across all harts).
  // Returns true if the machine finished (as opposed to hitting the budget).
  // Single-hart machines run batched (Hart::RunBatch): device/timer bookkeeping runs
  // only at batch boundaries, which RunBatch's stop conditions make behaviour- and
  // cycle-identical to per-instruction StepAll rounds. Multi-hart machines with
  // tuning.quantum_harts or tuning.parallel_harts set run the deterministic quantum
  // schedule instead (DESIGN.md §2i): each hart privately executes a segment up to
  // the next mtime-tick boundary — serially in hart order, or concurrently on the
  // worker pool, bit-identically — and all cross-hart effects apply at the barrier
  // in canonical hart order.
  bool RunUntilFinished(uint64_t max_instructions);

  // Runs until `predicate` returns true, the finisher fires, or the budget runs out.
  bool RunUntil(const std::function<bool()>& predicate, uint64_t max_instructions);

  // Exact-resume run variants. A run with instruction budget B is bounded by B
  // retired instructions AND 4*B rounds; splitting it at an instruction boundary
  // (snapshot, then resume on a restored machine) reproduces the uninterrupted run
  // bit-identically only if the resumed leg inherits the *remaining* budget and
  // round allowance. These overloads expose both bounds and report the amounts
  // consumed, so callers can thread them across a save/restore split:
  //   phase 1: RunUntil(pred, B, 4*B, &p)          — stop at the snapshot point
  //   phase 2: RunUntilFinished(B - p.retired, 4*B - p.rounds, &q)
  struct RunProgress {
    uint64_t retired = 0;
    uint64_t rounds = 0;
  };
  bool RunUntilFinished(uint64_t max_instructions, uint64_t max_rounds,
                        RunProgress* progress);
  bool RunUntil(const std::function<bool()>& predicate, uint64_t max_instructions,
                uint64_t max_rounds, RunProgress* progress);

  // -- Non-blocking scheduling hooks (fleet executor, DESIGN.md §2k). ---------------
  // True when every hart is parked in WFI with no enabled interrupt pending: the
  // machine cannot make progress until a timer/device edge arrives or the host
  // injects input. Refreshes device interrupt lines before deciding.
  bool IdleParked();

  // Earliest future event, in mtime ticks, that can wake an idle machine on its
  // own — a CLINT mtimecmp, an Sstc stimecmp, or the block-device completion
  // deadline: the same (conservative) candidate scan FastForwardIdle runs.
  // Returns false when no future edge exists, i.e. nothing short of host input
  // will ever wake the machine. Cheap — reads comparators, steps nothing — so
  // schedulers can park machines on this deadline without running them.
  bool NextDeadline(uint64_t* wake_tick) const;

  // Fast-forwards an idle-parked machine to `target_tick` (absolute mtime tick),
  // or to its own earlier wake edge, whichever comes first, with the exact
  // idle-cycle parity of FastForwardIdle. Returns the rounds skipped; 0 when the
  // machine is not idle-parked or the target is not in the future. Recorded as a
  // run event when a recording is active (it advances the trace coordinate).
  uint64_t FastForwardIdleTo(uint64_t target_tick);

  // One non-blocking scheduler slice: runs like RunUntilFinished, but stops —
  // without fast-forwarding, and without the budget-exhausted warning — as soon
  // as the whole machine idle-parks. A fleet executor alternates RunSlice with
  // NextDeadline/FastForwardIdleTo parking instead of burning slice budget on
  // idle rounds. max_rounds == 0 means the usual 4 * max_instructions allowance.
  struct SliceResult {
    uint64_t retired = 0;
    uint64_t rounds = 0;
    bool finished = false;  // the finisher fired
    bool idle = false;      // stopped because the machine idle-parked
  };
  SliceResult RunSlice(uint64_t max_instructions, uint64_t max_rounds = 0);

  // -- Whole-machine snapshot and copy-on-write fork (DESIGN.md §2h). ---------------
  // Captures the complete simulated-machine state. Non-const: RAM regions freeze
  // into CoW images (contents are unchanged; repeated saves of an unmodified
  // machine reuse the same images). Host-side wiring — the M-mode owner, trap
  // observer, tuning, and every translation cache — is not part of a snapshot.
  void SaveSnapshot(Snapshot& snapshot);
  // Restores a snapshot taken from a machine with an identical MachineConfig
  // fingerprint (hart count, memory map, ISA, block device). Returns false — with
  // a warning logged — on a mismatched or corrupt snapshot; the machine must then
  // be discarded (device state may have partially loaded). On success every
  // translation cache is invalidated via the generation stamps and RAM rebinds to
  // the snapshot's images without copying.
  bool RestoreSnapshot(const Snapshot& snapshot);
  // SaveSnapshot + a fresh Machine + RestoreSnapshot: a copy-on-write clone of this
  // machine. The child shares RAM pages with the parent (and its snapshot) until
  // either side writes; its RAM is built as a view of the snapshot's images from the
  // start, so the restore has no backing of its own to replace. The child has no
  // M-mode owner or trap observer installed.
  std::unique_ptr<Machine> Fork();

  // -- Deterministic record/replay (DESIGN.md §2j). ---------------------------------
  // Machine-lifetime progress: instructions retired and rounds executed since
  // construction, across all run calls. Part of the snapshot (restore adopts the
  // saved values), so the (retired, round) coordinate system traces are stamped
  // with survives a save/restore split.
  RunProgress progress() const { return {lifetime_retired_, lifetime_rounds_}; }
  // Quanta the quantum schedule (DESIGN.md §2i) has run on this machine. Reporting
  // only: no snapshot, replay coordinate or signature includes it.
  uint64_t quanta() const { return quanta_; }

  static constexpr uint64_t kDefaultHashPeriodRounds = 2048;

  // Starts recording every external input — run calls with their budgets, UART
  // input, PLIC line injections, host time pokes, LoadImage writes, snapshot
  // points — plus a verification checkpoint (rolling state hash) every
  // `hash_period_rounds` rounds and every block-device completion edge. Inputs
  // must be injected through the Inject* wrappers below while recording. Returns
  // false if already recording or replaying. The trace is anchored at the
  // machine's current progress: pair it with a SaveSnapshot taken at the same
  // point (before StartRecording) to make a self-contained repro artifact.
  bool StartRecording(const std::string& path,
                      uint64_t hash_period_rounds = kDefaultHashPeriodRounds);
  // Finalizes the recording (appends the end-of-trace checkpoint: state hashes
  // plus full RAM and disk hashes), writes it to the StartRecording path (skipped
  // when the path was empty), and optionally returns the bytes. Returns false if
  // not recording or the file write failed.
  bool StopRecording(std::vector<uint8_t>* trace_out = nullptr);
  bool recording() const { return recorder_ != nullptr; }

  // Host input injection, recorded when a recording is active. These are the
  // record/replay-aware forms of uart().PushInput(), plic().RaiseSource()/
  // ClearSource(), and clint().set_mtime(); hosts that want their inputs replayed
  // must use them. Safe (and equivalent to the direct calls) when not recording.
  void InjectUartInput(const std::string& bytes);
  void InjectPlicLine(unsigned source, bool level);
  void InjectHostTime(uint64_t mtime);

  // Restores `snapshot`, then re-executes the recorded run calls, re-injecting
  // every input at its recorded (retired, round) coordinate and verifying each
  // checkpoint. Stops at the first divergence and reports its coordinate (see
  // ReplayResult). The trace's config fingerprint must match this machine
  // (tuning excluded: replaying a trace under a different tuning is exactly how
  // cross-schedule divergences are localized). `post_restore`, when set, runs
  // after the snapshot restore and before any event is applied — monitored
  // machines restore their monitor state there; returning false aborts.
  ReplayResult ReplayFrom(const Snapshot& snapshot,
                          const std::vector<uint8_t>& trace,
                          const std::function<bool()>& post_restore = nullptr);

  // Total cycles elapsed on hart 0's clock (the machine reference clock).
  uint64_t cycles() const { return harts_[0]->cycles(); }
  uint64_t total_instret() const;

  // Observer invoked on every trap taken by any hart (statistics; Fig. 3).
  using TrapObserver = std::function<void(const Hart&, const StepResult&)>;
  void SetTrapObserver(TrapObserver observer) { trap_observer_ = std::move(observer); }

  // Charges extra cycles to a hart's clock (the monitor HAL uses this to model the
  // cost of monitor code, see DESIGN.md "Cycle model").
  void ChargeCycles(unsigned hart_index, uint64_t cycles) {
    harts_[hart_index]->csrs().AddCycles(cycles);
  }

 private:
  // Fork's constructor: RAM starts from the image `ram` when it is non-null.
  Machine(const MachineConfig& config, std::shared_ptr<RamImage> ram);

  void RefreshInterruptLines();

  // Bodies of the public run entry points. The public wrappers bracket them with
  // the kRun/kRunDone trace events when a recording is active; the wrappers nest
  // (multi-hart RunUntilFinished delegates to RunUntil, RunUntil steps via
  // StepAll), so only the outermost call of a recording machine is traced.
  bool RunUntilFinishedInner(uint64_t max_instructions, uint64_t max_rounds,
                             RunProgress* progress);
  bool RunUntilInner(const std::function<bool()>& predicate, uint64_t max_instructions,
                     uint64_t max_rounds, RunProgress* progress);

  // -- Record/replay internals (DESIGN.md §2j). -------------------------------------
  struct Recorder;
  struct ReplayCursor;
  bool BeginTracedRun(TraceRunKind kind, uint64_t a, uint64_t b);
  void EndTracedRun();
  void RecordEvent(TraceEvent event);  // stamps the current coordinate, appends
  // The per-barrier hook, called at every point the run loops return to serial
  // machine-global state (end of a StepAll round, a single-hart batch boundary, a
  // quantum barrier). Recording: emits blockdev-completion edges and periodic
  // state-hash checkpoints. Replay: consumes and verifies the checkpoints that
  // fall due at the current coordinate.
  void TraceBarrier();
  void ReplayConsumeCheckpoints();
  void VerifyCheckpoint(const TraceEvent& event);
  void ExecuteReplayRun(const TraceEvent& run);
  void ReplayDiverge(uint32_t hart, const TraceEvent& event, const std::string& detail);
  uint64_t HashHartState(const Hart& hart) const;
  uint64_t HashDeviceState() const;
  std::vector<uint8_t> StateHashPayload() const;  // per-hart hashes + device hash
  uint64_t HashRam() const;
  uint64_t HashBlockdevFull() const;

  // The quantum run loop (DESIGN.md §2i), dispatched from RunUntilFinished for
  // multi-hart machines when tuning.quantum_harts or tuning.parallel_harts is set.
  // Per quantum: interrupt lines refresh, every hart privately executes a segment
  // bounded by the batch cap and the next mtime-tick boundary (on its own clock),
  // then the barrier applies cross-hart effects in canonical hart order — buffered
  // stores, trap observer/owner callbacks, sync-pending tick replays, the mtime
  // advance from hart 0's clock, and the block-device tick. parallel_harts runs the
  // segments on the worker pool; the result is bit-identical to the serial order
  // because segments only read frozen shared state (the barrier code is literally
  // the same). SaveSnapshot/Fork need no special quiesce: workers only run inside
  // the segment window of this loop, so any caller-visible moment is a barrier.
  bool RunQuantumLoop(uint64_t max_instructions, uint64_t max_rounds, RunProgress* progress);

  // Parallel-hart worker pool, created lazily on the first parallel quantum. One
  // worker per hart 1..n-1 (the calling thread runs hart 0's segment). Epoch
  // protocol: the coordinator publishes the per-quantum work under the mutex and
  // bumps `epoch`; workers run their hart's segment and count into `done`. The
  // mutex/condvar handoff establishes happens-before for everything a segment
  // reads and writes.
  struct WorkerPool {
    std::mutex mutex;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    uint64_t epoch = 0;
    unsigned done = 0;
    uint64_t batch = 0;  // segment instruction cap this quantum
    bool shutdown = false;
    std::vector<uint64_t> stops;  // per-hart absolute stop cycle, indexed by hart
    std::vector<std::thread> threads;
  };
  void EnsurePool();
  void WorkerMain(unsigned hart_index);

  // WFI fast-forward: when every hart is parked with nothing pending, jumps all
  // clocks straight to the earliest future wake candidate (a timer comparator or the
  // block device deadline) instead of burning one round per idle cycle. Each skipped
  // round charges exactly the one cycle per hart a parked StepAll round would, so the
  // wake lands on the identical cycle count. Skips at most `max_rounds` rounds (the
  // caller's remaining round budget, or a tighter cap); returns the rounds skipped,
  // 0 when any hart is runnable or an enabled interrupt is already pending.
  uint64_t FastForwardIdle(uint64_t max_rounds);

  MachineConfig config_;
  Bus bus_;
  std::unique_ptr<Clint> clint_;
  std::unique_ptr<Plic> plic_;
  std::unique_ptr<Uart> uart_;
  std::unique_ptr<BlockDev> blockdev_;
  std::unique_ptr<Finisher> finisher_;
  std::vector<std::unique_ptr<Hart>> harts_;
  MmodeOwner* owner_ = nullptr;
  TrapObserver trap_observer_;
  std::unique_ptr<WorkerPool> pool_;
  // Machine-lifetime progress counters (see progress()); serialized in snapshots.
  uint64_t lifetime_retired_ = 0;
  uint64_t lifetime_rounds_ = 0;
  std::unique_ptr<Recorder> recorder_;  // non-null while recording
  ReplayCursor* replay_ = nullptr;      // non-null while ReplayFrom is running
  bool in_traced_run_ = false;          // a kRun event is open (outermost run call)
  // RunSlice mode: the run loops stop at whole-machine idle instead of
  // fast-forwarding, and budget exhaustion is an expected stop, not a warning.
  bool slice_idle_stop_ = false;
  bool slice_went_idle_ = false;
  // True exactly while hart segments are in flight; the Bus/Clint barrier-ordering
  // asserts point here during the quantum loop (written only at serial points; the
  // pool's mutex handoff publishes it to workers).
  bool segment_in_flight_ = false;
  uint64_t quanta_ = 0;  // see quanta()
};

}  // namespace vfm

#endif  // SRC_SIM_MACHINE_H_
