// Fleet executor benchmark (DESIGN.md §2k): scales the machine count and
// request rate across a matrix of fleet runs and reports fleet-aggregate MIPS,
// request throughput, and end-to-end request latency percentiles (p50/p99/
// p99.9, coordinated-omission-free: measured from the *scheduled* arrival).
//
// Cells:
//   - single-machine baseline (the same fleet-server guest, alone)
//   - 64 machines at 1 worker vs all-core workers -> work-stealing speedup
//   - request-rate sweep at 64 machines (closed burst, 2k, 8k tick means)
//   - machine-count sweep 64 / 256 / 1024 at the default rate
//
// `--smoke` runs only the baseline + 64-machine cells (the CI perf-smoke set).
// Writes BENCH_fleet.json. Note: the 1w-vs-Nw speedup is only meaningful on a
// multi-core host; CI gates it behind an nproc check.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/log.h"
#include "src/fleet/fleet.h"

namespace vfm {
namespace {

struct Cell {
  std::string label;
  FleetStats stats;
  unsigned workers = 1;
};

FleetConfig BaseConfig() {
  FleetConfig config;
  config.requests_per_machine = 8;
  config.mean_interarrival_ticks = 2000;
  return config;
}

Cell RunCell(const std::string& label, FleetConfig config) {
  FleetManager manager(config);
  Cell cell;
  cell.label = label;
  cell.workers = config.workers;
  cell.stats = manager.Run();
  const FleetStats& s = cell.stats;
  double util = 0;
  for (double b : s.worker_busy_seconds) {
    util += s.wall_seconds > 0 ? b / s.wall_seconds : 0;
  }
  util = s.worker_busy_seconds.empty() ? 0 : util / s.worker_busy_seconds.size();
  std::printf(
      "%-26s %5llu mach %2u w  %8.2f MIPS %8.0f req/s  p50 %7.1f  p99 %7.1f  "
      "p99.9 %7.1f us  steals %6llu  util %4.0f%%\n",
      label.c_str(), static_cast<unsigned long long>(s.machines), cell.workers,
      s.fleet_mips, s.requests_per_host_sec, s.p50_us, s.p99_us, s.p999_us,
      static_cast<unsigned long long>(s.steals), util * 100);
  return cell;
}

void Run(bool smoke) {
  const unsigned hw = std::thread::hardware_concurrency() > 0
                          ? std::thread::hardware_concurrency()
                          : 1;

  PrintHeader("bench_fleet",
              "machine-fleet executor: work-stealing batch scheduling");
  std::printf("host cores: %u  (speedup cells need >1 to mean anything)\n\n", hw);

  // Single-machine baseline: the same guest and request schedule, alone. The
  // fleet-vs-single gate asks the executor to at least batch away the
  // per-machine scheduling overhead across a fleet.
  FleetConfig base = BaseConfig();
  base.machines = 1;
  base.workers = 1;
  base.requests_per_machine = 64;  // enough requests for a stable MIPS figure
  const Cell single = RunCell("single-machine baseline", base);

  FleetConfig f64 = BaseConfig();
  f64.machines = 64;
  f64.workers = 1;
  const Cell c64_1w = RunCell("fleet 64 x 1 worker", f64);
  f64.workers = hw;
  const Cell c64_nw = RunCell("fleet 64 x all cores", f64);

  if (c64_1w.stats.DeterministicSignature() !=
      c64_nw.stats.DeterministicSignature()) {
    std::fprintf(stderr,
                 "FATAL: 1-worker and %u-worker runs diverged (signature "
                 "%016llx vs %016llx)\n",
                 hw,
                 static_cast<unsigned long long>(
                     c64_1w.stats.DeterministicSignature()),
                 static_cast<unsigned long long>(
                     c64_nw.stats.DeterministicSignature()));
    std::exit(1);
  }

  const uint64_t kRates[] = {0, 2000, 8000};
  std::vector<Cell> rate_cells;
  std::vector<Cell> scale_cells;
  if (!smoke) {
    for (uint64_t rate : kRates) {
      FleetConfig rc = BaseConfig();
      rc.machines = 64;
      rc.workers = hw;
      rc.mean_interarrival_ticks = rate;
      rate_cells.push_back(
          RunCell("fleet 64, rate " + std::to_string(rate), rc));
    }
    for (unsigned machines : {256u, 1024u}) {
      FleetConfig sc = BaseConfig();
      sc.machines = machines;
      sc.workers = hw;
      scale_cells.push_back(
          RunCell("fleet " + std::to_string(machines), sc));
    }
  }

  const double speedup = c64_1w.stats.fleet_mips > 0
                             ? c64_nw.stats.fleet_mips / c64_1w.stats.fleet_mips
                             : 0;
  std::printf("\n64-machine fleet speedup %u workers vs 1: %.2fx\n", hw, speedup);
  PrintFooter("ROADMAP item 2: fleets of simulated machines behind one frontend");

  JsonResultWriter json("fleet");
  json.Add("host_cores", hw);
  json.Add("single_machine_mips", single.stats.fleet_mips);
  json.Add("fleet64_mips_1w", c64_1w.stats.fleet_mips);
  json.Add("fleet64_mips_nw", c64_nw.stats.fleet_mips);
  json.Add("fleet64_speedup", speedup);
  json.Add("fleet64_p50_us", c64_nw.stats.p50_us);
  json.Add("fleet64_p99_us", c64_nw.stats.p99_us);
  json.Add("fleet64_req_per_sec", c64_nw.stats.requests_per_host_sec);
  json.Add("fleet64_steals", static_cast<double>(c64_nw.stats.steals));
  // Host code-cache counters of the same cell. They depend only on each machine's
  // instruction stream, so they are deterministic and CI gates on them.
  const FleetStats& s64 = c64_nw.stats;
  json.Add("fleet64_decode_hits", static_cast<double>(s64.decode_hits));
  json.Add("fleet64_decode_misses", static_cast<double>(s64.decode_misses));
  json.Add("fleet64_superblock_hits", static_cast<double>(s64.superblock_hits));
  json.Add("fleet64_superblock_misses", static_cast<double>(s64.superblock_misses));
  json.Add("fleet64_promotions", static_cast<double>(s64.promotions));
  json.Add("decode_misses_per_request",
           s64.requests_completed > 0 ? static_cast<double>(s64.decode_misses) /
                                            static_cast<double>(s64.requests_completed)
                                      : 0);
  for (size_t i = 0; i < rate_cells.size(); ++i) {
    const std::string prefix = "rate" + std::to_string(kRates[i]) + "_";
    json.Add(prefix + "p50_us", rate_cells[i].stats.p50_us);
    json.Add(prefix + "p99_us", rate_cells[i].stats.p99_us);
    json.Add(prefix + "req_per_sec", rate_cells[i].stats.requests_per_host_sec);
  }
  for (const Cell& cell : scale_cells) {
    const std::string prefix =
        "fleet" + std::to_string(cell.stats.machines) + "_";
    json.Add(prefix + "mips", cell.stats.fleet_mips);
    json.Add(prefix + "p50_us", cell.stats.p50_us);
    json.Add(prefix + "p99_us", cell.stats.p99_us);
    json.Add(prefix + "p999_us", cell.stats.p999_us);
    json.Add(prefix + "req_per_sec", cell.stats.requests_per_host_sec);
    json.Add(prefix + "steals", static_cast<double>(cell.stats.steals));
  }
  const char* path = "BENCH_fleet.json";
  if (json.WriteTo(path)) {
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

}  // namespace
}  // namespace vfm

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  vfm::SetLogLevel(vfm::LogLevel::kError);
  vfm::Run(smoke);
  return 0;
}
