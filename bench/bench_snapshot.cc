// Snapshot / restore / fork latency (DESIGN.md §2h). Boots a monitored guest once,
// then measures: whole-machine snapshot save and restore latency, Machine::Fork()
// latency and per-fork resident-memory cost over a fleet of forks, and the headline
// ratio — how much cheaper forking a booted machine is than booting a fresh one: the
// median of kForks fresh boots over the median of kForks forks.
// Machine-readable results go to BENCH_snapshot.json (CI uploads it next to
// BENCH_sim_speed.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/log.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

// Resident set size in KiB, from /proc/self/statm (0 where unavailable).
double RssKib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0.0;
  }
  unsigned long vm_pages = 0;
  unsigned long rss_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) {
    return 0.0;
  }
  return static_cast<double>(rss_pages) * 4096.0 / 1024.0;
}

Image ComputeKernel(const PlatformProfile& profile) {
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitPrint("bench_snapshot guest up\n");
  kb.EmitComputeLoop(1'000'000'000, 16);  // effectively endless
  kb.EmitFinish(true);
  return kb.Finish();
}

constexpr uint64_t kBootBudget = 200'000;  // firmware boot + kernel steady state
constexpr unsigned kForks = 32;

void Run() {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);

  // -- Baseline: what a fresh boot costs (construction + firmware + kernel entry),
  // sampled as often as a fork. The last booted system is the one snapshotted and
  // forked below.
  std::vector<double> boot_samples;
  std::optional<System> booted;
  for (unsigned i = 0; i < kForks; ++i) {
    booted.reset();  // teardown is not part of a boot
    const Clock::time_point boot_t0 = Clock::now();
    booted.emplace(BootSystem(profile, DeployMode::kMiralis, ComputeKernel(profile)));
    booted->machine->RunUntilFinished(kBootBudget);
    boot_samples.push_back(SecondsSince(boot_t0));
  }
  System& system = *booted;

  // -- Snapshot save: first save freezes RAM (fd transfer, no copy), repeat saves
  // of the quiescent machine reuse the frozen images outright.
  const Clock::time_point save_t0 = Clock::now();
  Snapshot snapshot;
  system.machine->SaveSnapshot(snapshot);
  const double save_seconds = SecondsSince(save_t0);
  const Clock::time_point resave_t0 = Clock::now();
  Snapshot snapshot2;
  system.machine->SaveSnapshot(snapshot2);
  const double resave_seconds = SecondsSince(resave_t0);

  // -- Restore into a freshly constructed machine.
  const Clock::time_point restore_t0 = Clock::now();
  Machine restored(system.machine->config());
  if (!restored.RestoreSnapshot(snapshot)) {
    std::fprintf(stderr, "bench_snapshot: restore failed\n");
    return;
  }
  const double restore_seconds = SecondsSince(restore_t0);

  // -- Fork fleet: latency per fork and resident-memory growth per fork. Each child
  // is immediately run a little so lazily allocated caches and CoW materialization
  // show up in the per-fork cost, not hidden until first use.
  std::vector<std::unique_ptr<Machine>> fleet;
  fleet.reserve(kForks);
  std::vector<double> fork_samples;
  const double rss_before_kib = RssKib();
  for (unsigned i = 0; i < kForks; ++i) {
    const Clock::time_point fork_t0 = Clock::now();
    fleet.push_back(system.machine->Fork());
    fork_samples.push_back(SecondsSince(fork_t0));
  }
  uint64_t fleet_instructions = 0;
  for (const std::unique_ptr<Machine>& child : fleet) {
    const uint64_t before = child->total_instret();
    child->RunUntilFinished(1'000);
    fleet_instructions += child->total_instret() - before;
  }
  const double rss_after_kib = RssKib();

  const double fork_us = Median(fork_samples) * 1e6;
  const double boot_us = Median(boot_samples) * 1e6;
  const double speedup = fork_us > 0 ? boot_us / fork_us : 0.0;
  const double per_fork_rss_kib =
      rss_after_kib > rss_before_kib ? (rss_after_kib - rss_before_kib) / kForks : 0.0;

  PrintHeader("bench_snapshot", "whole-machine snapshot, restore, and CoW fork");
  std::printf("fresh boot (median of %u):                    %10.1f us\n", kForks, boot_us);
  std::printf("snapshot save (first, freezes RAM):          %10.1f us\n",
              save_seconds * 1e6);
  std::printf("snapshot save (repeat, quiescent):           %10.1f us\n",
              resave_seconds * 1e6);
  std::printf("snapshot restore (fresh machine):            %10.1f us\n",
              restore_seconds * 1e6);
  std::printf("fork (median of %u):                         %10.1f us\n", kForks, fork_us);
  std::printf("per-fork RSS after running 1k instructions:  %10.1f KiB\n",
              per_fork_rss_kib);
  std::printf("fork vs fresh boot:                          %10.1fx cheaper\n", speedup);
  std::printf("fleet sanity: %u children retired %llu instructions total\n", kForks,
              static_cast<unsigned long long>(fleet_instructions));
  PrintFooter("motivation of DESIGN.md §2h: fleet-scale boots amortized via CoW fork");

  JsonResultWriter json("snapshot");
  json.Add("boot_us", boot_us);
  json.Add("save_us", save_seconds * 1e6);
  json.Add("resave_us", resave_seconds * 1e6);
  json.Add("restore_us", restore_seconds * 1e6);
  json.Add("fork_us", fork_us);
  json.Add("per_fork_rss_kib", per_fork_rss_kib);
  json.Add("fork_vs_boot_speedup", speedup);
  json.Add("forks", kForks);
  const char* path = "BENCH_snapshot.json";
  if (json.WriteTo(path)) {
    std::printf("wrote %s (fork %.1f us, %.0fx cheaper than boot)\n", path, fork_us,
                speedup);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

}  // namespace
}  // namespace vfm

int main() {
  vfm::SetLogLevel(vfm::LogLevel::kError);  // budget-bounded runs are expected
  vfm::Run();
  return 0;
}
