// The repository benchmark: host cost of simulating fixed amounts of guest work.
//
// Each workload (see WORKLOADS.md) boots fresh machines through the public
// module APIs, runs a fixed amount of simulated work, and checks the simulated
// outputs against invariants and, where they are seed-independent or the seed is
// the default, against stored signatures. Every number reported is host-side
// (wall seconds, CPU seconds, memory); simulated numbers are only correctness
// checks. The benchmark gives no accuracy figure: the model is checked against
// the paper in EXPERIMENTS.md, and performance changes must leave the
// signatures unchanged.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vfm::perfbench {

constexpr uint64_t kDefaultSeed = 1;

// The workload names, in the order `all` runs them.
const std::vector<std::string>& WorkloadNames();

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  // The measured phase repeats the workload's fixed work for up to this many
  // host seconds: it starts no repetition that would end later, and always
  // completes at least one.
  double seconds = 10;
  // Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON written at exit (trace mode)
  // Stored signatures, keyed by workload name. A workload whose outputs do not
  // depend on the seed is compared on every seed; the others on the default seed
  // only. A workload missing from the map is checked by invariants alone.
  std::map<std::string, uint64_t> expected;
  // Self-test hook (selftest.py): the code_patch guest reports failure to the
  // finisher instead of success.
  bool fail_guest = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;  // guest requests, run legs or patch checks
  uint64_t failed = 0;
  uint64_t signature = 0;  // of the last repetition's simulated outputs
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // why `correct` is false
  std::vector<std::string> notes;   // human-readable per-leg breakdown
};

// Runs one workload. Never exits the process; failures land in the report.
Report RunWorkload(const Options& options);

// Parses `workload hex-signature` lines; '#' starts a comment. Returns false on
// a malformed line or an unreadable file.
bool LoadExpected(const std::string& path, std::map<std::string, uint64_t>* out);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ReportJson(const Report& report);

}  // namespace vfm::perfbench

#endif  // PERFBENCH_PERFBENCH_H_
