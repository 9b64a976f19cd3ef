// Benchmark binary. Runs one workload (or `all`), prints a readable
// breakdown, and ends its standard output with one JSON result line:
//
//   vfm_perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//                 [--trace-out FILE] [--expected FILE] [--print-signature]
//
// --selftest-fail-guest makes the code_patch guest exit non-zero (selftest.py).
//
// Exit status: 0 when every output check passed, 1 when one failed (the result
// line is still printed, with "correct": false), 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: vfm_perfbench --workload <name|all> [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--expected FILE] [--print-signature]\n");
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 0);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vfm::perfbench;
  Options options;
  std::string expected_path;
  bool print_signature = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--print-signature") {
      print_signature = true;
      continue;
    }
    if (arg == "--selftest-fail-guest") {
      options.fail_guest = true;
      continue;
    }
    if (!has_value) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed" && ParseU64(value, &number)) {
      options.seed = number;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || options.seconds < 0) {
        Usage();
        return 2;
      }
    } else if (arg == "--trace" && ParseU64(value, &number) && number <= 1) {
      options.trace = number == 1;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--expected") {
      expected_path = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.workload.empty()) {
    Usage();
    return 2;
  }
  if (!expected_path.empty() && !LoadExpected(expected_path, &options.expected)) {
    std::fprintf(stderr, "cannot read stored signatures from %s\n", expected_path.c_str());
    return 2;
  }

  std::vector<std::string> workloads = {options.workload};
  if (options.workload == "all") {
    workloads = WorkloadNames();
  }
  // With several workloads the result line prefixes each metric with its workload.
  Report combined;
  const std::string trace_out = options.trace_out;
  for (const std::string& name : workloads) {
    options.workload = name;
    if (!trace_out.empty() && workloads.size() > 1) {
      options.trace_out = trace_out + "." + name + ".json";
    }
    const Report report = RunWorkload(options);
    std::printf("== %s (seed %llu, %s)\n", name.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced");
    for (const std::string& note : report.notes) {
      std::printf("   %s\n", note.c_str());
    }
    for (const Metric& m : report.metrics) {
      std::printf("   %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("   %-34s %16.6f ratio  (%llu of %llu operations)\n", "failed_ratio",
                report.attempted ? static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted)
                                 : 1.0,
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    if (print_signature) {
      std::printf("   signature %s %016llx\n", name.c_str(),
                  static_cast<unsigned long long>(report.signature));
    }
    for (const std::string& e : report.errors) {
      std::printf("   FAILED: %s\n", e.c_str());
      std::fprintf(stderr, "%s: %s\n", name.c_str(), e.c_str());
    }
    std::fflush(stdout);
    if (workloads.size() == 1) {
      combined = report;
      break;
    }
    combined.correct = combined.correct && report.correct;
    combined.attempted += report.attempted;
    combined.failed += report.failed;
    for (const Metric& m : report.metrics) {
      combined.metrics.push_back({name + "." + m.name, m.value, m.unit});
    }
  }
  std::printf("%s\n", ReportJson(combined).c_str());
  return combined.correct ? 0 : 1;
}
