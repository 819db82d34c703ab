// Benchmark program: runs one workload for a timed phase, checks every
// answer against a conventional reference, and prints one JSON result line
// last on stdout (see ../README.md for the metrics and workloads).
//
//   perfbench --workload sssp_scale --seed 1 --seconds 10 --trace 0 --out DIR
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// records spans around every library call, writes DIR/<workload>-seed<n>
// .trace.json plus a .selftime.tsv table, and reports per-layer metrics.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload serve_mix|sssp_scale|sssp_sharded"
               " --seed N --seconds S --trace 0|1 [--out DIR]\n";
  return 2;
}

// Prints the metrics of `specs` in order; a metric the workload did not
// set is 0 (its layer is not on this workload's path).
void print_result(const perfbench::RunResult& r,
                  const std::vector<perfbench::MetricSpec>& specs) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = r.values.find(specs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name,
                it == r.values.end() ? 0.0 : it->second, specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !(opt.seconds > 0.0)) return usage();

  // Confine the workload, and every thread it starts, to the CPU it
  // started on (README.md, "Noise and bounds"): the reference then runs on
  // the same CPU as the queries it is compared with, and a request handed
  // to a service worker never waits for another virtual CPU to wake.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(sched_getcpu(), &one_cpu);
  if (sched_setaffinity(0, sizeof one_cpu, &one_cpu) != 0) {
    std::cerr << "perfbench: cannot pin to one CPU\n";
    return 1;
  }

  perfbench::RunResult result;
  try {
    if (opt.workload == "serve_mix") {
      result = perfbench::run_serve_mix(opt);
    } else if (opt.workload == "sssp_scale") {
      result = perfbench::run_sssp(opt, /*sharded=*/false);
    } else if (opt.workload == "sssp_sharded") {
      result = perfbench::run_sssp(opt, /*sharded=*/true);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  const auto& specs =
      opt.trace ? perfbench::kPerLayerMetrics : perfbench::kEndToEndMetrics;
  for (const auto& [name, value] : result.values) {
    const bool known =
        std::any_of(specs.begin(), specs.end(),
                    [&name](const auto& s) { return name == s.name; });
    if (!known || !std::isfinite(value)) {
      std::cerr << "perfbench: bad metric " << name << " = " << value << "\n";
      return 1;
    }
  }
  if (!opt.trace && result.values.size() != specs.size()) {
    std::cerr << "perfbench: missing end-to-end metrics\n";
    return 1;
  }
  print_result(result, specs);
  return 0;
}
