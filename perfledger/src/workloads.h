// The ledger's three single-threaded workloads (see BENCHMARK.json for why
// each exists and which layer it stresses or bypasses).
//
// An untraced run (trace = false) times the workload's operations with
// nothing else in the loop and reports the end-to-end metrics. A traced run
// first repeats a short untraced phase for a baseline, then re-times each
// operation with the allocation counter armed and replays the public entry
// points of phy, rfsim, rx, core and net on the same inputs, from this
// program's own code, to split the operation into layers. Every workload
// reports every metric name; a layer the workload bypasses reads 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfledger {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count and tail depth, for timings
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few oracle failures
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0 && attempted > 0; }
};

const std::vector<std::string>& workload_names();
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
Outcome run_workload(const Options& options);

}  // namespace perfledger
