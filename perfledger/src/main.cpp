// perfledger: runs one workload and prints its metrics, one per line with
// unit and sample counts, then a JSON summary as the last line of stdout.
//
//   perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer split.
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfledger: %s\n"
               "usage: perfledger --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               why.c_str());
  for (const auto& name : perfledger::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfledger::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, opt.seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 60.0) {
        return usage("--seconds must be in (0, 60]");
      }
    } else if (arg == "--trace") {
      if (!parse_u64(value, n) || n > 1) return usage("--trace must be 0 or 1");
      opt.trace = n == 1;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfledger::Outcome outcome;
  try {
    outcome = perfledger::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfledger: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  for (auto& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      ++outcome.failed;
      outcome.failures.push_back(m.name + " is not finite");
      m.value = 0.0;
    }
  }

  std::printf("perfledger workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const auto& m : outcome.metrics) {
    std::printf("  %-26s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("  operations attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const auto& f : outcome.failures) std::printf("  FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
