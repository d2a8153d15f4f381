// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <mesh-gpu|roads-par|service-mix> --seed <n>
//             [--seconds <1..60>] [--trace <0|1>] [--trace-dir <dir>]
//
// Each metric is printed as one JSON row carrying the workload's canonical
// configuration string; the last line is the summary object
// {"correct", "attempted", "failed", "metrics"}.  Exit codes: 0 all outputs
// valid, 1 some output invalid, 2 bad arguments.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "bench.hpp"
#include "host.hpp"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <mesh-gpu|roads-par|service-mix> "
               "--seed <n> [--seconds <1..60>] [--trace <0|1>] "
               "[--trace-dir <dir>]\n");
  std::exit(2);
}

unsigned long long parse_uint(const std::string& flag, const std::string& v,
                              unsigned long long lo, unsigned long long hi) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + ": expected a whole number, got \"" + v + "\"");
  }
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE || x < lo || x > hi) {
    usage(flag + " " + v + " out of range [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "]");
  }
  return x;
}

/// JSON string body: the rows only ever carry printable ASCII, but a quote
/// or backslash must not break the line.
std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_dir;
  unsigned long long seed = 0, seconds = 50, trace = 0;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-dir") {
      usage("unknown argument \"" + flag + "\"");
    }
    if (!seen.insert(flag).second) usage(flag + " given twice");
    if (i + 1 >= argc) usage(flag + ": missing value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = parse_uint(flag, v, 0, (1ULL << 53));
    } else if (flag == "--seconds") {
      seconds = parse_uint(flag, v, 1, 60);
    } else if (flag == "--trace") {
      trace = parse_uint(flag, v, 0, 1);
    } else {
      trace_dir = v;
    }
  }
  if (!seen.count("--workload")) usage("--workload is required");
  if (!seen.count("--seed")) usage("--seed is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == workload;
  }
  if (!known) usage("unknown workload \"" + workload + "\"");

  const std::string trace_path =
      trace && !trace_dir.empty()
          ? trace_dir + "/" + workload + "-seed" + std::to_string(seed) +
                ".json"
          : std::string();
  const perfbench::CpuTicks ticks = perfbench::cpu_ticks();
  const perfbench::Report rep = perfbench::run_workload(
      workload, seed, static_cast<double>(seconds), trace != 0, trace_path);
  std::fprintf(stderr, "perfbench: host steal %.1f%% of CPU time\n",
               100.0 * perfbench::steal_share(ticks, perfbench::cpu_ticks()));

  for (const perfbench::Metric& m : rep.metrics) {
    std::printf(
        "{\"config\": \"%s\", \"seed\": %llu, \"metric\": \"%s\", "
        "\"value\": %.17g, \"unit\": \"%s\"}\n",
        escape(rep.config).c_str(), seed, m.name.c_str(), m.value,
        m.unit.c_str());
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "perfbench: invalid output: %s\n", e.c_str());
  }
  if (!trace_path.empty()) {
    std::fprintf(stderr, "perfbench: chrome trace written to %s\n",
                 trace_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.correct() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return rep.correct() ? 0 : 1;
}
