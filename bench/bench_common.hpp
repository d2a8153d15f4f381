// Shared experiment runner for the table/figure benches.
//
// Every reproduction binary runs the same matrix the paper's evaluation
// uses — {Metis, ParMetis, mt-metis, GP-metis} x {ldoor, delaunay,
// hugebubble, usa-roads}, k = 64, 3% imbalance, best of `reps` runs — and
// prints its own view (speedup figure, runtime table, edge-cut table).
//
// CLI flags (all optional):
//   --scale <f>   graph size as a fraction of the paper's (default 1/64)
//   --k <int>     number of parts (default 64, as in the paper)
//   --reps <int>  repetitions; the minimum time is reported (paper: 3)
//   --seed <int>  base RNG seed
//   --graphs a,b  comma-separated subset of the four graph names
// Any other flag is a usage error (exit 2), so a typo cannot silently
// measure the default configuration.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/generators.hpp"

namespace gp::bench {

struct BenchConfig {
  double scale = 1.0 / 64.0;
  part_t k = 64;
  int reps = 2;
  std::uint64_t seed = 1;
  /// GPU->CPU handoff size.  The paper's full-size graphs (1M-24M
  /// vertices) all dwarf the hardware threshold; the scaled-down bench
  /// instances must scale the handoff down with them or the smaller
  /// graphs would never exercise the GPU phases at all.
  vid_t gpu_threshold = 4096;
  /// Device scan/dispatch strategy for the GPU phases (DESIGN.md §3.9).
  GpuScanMode gpu_scan = GpuScanMode::kLookback;
  std::vector<std::string> graphs = {"ldoor", "delaunay", "hugebubble",
                                     "usa-roads"};
};

/// Flag-parse failure: prints the message and exits(2).  Malformed or
/// out-of-range numeric flags must not silently run a degenerate matrix
/// (e.g. `--reps 0` would "succeed" in 0 seconds with no rows).
[[noreturn]] inline void usage_error(const std::string& msg) {
  std::fprintf(stderr, "bench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: bench [--scale <f>] [--k <int>] [--reps <int>] "
               "[--seed <int>] [--gpu-threshold <int>] "
               "[--gpu-scan blocked|lookback] [--graphs a,b,...]\n");
  std::exit(2);
}

inline double parse_numeric_flag(const char* flag, const char* value,
                                 double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (value[0] == '\0' || end == nullptr || *end != '\0') {
    usage_error(std::string(flag) + ": expected a number, got \"" + value +
                "\"");
  }
  if (!(v >= lo && v <= hi)) {
    usage_error(std::string(flag) + " " + value + " out of range [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// `own_flags` are the calling binary's value-taking flags: it parses them
/// itself, so here they (and their values) are skipped.
inline BenchConfig parse_args(
    int argc, char** argv, std::initializer_list<const char*> own_flags = {}) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : "";
    };
    auto num = [&](double lo, double hi) {
      const char* flag = argv[i];
      return parse_numeric_flag(flag, next(), lo, hi);
    };
    auto integer = [&](double lo, double hi) {
      const char* flag = argv[i];
      const double v = parse_numeric_flag(flag, next(), lo, hi);
      if (v != static_cast<double>(static_cast<long long>(v))) {
        usage_error(std::string(flag) + ": expected an integer");
      }
      return static_cast<long long>(v);
    };
    if (!std::strcmp(argv[i], "--scale")) cfg.scale = num(1e-9, 16.0);
    else if (!std::strcmp(argv[i], "--k")) cfg.k = static_cast<part_t>(integer(1, 1 << 20));
    else if (!std::strcmp(argv[i], "--reps")) cfg.reps = static_cast<int>(integer(1, 1000));
    else if (!std::strcmp(argv[i], "--seed")) cfg.seed = static_cast<std::uint64_t>(integer(0, 9.2e18));
    else if (!std::strcmp(argv[i], "--gpu-threshold")) cfg.gpu_threshold = static_cast<vid_t>(integer(0, 2e9));
    else if (!std::strcmp(argv[i], "--gpu-scan")) {
      const std::string m = next();
      if (m == "blocked") cfg.gpu_scan = GpuScanMode::kBlocked;
      else if (m == "lookback") cfg.gpu_scan = GpuScanMode::kLookback;
      else usage_error("--gpu-scan: expected blocked|lookback, got \"" + m + "\"");
    }
    else if (!std::strcmp(argv[i], "--graphs")) {
      cfg.graphs.clear();
      std::string s = next();
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const auto comma = s.find(',', pos);
        const auto name = s.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        if (name.empty()) usage_error("--graphs: empty graph name");
        cfg.graphs.push_back(name);
        pos = (comma == std::string::npos) ? comma : comma + 1;
      }
      if (cfg.graphs.empty()) usage_error("--graphs: no graph names given");
    }
    else if (std::any_of(own_flags.begin(), own_flags.end(),
                         [&](const char* f) {
                           return !std::strcmp(argv[i], f);
                         })) {
      (void)next();
    }
    else usage_error(std::string("unknown flag \"") + argv[i] + "\"");
  }
  return cfg;
}

struct RunRow {
  std::string graph;
  std::string partitioner;
  double modeled_s = 0;  ///< min over reps (the paper reports min of 3)
  double wall_s = 0;
  wgt_t cut = 0;         ///< cut of the min-time run
  double balance = 0;
  PhaseSeconds phases;
};

/// Runs the full matrix.  Row order: graph-major, partitioner order
/// {metis, parmetis, mt-metis, gp-metis}.
inline std::vector<RunRow> run_matrix(const BenchConfig& cfg, bool verbose) {
  std::vector<std::unique_ptr<Partitioner>> systems;
  systems.push_back(make_serial_partitioner());
  systems.push_back(make_par_partitioner());
  systems.push_back(make_mt_partitioner());
  systems.push_back(make_hybrid_partitioner());

  std::vector<RunRow> rows;
  for (const auto& gname : cfg.graphs) {
    if (verbose) std::fprintf(stderr, "# generating %s (scale %.5f)...\n", gname.c_str(), cfg.scale);
    const CsrGraph g = make_paper_graph(gname, cfg.scale, cfg.seed);
    if (verbose) {
      std::fprintf(stderr, "#   %d vertices, %lld edges\n", g.num_vertices(),
                   static_cast<long long>(g.num_edges()));
    }
    for (const auto& sys : systems) {
      RunRow row;
      row.graph = gname;
      row.partitioner = sys->name();
      row.modeled_s = 1e300;
      for (int rep = 0; rep < cfg.reps; ++rep) {
        PartitionOptions opts;
        opts.k = cfg.k;
        opts.eps = 0.03;
        opts.gpu_cpu_threshold = cfg.gpu_threshold;
        opts.gpu_scan = cfg.gpu_scan;
        opts.seed = cfg.seed + static_cast<std::uint64_t>(rep);
        const auto r = sys->run(g, opts);
        if (r.modeled_seconds < row.modeled_s) {
          row.modeled_s = r.modeled_seconds;
          row.wall_s = r.wall_seconds;
          row.cut = r.cut;
          row.balance = r.balance;
          row.phases = r.phases;
        }
      }
      if (verbose) {
        std::fprintf(stderr, "#   %-9s modeled %8.3f s  cut %lld\n",
                     row.partitioner.c_str(), row.modeled_s,
                     static_cast<long long>(row.cut));
      }
      rows.push_back(row);
    }
  }
  return rows;
}

/// row lookup helper
inline const RunRow& find(const std::vector<RunRow>& rows,
                          const std::string& graph,
                          const std::string& partitioner) {
  for (const auto& r : rows) {
    if (r.graph == graph && r.partitioner == partitioner) return r;
  }
  std::fprintf(stderr, "missing row %s/%s\n", graph.c_str(),
               partitioner.c_str());
  std::abort();
}

}  // namespace gp::bench
