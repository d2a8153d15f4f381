// End-to-end performance bench — the BENCH_*.json perf trajectory anchor.
//
// Runs the paper matrix ({metis, parmetis, mt-metis, gp-metis} x the four
// paper graphs) and emits machine-readable JSON with, per row:
//
//   * wall_s        best-of-reps wall-clock seconds in this container —
//                   the number perf PRs are judged on,
//   * modeled_s     best-of-reps modeled seconds (paper-testbed time),
//   * phases        modeled per-phase breakdown (coarsen / initpart /
//                   uncoarsen / transfer),
//   * cut/balance   quality of the best-time run,
//   * exec          engine counters (kernels launched, buffer-pool
//                   hits/misses) when the partitioner reports them,
//   * partition_fnv FNV-1a hash of the partition vector of the best run,
//   * audit_wall_s / audit_overhead
//                   best-of-reps wall with --audit phase armed, and its
//                   ratio to the audit-off wall — the price of the
//                   silent-corruption defenses (DESIGN.md §3.5).
//
// A separate "determinism" section re-runs every partitioner
// single-threaded (threads=1, one device worker) on a small fixed graph
// and records the partition hash — byte-comparing partition vectors
// across binaries.  `--baseline old.json` embeds per-row speedups and
// determinism-hash comparisons against a previous run, so
// `bench_e2e --baseline BENCH_e2e_pre.json` is the before/after check.
//
// Extra flags on top of bench_common's:
//   --out <path>       output path (default BENCH_e2e.json)
//   --baseline <path>  previous BENCH_e2e.json to compare against
//
// Exit status: non-zero when any partitioner errored (CI smoke gate).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "util/timer.hpp"

namespace {

using namespace gp;
using namespace gp::bench;

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_partition(const Partition& p) {
  return p.where.empty()
             ? 0
             : fnv1a(p.where.data(), p.where.size() * sizeof(part_t));
}

struct E2eRow {
  std::string graph;
  std::string partitioner;
  bool ok = false;
  std::string error;
  double wall_s = 0;
  double modeled_s = 0;
  PhaseSeconds phases;
  wgt_t cut = 0;
  double balance = 0;
  std::uint64_t partition_fnv = 0;
  std::uint64_t kernels = 0;
  std::uint64_t kernels_coarsen = 0;    ///< dispatches under kernel/coarsen/
  std::uint64_t kernels_uncoarsen = 0;  ///< dispatches under kernel/uncoarsen/
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double audit_wall_s = 0;
  double audit_overhead = 0;
};

struct DetRow {
  std::string partitioner;
  bool ok = false;
  std::uint64_t partition_fnv = 0;
  wgt_t cut = 0;
};

/// Minimal extraction of `"key": <number>` / `"key": "<string>"` pairs from
/// a previous BENCH_e2e.json — enough to match rows without a JSON library.
struct BaselineRow {
  std::string graph, partitioner;
  double wall_s = 0;
  std::uint64_t det_fnv = 0;
  bool has_det = false;
};

std::vector<BaselineRow> load_baseline(const std::string& path) {
  std::vector<BaselineRow> rows;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_e2e: cannot open baseline %s\n", path.c_str());
    return rows;
  }
  std::string line;
  BaselineRow cur;
  bool in_det = false;
  auto field = [&](const char* key) -> std::string {
    const auto pos = line.find(std::string("\"") + key + "\":");
    if (pos == std::string::npos) return {};
    auto v = line.substr(pos + std::strlen(key) + 3);
    while (!v.empty() && (v.front() == ' ')) v.erase(v.begin());
    if (!v.empty() && v.front() == '"') {
      const auto end = v.find('"', 1);
      return v.substr(1, end == std::string::npos ? end : end - 1);
    }
    return v.substr(0, v.find_first_of(",}\n"));
  };
  while (std::getline(in, line)) {
    if (line.find("\"determinism\"") != std::string::npos) in_det = true;
    const auto g = field("graph");
    const auto p = field("partitioner");
    if (!p.empty()) {
      cur = BaselineRow{};
      cur.graph = g;
      cur.partitioner = p;
    }
    const auto w = field("wall_s");
    if (!w.empty()) cur.wall_s = std::atof(w.c_str());
    const auto f = field("partition_fnv");
    if (!f.empty()) {
      cur.det_fnv = std::strtoull(f.c_str(), nullptr, 10);
      cur.has_det = in_det;
      rows.push_back(cur);
    }
  }
  return rows;
}

const BaselineRow* find_baseline(const std::vector<BaselineRow>& rows,
                                 const std::string& graph,
                                 const std::string& partitioner, bool det) {
  for (const auto& r : rows) {
    if (r.partitioner == partitioner && r.has_det == det &&
        (det || r.graph == graph)) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_e2e.json";
  std::string baseline_path;
  // Pre-extract bench_e2e's own flags; bench_common skips them and
  // rejects any flag it does not know.
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }
  const BenchConfig cfg = parse_args(argc, argv, {"--out", "--baseline"});
  const auto baseline =
      baseline_path.empty() ? std::vector<BaselineRow>{}
                            : load_baseline(baseline_path);

  std::vector<std::unique_ptr<Partitioner>> systems;
  systems.push_back(make_serial_partitioner());
  systems.push_back(make_par_partitioner());
  systems.push_back(make_mt_partitioner());
  systems.push_back(make_hybrid_partitioner());

  bool any_error = false;
  std::vector<E2eRow> rows;
  for (const auto& gname : cfg.graphs) {
    std::fprintf(stderr, "# generating %s (scale %.6f)...\n", gname.c_str(),
                 cfg.scale);
    const CsrGraph g = make_paper_graph(gname, cfg.scale, cfg.seed);
    std::fprintf(stderr, "#   %d vertices, %lld edges\n", g.num_vertices(),
                 static_cast<long long>(g.num_edges()));
    for (const auto& sys : systems) {
      E2eRow row;
      row.graph = gname;
      row.partitioner = sys->name();
      row.wall_s = 1e300;
      row.modeled_s = 1e300;
      try {
        for (int rep = 0; rep < cfg.reps; ++rep) {
          PartitionOptions opts;
          opts.k = cfg.k;
          opts.eps = 0.03;
          opts.gpu_cpu_threshold = cfg.gpu_threshold;
          opts.seed = cfg.seed + static_cast<std::uint64_t>(rep);
          opts.gpu_scan = cfg.gpu_scan;
          WallTimer t;
          const auto r = sys->run(g, opts);
          const double wall = t.seconds();
          if (wall < row.wall_s) {
            row.wall_s = wall;
            row.modeled_s = r.modeled_seconds;
            row.phases = r.phases;
            row.cut = r.cut;
            row.balance = r.balance;
            row.partition_fnv = hash_partition(r.partition);
            row.kernels = r.exec.kernels_launched;
            row.kernels_coarsen =
                r.ledger.launches_with_prefix("kernel/coarsen/");
            row.kernels_uncoarsen =
                r.ledger.launches_with_prefix("kernel/uncoarsen/");
            row.pool_hits = r.exec.pool_hits;
            row.pool_misses = r.exec.pool_misses;
          }
        }
        // Audit-overhead column: same matrix with phase audits armed.
        row.audit_wall_s = 1e300;
        for (int rep = 0; rep < cfg.reps; ++rep) {
          PartitionOptions opts;
          opts.k = cfg.k;
          opts.eps = 0.03;
          opts.gpu_cpu_threshold = cfg.gpu_threshold;
          opts.seed = cfg.seed + static_cast<std::uint64_t>(rep);
          opts.audit_level = AuditLevel::kPhase;
          opts.gpu_scan = cfg.gpu_scan;
          WallTimer t;
          (void)sys->run(g, opts);
          row.audit_wall_s = std::min(row.audit_wall_s, t.seconds());
        }
        row.audit_overhead =
            row.wall_s > 0 ? row.audit_wall_s / row.wall_s : 0.0;
        row.ok = true;
      } catch (const std::exception& e) {
        row.ok = false;
        row.error = e.what();
        any_error = true;
      }
      std::fprintf(stderr,
                   "#   %-9s %s wall %8.3f s  modeled %8.3f s  "
                   "audit x%.3f\n",
                   row.partitioner.c_str(), row.ok ? "ok " : "ERR",
                   row.ok ? row.wall_s : 0.0, row.ok ? row.modeled_s : 0.0,
                   row.ok ? row.audit_overhead : 0.0);
      rows.push_back(row);
    }
  }

  // --- determinism section: single-threaded fixed-seed partitions ---
  std::vector<DetRow> det_rows;
  {
    const CsrGraph g = make_paper_graph("delaunay", 1.0 / 256.0, 7);
    for (const auto& sys : systems) {
      DetRow d;
      d.partitioner = sys->name();
      try {
        PartitionOptions opts;
        opts.k = 8;
        opts.seed = 7;
        opts.threads = 1;
        opts.ranks = 1;
        opts.gpu_host_workers = 1;
        opts.gpu_cpu_threshold = 1024;
        const auto r = sys->run(g, opts);
        d.partition_fnv = hash_partition(r.partition);
        d.cut = r.cut;
        d.ok = true;
      } catch (const std::exception& e) {
        d.ok = false;
        any_error = true;
        std::fprintf(stderr, "# determinism %s ERR: %s\n",
                     d.partitioner.c_str(), e.what());
      }
      det_rows.push_back(d);
    }
  }

  std::ostringstream os;
  os << "{\n  \"bench\": \"e2e\",\n";
  os << "  \"scale\": " << cfg.scale << ",\n";
  os << "  \"k\": " << cfg.k << ",\n";
  os << "  \"reps\": " << cfg.reps << ",\n";
  os << "  \"seed\": " << cfg.seed << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"graph\": \"%s\", \"partitioner\": \"%s\", \"ok\": %s,\n"
        "     \"wall_s\": %.6f, \"modeled_s\": %.6f,\n"
        "     \"phases\": {\"coarsen\": %.6f, \"initpart\": %.6f, "
        "\"uncoarsen\": %.6f, \"transfer\": %.6f},\n"
        "     \"cut\": %lld, \"balance\": %.6f,\n"
        "     \"kernels\": %llu, \"kernels_coarsen\": %llu, "
        "\"kernels_uncoarsen\": %llu,\n"
        "     \"pool_hits\": %llu, \"pool_misses\": %llu",
        r.graph.c_str(), r.partitioner.c_str(), r.ok ? "true" : "false",
        r.ok ? r.wall_s : 0.0, r.ok ? r.modeled_s : 0.0, r.phases.coarsen,
        r.phases.initpart, r.phases.uncoarsen, r.phases.transfer,
        static_cast<long long>(r.cut), r.balance,
        static_cast<unsigned long long>(r.kernels),
        static_cast<unsigned long long>(r.kernels_coarsen),
        static_cast<unsigned long long>(r.kernels_uncoarsen),
        static_cast<unsigned long long>(r.pool_hits),
        static_cast<unsigned long long>(r.pool_misses));
    os << buf;
    if (!r.error.empty()) os << ",\n     \"error\": \"" << r.error << "\"";
    if (const auto* b =
            find_baseline(baseline, r.graph, r.partitioner, false)) {
      if (r.ok && b->wall_s > 0 && r.wall_s > 0) {
        std::snprintf(buf, sizeof(buf),
                      ",\n     \"baseline_wall_s\": %.6f, "
                      "\"speedup_vs_baseline\": %.3f",
                      b->wall_s, b->wall_s / r.wall_s);
        os << buf;
      }
    }
    if (r.ok) {
      std::snprintf(buf, sizeof(buf),
                    ",\n     \"audit_wall_s\": %.6f, "
                    "\"audit_overhead\": %.3f",
                    r.audit_wall_s, r.audit_overhead);
      os << buf;
    }
    std::snprintf(buf, sizeof(buf), ",\n     \"partition_fnv\": %llu}",
                  static_cast<unsigned long long>(r.partition_fnv));
    os << buf << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"determinism\": [\n";
  for (std::size_t i = 0; i < det_rows.size(); ++i) {
    const auto& d = det_rows[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"partitioner\": \"%s\", \"ok\": %s, \"cut\": %lld, "
                  "\"partition_fnv\": %llu",
                  d.partitioner.c_str(), d.ok ? "true" : "false",
                  static_cast<long long>(d.cut),
                  static_cast<unsigned long long>(d.partition_fnv));
    os << buf;
    if (const auto* b = find_baseline(baseline, "", d.partitioner, true)) {
      os << ", \"matches_baseline\": "
         << ((b->det_fnv == d.partition_fnv) ? "true" : "false");
      if (b->det_fnv != d.partition_fnv) {
        std::fprintf(stderr,
                     "# WARNING: %s determinism hash differs from baseline\n",
                     d.partitioner.c_str());
      }
    }
    os << "}" << (i + 1 < det_rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";

  std::ofstream out(out_path);
  out << os.str();
  out.close();
  std::fprintf(stderr, "# wrote %s%s\n", out_path.c_str(),
               any_error ? " (WITH ERRORS)" : "");
  return any_error ? 1 : 0;
}
