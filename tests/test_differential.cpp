// Cross-system differential harness (ISSUE 5): every system partitions
// the same (graph, seed) matrix under phase-level invariant audits, and
// the results are compared against the serial Metis baseline.  A system
// whose refactor silently breaks quality, balance, or the phase/model
// bookkeeping fails here even if its own unit tests still pass.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/generators.hpp"

namespace gp {
namespace {

struct DiffCase {
  const char* graph;
  double scale;
  std::uint64_t graph_seed;
  /// Extra imbalance envelope on top of eps + one-vertex granularity.
  /// The refiners are gain-driven with no dedicated rebalance pass (the
  /// Metis-faithful simplification), so on low-connectivity graphs a bad
  /// coarsest-level roll can leave a coarse-vertex-granularity overshoot
  /// that refinement has no gain incentive to undo.  Mesh-like graphs get
  /// no slack: there the window is always met and a regression must fail.
  double balance_slack;
};

const DiffCase kCases[] = {
    {"ldoor", 0.002, 3, 0.0},       // FEM slab, heavy coarsening
    {"delaunay", 0.002, 3, 0.0},    // planar-ish triangulation
    {"usa-roads", 0.0005, 5, 0.05}, // low-degree road network
};

const std::uint64_t kSeeds[] = {1, 2};

PartitionOptions base_options(std::uint64_t seed) {
  PartitionOptions opts;
  opts.k = 8;
  opts.eps = 0.03;
  opts.seed = seed;
  opts.threads = 4;
  opts.ranks = 4;
  opts.gpu_host_workers = 1;      // deterministic device execution
  opts.gpu_cpu_threshold = 1024;  // small graphs still exercise GPU levels
  opts.audit_level = AuditLevel::kPhase;
  return opts;
}

/// Shared checks every system's result must satisfy on every input.
void check_result(const CsrGraph& g, const PartitionOptions& opts,
                  const std::string& system, const PartitionResult& r,
                  double balance_slack) {
  SCOPED_TRACE(system);
  const std::string invalid = validate_partition(g, r.partition);
  EXPECT_TRUE(invalid.empty()) << invalid;
  EXPECT_EQ(r.cut, edge_cut(g, r.partition))
      << "reported cut disagrees with the partition";
  EXPECT_NEAR(r.balance, partition_balance(g, r.partition), 1e-9);
  // eps plus one-vertex integer granularity: with unit weights and
  // total/k fractional, the best integral max-part can already sit one
  // vertex above the real-valued bound (e.g. n=1500, k=8: ideal 187.5).
  wgt_t max_vwgt = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  const double granularity = static_cast<double>(opts.k) *
                             static_cast<double>(max_vwgt) /
                             static_cast<double>(g.total_vertex_weight());
  EXPECT_LE(r.balance, 1.0 + opts.eps + granularity + balance_slack + 1e-9)
      << "imbalance exceeds the eps tolerance";
  // The per-phase breakdown must tile the modeled total exactly — a phase
  // that double-charges (or forgets) ledger entries breaks this.
  EXPECT_NEAR(r.phases.total(), r.modeled_seconds,
              1e-9 * std::max(1.0, r.modeled_seconds))
      << "phase rows do not sum to modeled_seconds";
  EXPECT_FALSE(r.health.degraded)
      << "phase audits forced a degraded path on a healthy run";
  EXPECT_GT(r.modeled_seconds, 0.0);
}

TEST(Differential, AllSystemsAgreeWithinQualityEnvelope) {
  struct SystemEntry {
    const char* label;
    std::unique_ptr<Partitioner> p;
  };
  SystemEntry systems[] = {
      {"mt-metis", make_mt_partitioner()},
      {"parmetis", make_par_partitioner()},
      {"gp-metis", make_hybrid_partitioner()},
      {"gp-metis-multi", make_multi_gpu_partitioner()},
  };
  const auto serial = make_serial_partitioner();

  for (const DiffCase& c : kCases) {
    const CsrGraph g = make_paper_graph(c.graph, c.scale, c.graph_seed);
    SCOPED_TRACE(std::string(c.graph) + " n=" +
                 std::to_string(g.num_vertices()));
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      const PartitionOptions opts = base_options(seed);

      const PartitionResult base = serial->run(g, opts);
      check_result(g, opts, "metis", base, c.balance_slack);
      ASSERT_GT(base.cut, 0);

      for (auto& s : systems) {
        const PartitionResult r = s.p->run(g, opts);
        check_result(g, opts, s.label, r, c.balance_slack);
        // Parallel systems trade quality for speed, but only so far: a
        // cut beyond 2x serial means a broken algorithm, not a tradeoff.
        EXPECT_LE(r.cut, 2 * base.cut)
            << s.label << " cut " << r.cut << " vs serial " << base.cut;
      }
    }
  }
}

TEST(Differential, SerialIsDeterministicAcrossRepeatedRuns) {
  // Anchor of the differential harness: the baseline itself must be a
  // pure function of (graph, options) or the 2x envelope means nothing.
  const CsrGraph g = make_paper_graph("delaunay", 0.002, 3);
  const auto serial = make_serial_partitioner();
  const PartitionOptions opts = base_options(1);
  const PartitionResult a = serial->run(g, opts);
  const PartitionResult b = serial->run(g, opts);
  EXPECT_EQ(a.partition.where, b.partition.where);
  EXPECT_EQ(a.cut, b.cut);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, b.modeled_seconds);
}

}  // namespace
}  // namespace gp
