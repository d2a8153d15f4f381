#include "serial/metis_partitioner.hpp"

#include <memory>
#include <utility>

#include "core/audit.hpp"
#include "core/driver_harness.hpp"
#include "core/matching.hpp"
#include "serial/hem_matching.hpp"
#include "serial/kway_refine.hpp"
#include "serial/rb_partition.hpp"

namespace gp {

namespace {

/// One full multilevel attempt.  Audits (opts.audit_level) run at phase
/// boundaries; a failed contraction audit rolls the level back onto the
/// reference cmap and re-contracts; damage beyond level scope throws
/// AuditError for the run-level ladder.
void serial_attempt(DriverRun& run) {
  const CsrGraph& g = run.g;
  const PartitionOptions& opts = run.opts;
  PartitionResult& res = run.res;
  Rng rng(opts.seed);
  const AuditLevel audit = opts.audit_level;
  ShedWatch shed(run);
  // Gain cache and refiner scratch carried across the whole V-cycle: the
  // cache is built once on the coarsest graph, kept consistent by the
  // refiners' delta updates, and projected (not rebuilt) at each
  // uncoarsening level.  `cache_valid` tracks whether it matches p.where;
  // rollbacks and watchdog sheds invalidate it.
  GainCache gain_cache;
  KwayWorkspace refine_ws;
  bool cache_valid = false;

  /// Refine in place with a pre-refine checkpoint: a failed audit
  /// restores the checkpoint and drops the level's refinement (the
  /// serial refiner is deterministic, so retrying cannot help).
  auto guarded_refine = [&](const CsrGraph& graph, Partition& p,
                            const std::string& label) {
    if (shed.expired()) {
      cache_valid = false;  // later levels shed too; stop maintaining it
      return;
    }
    if (!cache_valid) {
      gain_cache.build(graph, p.where, p.k);
      res.ledger.charge_serial(
          label + "/gaincache-build",
          static_cast<std::uint64_t>(graph.num_arcs()) +
              static_cast<std::uint64_t>(graph.num_vertices()));
      cache_valid = true;
    }
    std::vector<part_t> checkpoint;
    if (audit != AuditLevel::kOff) checkpoint = p.where;
    auto st = kway_refine_serial(graph, p, opts.eps, opts.refine_passes,
                                 &gain_cache, &refine_ws);
    res.ledger.charge_serial(label, st.work_units);
    if (audit == AuditLevel::kOff) return;
    bool ok = record_audit(run, audit_partition(graph, p, opts.k, /*eps=*/0.0,
                                                /*expected_cut=*/-1, audit));
    if (ok && audit == AuditLevel::kParanoid) {
      // Cache-vs-recompute cross-check: the refiner both consumed and
      // delta-updated the cache, so corruption there is as damaging as
      // partition damage and audited at the same boundary.
      ok = record_audit(run,
                        audit_gain_cache(graph, p.where, gain_cache, audit));
    }
    if (!ok) {
      ++res.health.rollbacks;
      res.health.degraded = true;
      res.health.note("rollback: " + label + " dropped, keeping checkpoint");
      p.where = checkpoint;
      cache_valid = false;  // rebuilt lazily against the restored labels
    }
  };

  struct Level {
    CsrGraph graph;          // coarse graph produced at this level
    std::vector<vid_t> cmap; // fine->coarse map that produced it
  };
  std::vector<Level> levels;
  res.levels.clear();

  // --- Coarsening ---
  const vid_t target = opts.coarsen_target();
  const CsrGraph* cur = &g;
  res.levels.push_back({g.num_vertices(), g.num_edges()});
  while (cur->num_vertices() > target) {
    check_cancelled(opts, "serial/coarsen");
    SerialMatchStats mstats;
    MatchResult m = hem_match_serial(*cur, rng, &mstats);
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->num_vertices())) {
      break;  // matching stalled (e.g. star graphs); stop coarsening
    }
    // Corruption site: one cmap entry perturbed before contraction.
    corrupt_cmap_entry(run.injector, m.cmap.data(), m.cmap.size(),
                       m.n_coarse);
    const auto lvl = static_cast<int>(levels.size());
    if (audit != AuditLevel::kOff) {
      require_audit(run, audit_matching(m.match, audit));
    }
    res.ledger.charge_serial("coarsen/match/L" + std::to_string(lvl),
                             mstats.work_units);
    CsrGraph coarse = contract_level(
        run, *cur, m, lvl, [&](bool /*reference*/) {
          CsrGraph c = contract_serial(*cur, m.match, m.cmap, m.n_coarse);
          res.ledger.charge_serial(
              "coarsen/contract/L" + std::to_string(lvl),
              static_cast<std::uint64_t>(cur->num_arcs() + c.num_arcs()));
          return c;
        });
    levels.push_back({std::move(coarse), std::move(m.cmap)});
    cur = &levels.back().graph;
    res.levels.push_back({cur->num_vertices(), cur->num_edges()});
  }
  res.coarsen_levels = static_cast<int>(levels.size());
  res.coarsest_vertices = cur->num_vertices();

  // --- Initial partitioning ---
  check_cancelled(opts, "serial/initpart");
  RbStats rb_stats;
  Partition p = recursive_bisection(*cur, opts.k, opts.eps, rng, &rb_stats);
  res.ledger.charge_serial("initpart/rb", rb_stats.work_units);
  if (audit != AuditLevel::kOff) {
    require_audit(run, audit_partition(*cur, p, opts.k, /*eps=*/0.0,
                                       /*expected_cut=*/-1, audit));
  }

  // Refine the initial partition in place on the coarsest graph.
  guarded_refine(*cur, p, "initpart/refine");

  // --- Uncoarsening ---
  for (std::size_t i = levels.size(); i-- > 0;) {
    check_cancelled(opts, "serial/uncoarsen");
    const CsrGraph& fine = (i == 0) ? g : levels[i - 1].graph;
    p.where = project_partition(levels[i].cmap, p.where);
    res.ledger.charge_serial(
        "uncoarsen/project/L" + std::to_string(i),
        static_cast<std::uint64_t>(fine.num_vertices()));
    // Project the gain cache alongside the labels: fine vertices whose
    // coarse parent was interior inherit id/ed without any table work.
    if (cache_valid && !run.watchdog.expired()) {
      GainCache fine_cache;
      fine_cache.init(fine, opts.k);
      wgt_t ed_sum = 0;
      const auto w = fine_cache.project_range(gain_cache, fine, p.where,
                                              levels[i].cmap, 0,
                                              fine.num_vertices(), &ed_sum);
      fine_cache.finish_totals(ed_sum);
      gain_cache = std::move(fine_cache);
      res.ledger.charge_serial("uncoarsen/gaincache/L" + std::to_string(i),
                               w);
    } else {
      cache_valid = false;
    }
    if (audit != AuditLevel::kOff) {
      require_audit(run, audit_partition(fine, p, opts.k, /*eps=*/0.0,
                                         /*expected_cut=*/-1, audit));
    }
    guarded_refine(fine, p, "uncoarsen/refine/L" + std::to_string(i));
  }

  finish_partition(run, std::move(p));
}

}  // namespace

PartitionResult SerialMetisPartitioner::run(const CsrGraph& g,
                                            const PartitionOptions& opts) const {
  DriverSpec spec{.attempt = serial_attempt};
  spec.ladder.row(Failure::kAudit) = suppressed_restart_row();
  return run_driver(g, opts, spec);
}

std::unique_ptr<Partitioner> make_serial_partitioner() {
  return std::make_unique<SerialMetisPartitioner>();
}

}  // namespace gp
