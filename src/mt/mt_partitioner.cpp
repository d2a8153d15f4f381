#include "mt/mt_partitioner.hpp"

#include <memory>
#include <utility>

#include "core/audit.hpp"
#include "core/driver_harness.hpp"
#include "mt/mt_context.hpp"
#include "mt/mt_contract.hpp"
#include "mt/mt_initpart.hpp"
#include "mt/mt_matching.hpp"
#include "mt/mt_refine.hpp"

namespace gp {

MtPipelineResult mt_multilevel_pipeline(const CsrGraph& g, DriverRun& run,
                                        int level_offset) {
  const PartitionOptions& opts = run.opts;
  ThreadPool pool(opts.threads);
  pool.set_cancel_token(opts.cancel);
  pool.set_fault_injector(run.injector);
  const MtContext ctx{&pool, &run.res.ledger, opts.seed};
  struct Level {
    CsrGraph graph;
    std::vector<vid_t> cmap;
  };
  std::vector<Level> levels;

  const AuditLevel audit = opts.audit_level;
  RunHealth& health = run.res.health;
  ShedWatch shed(run);
  // Gain cache carried across the V-cycle (DESIGN.md §3.6): built in
  // parallel on the coarsest graph, kept exact by the refiner's delta
  // replay, projected (not rebuilt) at each uncoarsening level.
  GainCache gain_cache;
  bool cache_valid = false;
  auto ensure_cache = [&](const CsrGraph& graph, const Partition& part,
                          int level) {
    if (cache_valid) return;
    gain_cache.init(graph, part.k);
    const vid_t n = graph.num_vertices();
    std::vector<std::uint64_t> bwork(
        static_cast<std::size_t>(ctx.threads()), 0);
    std::vector<wgt_t> bed(static_cast<std::size_t>(ctx.threads()), 0);
    ctx.pool->parallel_for_blocked(
        n, [&](int t, std::int64_t b, std::int64_t e) {
          bwork[static_cast<std::size_t>(t)] = gain_cache.build_range(
              graph, part.where, static_cast<vid_t>(b),
              static_cast<vid_t>(e), &bed[static_cast<std::size_t>(t)]);
        });
    wgt_t ed_sum = 0;
    for (const wgt_t x : bed) ed_sum += x;
    gain_cache.finish_totals(ed_sum);
    ctx.charge_pass("uncoarsen/gaincache-build/L" + std::to_string(level),
                    bwork);
    cache_valid = true;
  };

  /// Refine with a pre-refine checkpoint: a failed partition audit rolls
  /// the level back to the checkpoint and retries once, then keeps the
  /// (already audited) checkpoint and drops the level's refinement.
  auto guarded_refine = [&](const CsrGraph& graph, Partition& part,
                            int level) {
    if (shed.expired()) {
      cache_valid = false;  // later levels shed too; stop maintaining it
      return;
    }
    std::vector<part_t> checkpoint;
    if (audit != AuditLevel::kOff) checkpoint = part.where;
    for (int attempt = 0; attempt < 2; ++attempt) {
      ensure_cache(graph, part, level);
      mt_refine(graph, part, opts.eps, opts.refine_passes, ctx, level,
                /*cut_stats=*/false, &gain_cache);
      if (audit == AuditLevel::kOff) return;
      bool ok = record_audit(
          run, audit_partition(graph, part, opts.k, /*eps=*/0.0,
                               /*expected_cut=*/-1, audit));
      if (ok && audit == AuditLevel::kParanoid) {
        // Cache-vs-recompute cross-check at the same boundary as the
        // partition audit: the cache fed every gain this level.
        ok = record_audit(
            run, audit_gain_cache(graph, part.where, gain_cache, audit));
      }
      if (ok) return;
      ++health.rollbacks;
      health.degraded = true;
      health.note(attempt == 0
                      ? "rollback: refine/L" + std::to_string(level) +
                            " restored from checkpoint, retrying"
                      : "rollback: refine/L" + std::to_string(level) +
                            " dropped, keeping checkpoint");
      part.where = checkpoint;
      cache_valid = false;  // rebuilt against the restored labels
    }
  };

  const vid_t target = opts.coarsen_target();
  const CsrGraph* cur = &g;
  int lvl = level_offset;
  while (cur->num_vertices() > target) {
    check_cancelled(opts, "mt/coarsen");
    MatchResult m = mt_match(*cur, ctx, lvl);
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->num_vertices())) {
      break;
    }
    // Corruption site: one cmap entry perturbed on the single-threaded
    // path between matching and contraction (`cmap@N` / `cmap:p=` rules).
    corrupt_cmap_entry(run.injector, m.cmap.data(), m.cmap.size(),
                       m.n_coarse);
    if (audit != AuditLevel::kOff) {
      // A damaged match has no cheaper recovery unit than the level's
      // inputs, which we no longer have: the run-level ladder restarts.
      require_audit(run, audit_matching(m.match, audit));
    }
    CsrGraph coarse = contract_level(
        run, *cur, m, lvl, [&](bool reference) {
          return reference
                     ? contract_serial(*cur, m.match, m.cmap, m.n_coarse)
                     : mt_contract(*cur, m, ctx, lvl);
        });
    levels.push_back({std::move(coarse), std::move(m.cmap)});
    cur = &levels.back().graph;
    ++lvl;
  }

  MtPipelineResult out;
  out.levels = static_cast<int>(levels.size());
  out.coarsest_vertices = cur->num_vertices();

  check_cancelled(opts, "mt/initpart");
  Partition p =
      mt_initial_partition(*cur, opts.k, opts.eps, ctx, opts.init_trials);
  if (audit != AuditLevel::kOff) {
    require_audit(run, audit_partition(*cur, p, opts.k, /*eps=*/0.0,
                                       /*expected_cut=*/-1, audit));
  }
  guarded_refine(*cur, p, lvl);

  for (std::size_t i = levels.size(); i-- > 0;) {
    check_cancelled(opts, "mt/uncoarsen");
    const CsrGraph& fine = (i == 0) ? g : levels[i - 1].graph;
    // Parallel projection.
    std::vector<part_t> fine_where(
        static_cast<std::size_t>(fine.num_vertices()));
    const auto& cmap = levels[i].cmap;
    ctx.pool->parallel_for_blocked(
        fine.num_vertices(), [&](int, std::int64_t b, std::int64_t e) {
          for (std::int64_t v = b; v < e; ++v) {
            fine_where[static_cast<std::size_t>(v)] =
                p.where[static_cast<std::size_t>(
                    cmap[static_cast<std::size_t>(v)])];
          }
        });
    ctx.charge_pass(
        "uncoarsen/project/L" + std::to_string(level_offset + i),
        std::vector<std::uint64_t>(
            static_cast<std::size_t>(ctx.threads()),
            static_cast<std::uint64_t>(fine.num_vertices()) /
                static_cast<std::uint64_t>(std::max(1, ctx.threads()))));
    // Project the gain cache alongside the labels (parallel): fine
    // vertices with an interior coarse parent inherit id/ed with no
    // table work.  The coarse cache is read-only here, the fine cache's
    // vertex ranges are disjoint per thread.
    if (cache_valid && !shed.expired()) {
      GainCache fine_cache;
      fine_cache.init(fine, opts.k);
      std::vector<std::uint64_t> pwork(
          static_cast<std::size_t>(ctx.threads()), 0);
      std::vector<wgt_t> ped(static_cast<std::size_t>(ctx.threads()), 0);
      ctx.pool->parallel_for_blocked(
          fine.num_vertices(), [&](int t, std::int64_t b, std::int64_t e) {
            pwork[static_cast<std::size_t>(t)] = fine_cache.project_range(
                gain_cache, fine, fine_where, cmap, static_cast<vid_t>(b),
                static_cast<vid_t>(e), &ped[static_cast<std::size_t>(t)]);
          });
      wgt_t ed_sum = 0;
      for (const wgt_t x : ped) ed_sum += x;
      fine_cache.finish_totals(ed_sum);
      gain_cache = std::move(fine_cache);
      ctx.charge_pass(
          "uncoarsen/gaincache/L" + std::to_string(level_offset + i), pwork);
    } else {
      cache_valid = false;
    }
    p.where = std::move(fine_where);
    if (audit != AuditLevel::kOff) {
      require_audit(run, audit_partition(fine, p, opts.k, /*eps=*/0.0,
                                         /*expected_cut=*/-1, audit));
    }
    guarded_refine(fine, p, static_cast<int>(level_offset + i));
  }
  out.partition = std::move(p);
  return out;
}

PartitionResult MtMetisPartitioner::run(const CsrGraph& g,
                                        const PartitionOptions& opts) const {
  // An injected `task` fault unwinds the pipeline at a job boundary, so
  // one whole-run restart recovers (occurrence counters advanced, so a
  // one-shot rule cannot refire); it shares the restart budget with the
  // audit ladder.
  DriverSpec spec{.attempt = mt_pipeline_attempt};
  spec.ladder.row(Failure::kAudit) = suppressed_restart_row();
  spec.ladder.row(Failure::kTask) = {
      .steps = {{.note = "rollback: whole-run restart after pool task "
                         "fault ({})"}},
      .rollback = true,
      .fallback = true};
  spec.ladder.shared_restarts = true;
  return run_driver(g, opts, spec);
}

std::unique_ptr<Partitioner> make_mt_partitioner() {
  return std::make_unique<MtMetisPartitioner>();
}

}  // namespace gp
