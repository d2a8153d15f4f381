#include "hybrid/gp_partitioner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/audit.hpp"
#include "core/driver_harness.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "mt/mt_partitioner.hpp"

namespace gp {

namespace {

/// Bounded GPU retries before degrading to a pure mt-metis run.
constexpr int kMaxGpuAttempts = 3;

/// One full GPU-coarsen / CPU-middle / GPU-uncoarsen attempt.  Throws
/// DeviceOutOfMemory / DeviceFailure when the device gives out and
/// AuditError when a phase-boundary invariant audit fails; the ladder the
/// driver below hands to run_driver answers them.  `handoff` is the level size
/// at which the GPU hands the graph to the CPU engine; `force_sort_merge`
/// is the ladder's second rung (the hash contraction is the suspect).
void gp_metis_attempt(DriverRun& run, GpPhaseLog* log, vid_t handoff,
                      bool force_sort_merge) {
  const CsrGraph& g = run.g;
  const PartitionOptions& opts = run.opts;
  PartitionResult& res = run.res;
  Device::Config dev_config;  // GTX-Titan-like simulated device
  if (opts.gpu_memory_bytes > 0) {
    dev_config.memory_bytes = opts.gpu_memory_bytes;
  }
  if (opts.gpu_host_workers > 0) {
    dev_config.host_workers = opts.gpu_host_workers;
  }
  Device dev(dev_config);
  dev.set_ledger(&res.ledger);
  dev.set_fault_injector(run.injector, 0);
  dev.set_cancel_token(opts.cancel);
  dev.set_leak_sink(&res.exec.pool_leaked_blocks);

  const AuditLevel audit = opts.audit_level;

  struct GpuLevel {
    GpuGraph graph;              // coarse graph at this level (device)
    DeviceBuffer<vid_t> cmap;    // fine->coarse map producing it (device)
    vid_t fine_n = 0;
  };
  std::vector<GpuLevel> gpu_levels;

  // ---- 1. copy the graph to GPU global memory ----
  // Seed the device pool from the level-0 footprint first: every buffer
  // any level allocates (coarse graphs, cmaps, request buffers, the gain
  // cache's slabs) is bounded by the level-0 arrays, so pre-sizing the
  // buckets turns the V-cycle's first-touch allocations — including this
  // upload's own — into pool hits.
  dev.pool_presize(sizeof(eid_t) * (static_cast<std::size_t>(g.num_vertices()) + 1) +
                       sizeof(vid_t) * static_cast<std::size_t>(g.num_arcs()) +
                       sizeof(wgt_t) * static_cast<std::size_t>(g.num_arcs()) +
                       sizeof(wgt_t) * static_cast<std::size_t>(g.num_vertices()),
                   /*copies=*/2);
  GpuGraph g0 = GpuGraph::upload(dev, g, "G0");
  if (audit != AuditLevel::kOff) {
    // Transfer-integrity audit: the kernels index through the device copy
    // of the structure arrays, so a flipped bit there must be caught
    // BEFORE any kernel consumes it — afterwards it is an out-of-bounds
    // access, not a wrong answer.
    const bool clean = g0.adjp.d2h_vector() == g.adjp() &&
                       g0.adjncy.d2h_vector() == g.adjncy() &&
                       g0.adjwgt.d2h_vector() == g.adjwgt() &&
                       g0.vwgt.d2h_vector() == g.vwgt();
    require_audit(run, clean ? AuditFailure{}
                             : AuditFailure{AuditFailure::Kind::kCsr,
                                            "transfer-integrity",
                                            "device copy of the input graph "
                                            "differs from the host source "
                                            "after upload"});
  }

  // ---- 2. GPU coarsening until the threshold level ----
  const GpuGraph* cur = &g0;
  int lvl = 0;
  std::uint64_t total_conflicts = 0;
  std::int64_t launch_threads = opts.gpu_threads;
  while (cur->n > handoff) {
    check_cancelled(opts, "gp/gpu-coarsen");
    auto m = gpu_match(dev, *cur, lvl, opts.seed, launch_threads,
                       opts.gpu_scan);
    total_conflicts += m.conflicts;
    if (static_cast<double>(m.n_coarse) >
        opts.min_shrink * static_cast<double>(cur->n)) {
      break;
    }
    // Corruption site: one cmap entry perturbed in device memory on the
    // single-threaded host path between matching and contraction.
    corrupt_cmap_entry(run.injector, m.cmap.data(),
                       static_cast<std::size_t>(cur->n), m.n_coarse);
    if (audit != AuditLevel::kOff) {
      // Phase-boundary audit of the level's matching artifacts.  The
      // d2h copies are metered like any transfer (and are themselves
      // flip-corruption sites — an audit that reads through a faulty bus
      // can misfire, which the ladder absorbs like any other failure).
      const auto host_match = m.match.d2h_vector();
      const auto host_cmap = m.cmap.d2h_vector();
      AuditFailure f = audit_matching(host_match, audit);
      if (f.ok()) {
        std::string err = validate_cmap(host_match, host_cmap, m.n_coarse);
        if (!err.empty()) {
          f = {AuditFailure::Kind::kContraction, "cmap-consistency",
               "gpu level " + std::to_string(lvl) + ": " + err};
        }
      }
      require_audit(run, std::move(f));
    }
    GpuContractStats cst;
    GpuGraph coarse =
        gpu_contract(dev, *cur, m.match, m.cmap, m.n_coarse, lvl,
                     launch_threads,
                     opts.gpu_hash_contraction && !force_sort_merge,
                     opts.gpu_scan, &cst);
    if (audit == AuditLevel::kParanoid) {
      // Full conservation audit of the device contraction against the
      // fine graph (both sides downloaded; paranoid is allowed to pay).
      AuditFailure f = audit_contraction(
          cur->download(), coarse.download(), m.match.d2h_vector(),
          m.cmap.d2h_vector(), audit);
      require_audit(run, std::move(f));
    }
    gpu_levels.push_back(
        {std::move(coarse), std::move(m.cmap), cur->n});
    cur = &gpu_levels.back().graph;
    ++lvl;
    // The paper reduces the launched threads as the graph shrinks to
    // avoid underutilized kernels (Section III-D's non-persistent data
    // ownership; the fixed-width alternative exists for the ablation).
    if (opts.gpu_shrink_launch) {
      launch_threads = std::max<std::int64_t>(256, launch_threads / 2);
    }
  }
  const int gpu_lvls = static_cast<int>(gpu_levels.size());

  // ---- 3. transfer the coarse graph to the CPU; finish coarsening +
  // initial partitioning + first refinements with the mt-metis engine ----
  const CsrGraph cpu_graph = cur->download();
  if (audit != AuditLevel::kOff) {
    // Handoff audit: the graph crossing the PCIe boundary must be
    // well-formed and conserve the original total vertex weight (GPU
    // contraction only merges vertices).
    AuditFailure f = audit_csr(cpu_graph, audit);
    if (f.ok() &&
        cpu_graph.total_vertex_weight() != g.total_vertex_weight()) {
      f = {AuditFailure::Kind::kContraction, "vertex-weight-conservation",
           "handoff graph total vertex weight " +
               std::to_string(cpu_graph.total_vertex_weight()) +
               " != input total " + std::to_string(g.total_vertex_weight())};
    }
    require_audit(run, std::move(f));
  }
  check_cancelled(opts, "gp/cpu-middle");
  const MtPipelineResult mt_out =
      mt_multilevel_pipeline(cpu_graph, run, gpu_lvls);

  // ---- 4. transfer the partitioned graph back; GPU uncoarsening ----
  DeviceBuffer<part_t> where_coarse(
      dev, static_cast<std::size_t>(cpu_graph.num_vertices()), "where");
  where_coarse.h2d(mt_out.partition.where);
  if (audit != AuditLevel::kOff) {
    // The refinement kernels index part-weight tables with these labels:
    // verify the upload before any kernel dereferences a flipped label.
    require_audit(run, where_coarse.d2h_vector() == mt_out.partition.where
                           ? AuditFailure{}
                           : AuditFailure{AuditFailure::Kind::kPartition,
                                          "transfer-integrity",
                                          "device copy of the coarse labels "
                                          "differs from the host source "
                                          "after upload"});
  }

  // Device-resident gain cache (DESIGN.md §3.6): built once on the
  // handoff graph (whose labels just arrived from the CPU middle),
  // projected — not rebuilt — down each uncoarsening level, and kept
  // exact-or-dirty by the refine kernels' deltas in between.
  GpuGainCache gcache;
  bool gcache_valid = false;
  // Partition weights ride along: projection preserves per-part weight
  // sums exactly, so the k-entry table survives level transitions and the
  // per-level recount kernel runs only once (inside the first refine).
  DeviceBuffer<wgt_t> gpw;
  if (!gpu_levels.empty() && !run.watchdog.expired()) {
    const std::int64_t T0 = std::min<std::int64_t>(
        opts.gpu_threads, std::max<std::int64_t>(256, cur->n));
    gcache = GpuGainCache::build(dev, *cur, where_coarse, opts.k,
                                 "uncoarsen/gaincache/handoff", T0,
                                 opts.gpu_scan);
    gcache_valid = true;
  }

  ShedWatch gpu_shed(
      run, "watchdog: time budget exceeded, shedding gpu refinement");
  for (std::size_t i = gpu_levels.size(); i-- > 0;) {
    check_cancelled(opts, "gp/gpu-uncoarsen");
    const vid_t fine_n = gpu_levels[i].fine_n;
    const GpuGraph& fine = (i == 0) ? g0 : gpu_levels[i - 1].graph;
    DeviceBuffer<part_t> where_fine(
        dev, static_cast<std::size_t>(fine_n), "where/L" + std::to_string(i));
    const std::int64_t T = std::min<std::int64_t>(
        opts.gpu_threads, std::max<std::int64_t>(256, fine_n));
    gpu_project(dev, gpu_levels[i].cmap, where_coarse, where_fine,
                static_cast<int>(i), T);
    if (gpu_shed.expired()) {
      // Deadline: keep the (valid) projected partition, shed the level's
      // refinement passes, finish degraded rather than overrun.
      gcache_valid = false;  // later levels shed too; stop maintaining it
    } else {
      const std::string tag = "uncoarsen/gaincache/L" + std::to_string(i);
      if (gcache_valid) {
        GpuGainCache fine_cache = GpuGainCache::project(
            dev, gcache, fine, where_fine, gpu_levels[i].cmap, tag, T,
            opts.gpu_scan);
        gcache = std::move(fine_cache);
      } else {
        gcache = GpuGainCache::build(dev, fine, where_fine, opts.k, tag, T,
                                     opts.gpu_scan);
        gcache_valid = true;
      }
      auto rst = gpu_refine(dev, fine, where_fine, opts.k, opts.eps,
                            opts.refine_passes, static_cast<int>(i), T,
                            &gcache, &gpw, opts.gpu_scan);
      if (log) log->refine_committed += rst.committed;
      if (audit == AuditLevel::kParanoid) {
        // Cache-vs-recompute cross-check: the refine kernels both read
        // and delta-updated the device cache, so corruption there skews
        // every later move — audit it at the same boundary as the labels.
        const std::string err = gcache.compare_to_host(
            fine.download(), where_fine.d2h_vector());
        require_audit(run, err.empty()
                               ? AuditFailure{}
                               : AuditFailure{AuditFailure::Kind::kGainCache,
                                              "recompute",
                                              "gpu level " +
                                                  std::to_string(i) + ": " +
                                                  err});
      }
    }
    where_coarse = std::move(where_fine);
  }

  // ---- 5. final partition back to the host ----
  finish_partition(run, {opts.k, where_coarse.d2h_vector()});
  res.coarsen_levels = gpu_lvls + mt_out.levels;
  res.coarsest_vertices = mt_out.coarsest_vertices;
  res.exec += DeviceExecStats{dev.kernels_launched(), dev.pool_hits(),
                              dev.pool_misses(), dev.pool_recycled_bytes()};

  if (log) {
    log->gpu_coarsen_levels = gpu_lvls;
    log->cpu_levels = mt_out.levels;
    log->handoff_vertices = cpu_graph.num_vertices();
    log->h2d_bytes = dev.total_h2d_bytes();
    log->d2h_bytes = dev.total_d2h_bytes();
    log->match_conflicts = total_conflicts;
  }
}

}  // namespace

PartitionResult gp_metis_run(const CsrGraph& g, const PartitionOptions& opts,
                             GpPhaseLog* log) {
  vid_t handoff = std::max<vid_t>(opts.gpu_cpu_threshold,
                                  opts.coarsen_target());
  bool force_sort_merge = false;
  int attempts = 0;
  bool gpu_ok = false;
  DriverSpec spec;
  spec.attempt = [&](DriverRun& run) {
    ++attempts;
    if (log) *log = GpPhaseLog{};  // a failed attempt's partial trail is stale
    gp_metis_attempt(run, log, handoff, force_sort_merge);
    gpu_ok = true;
  };
  DriverLadder& ladder = spec.ladder;
  ladder.can_attempt = [&] { return attempts < kMaxGpuAttempts; };
  ladder.mt_rung_note =
      "gp-metis: GPU attempts exhausted; degrading to a pure mt-metis run";
  ladder.serial_rung_head = "gp-metis: CPU phase failed audit";
  // Silent corruption: re-execute, then swap the hash contraction for
  // sort-merge, then leave the GPU.
  ladder.row(Failure::kAudit) = {
      .steps = {{.note = "gp-metis: audit failed ({}); rolling the attempt "
                         "back and retrying"},
                {.adjust = [&](const std::exception& e)
                     -> std::optional<std::string> {
                   if (!opts.gpu_hash_contraction || force_sort_merge) {
                     return std::nullopt;
                   }
                   force_sort_merge = true;
                   return std::string("gp-metis: audit failed again (") +
                          e.what() + "); escalating to sort-merge contraction";
                 }},
                {.verdict = LadderStep::kNextRung,
                 .note = "gp-metis: audit failed on the sort-merge rung ({}); "
                         "leaving the GPU"}},
      .rollback = true,
      .gpu_retry = true,
      .reset_label = "fault/device-reset",
      .spent_note = "gp-metis: audit failed ({}) with the time budget "
                    "exhausted; leaving the GPU"};
  // A CPU-phase task fault unwound the attempt's buffers cleanly: retry
  // like a transient device failure.
  ladder.row(Failure::kTask) = {
      .steps = {{.note = "gp-metis: pool task fault ({}); retrying",
                 .times = kAlways}},
      .gpu_retry = true,
      .reset_label = "fault/task-restart"};
  ladder.row(Failure::kDeviceLost) = {
      .steps = {{.note = "gp-metis: device failure ({}); retrying",
                 .times = kAlways}},
      .gpu_retry = true,
      .reset_label = "fault/device-reset"};
  // Shrink the device working set by handing off to the CPU earlier; once
  // the handoff covers the whole graph retries cannot help.
  ladder.row(Failure::kDeviceOom) = {
      .steps = {raise_handoff_step("gp-metis", handoff, g.num_vertices(),
                                   kAlways),
                {.verdict = LadderStep::kNextRung,
                 .note = "gp-metis: OOM with nothing left on the GPU ({})"}},
      .gpu_retry = true,
      .reset_label = "fault/device-reset"};

  PartitionResult res = run_driver(g, opts, spec);
  if (log) {
    if (!gpu_ok) {
      *log = GpPhaseLog{};
      log->cpu_levels = res.coarsen_levels;
      log->handoff_vertices = g.num_vertices();
    }
    log->attempts = attempts;
    log->cpu_fallback = !gpu_ok;
  }
  return res;
}

PartitionResult GpMetisPartitioner::run(const CsrGraph& g,
                                        const PartitionOptions& opts) const {
  return gp_metis_run(g, opts, nullptr);
}

std::unique_ptr<Partitioner> make_hybrid_partitioner() {
  return std::make_unique<GpMetisPartitioner>();
}

}  // namespace gp
