#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/audit.hpp"
#include "core/matching.hpp"
#include "gpu/device.hpp"
#include "gpu/scan.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_gain_cache.hpp"
#include "hybrid/gpu_matching.hpp"
#include "hybrid/gpu_refine.hpp"
#include "mt/mt_contract.hpp"
#include "mt/mt_initpart.hpp"
#include "mt/mt_matching.hpp"
#include "mt/mt_refine.hpp"
#include "par/comm.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace gp;

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median wall microseconds of `reps` calls of f.
template <typename F>
double median_us(int reps, F&& f) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    f();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(us));
}

/// Bytes of the four CSR arrays, as the gp-metis driver pre-sizes its pool.
std::size_t csr_bytes(const CsrGraph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto m = static_cast<std::size_t>(g.num_arcs());
  return sizeof(eid_t) * (n + 1) + sizeof(vid_t) * m + sizeof(wgt_t) * m +
         sizeof(wgt_t) * n;
}

Device::Config device_config(const PartitionOptions& o) {
  Device::Config cfg;
  if (o.gpu_host_workers > 0) cfg.host_workers = o.gpu_host_workers;
  return cfg;
}

/// The CPU part of a V-cycle through the mt_* layer functions: coarsen to
/// the target, initial partition, then project + refine back up to g.  As
/// in mt_multilevel_pipeline, one GainCache is built on the coarsest graph,
/// carried into every mt_refine and projected (not rebuilt) per level.
Partition mt_levels(Tracer& tr, const CsrGraph& g, const PartitionOptions& o,
                    const MtContext& ctx, int level_offset, std::uint64_t id,
                    int parent) {
  struct Level {
    CsrGraph graph;
    std::vector<vid_t> cmap;
  };
  std::vector<Level> levels;
  const CsrGraph* cur = &g;
  int lvl = level_offset;
  while (cur->num_vertices() > o.coarsen_target()) {
    MtMatchStats ms;
    const int match_span = tr.begin("mt.match", id, parent);
    MatchResult m = mt_match(*cur, ctx, lvl, &ms);
    tr.count(match_span, "vertices", cur->num_vertices());
    tr.count(match_span, "conflicts", static_cast<double>(ms.conflicts));
    tr.end(match_span);
    if (static_cast<double>(m.n_coarse) >
        o.min_shrink * static_cast<double>(cur->num_vertices())) {
      break;
    }
    const int contract_span = tr.begin("mt.contract", id, parent);
    CsrGraph coarse = mt_contract(*cur, m, ctx, lvl);
    tr.end(contract_span);
    levels.push_back({std::move(coarse), std::move(m.cmap)});
    cur = &levels.back().graph;
    ++lvl;
  }

  const int init_span = tr.begin("mt.initpart", id, parent);
  Partition p = mt_initial_partition(*cur, o.k, o.eps, ctx, o.init_trials);
  tr.end(init_span);

  // Builds (coarse == nullptr) or projects the cache for `graph` with one
  // parallel sweep, as the driver does.
  GainCache cache;
  auto fill_cache = [&](const CsrGraph& graph, const GainCache* coarse,
                        const std::vector<vid_t>* cmap) {
    const int span = tr.begin("mt.gaincache", id, parent);
    GainCache next;
    next.init(graph, o.k);
    std::vector<wgt_t> ed(static_cast<std::size_t>(ctx.threads()), 0);
    ctx.pool->parallel_for_blocked(
        graph.num_vertices(), [&](int t, std::int64_t b, std::int64_t e) {
          wgt_t* part_ed = &ed[static_cast<std::size_t>(t)];
          if (coarse) {
            next.project_range(*coarse, graph, p.where, *cmap,
                               static_cast<vid_t>(b), static_cast<vid_t>(e),
                               part_ed);
          } else {
            next.build_range(graph, p.where, static_cast<vid_t>(b),
                             static_cast<vid_t>(e), part_ed);
          }
        });
    wgt_t ed_sum = 0;
    for (const wgt_t x : ed) ed_sum += x;
    next.finish_totals(ed_sum);
    cache = std::move(next);
    tr.end(span);
  };
  auto refine = [&](const CsrGraph& graph, int level) {
    const int span = tr.begin("mt.refine", id, parent);
    const MtRefineStats st = mt_refine(graph, p, o.eps, o.refine_passes, ctx,
                                       level, false, &cache);
    tr.count(span, "proposed", static_cast<double>(st.proposed));
    tr.count(span, "committed", static_cast<double>(st.committed));
    tr.end(span);
  };
  fill_cache(*cur, nullptr, nullptr);
  refine(*cur, lvl);
  for (std::size_t i = levels.size(); i-- > 0;) {
    const CsrGraph& fine = (i == 0) ? g : levels[i - 1].graph;
    const int span = tr.begin("mt.project", id, parent);
    p.where = project_partition(levels[i].cmap, p.where);
    tr.end(span);
    fill_cache(fine, &cache, &levels[i].cmap);
    refine(fine, level_offset + static_cast<int>(i));
  }
  return p;
}

void check_replay(const CsrGraph& g, const PartitionOptions& o,
                  const Partition& p, const std::string& what,
                  std::vector<std::string>& errors) {
  const std::string err = check_partition(g, o, p);
  if (!err.empty()) errors.push_back(what + ": " + err);
}

}  // namespace

std::string check_partition(const CsrGraph& g, const PartitionOptions& o,
                            const Partition& p) {
  std::string err = validate_partition(g, p);
  if (!err.empty()) return err;
  if (p.k != o.k) return "partition has k=" + std::to_string(p.k);
  const AuditFailure f =
      audit_partition(g, p, o.k, o.eps, /*expected_cut=*/-1,
                      AuditLevel::kPhase);
  return f.ok() ? std::string() : f.to_string();
}

double balance_limit(const CsrGraph& g, const PartitionOptions& o) {
  wgt_t max_vwgt = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  return 1.0 + o.eps +
         static_cast<double>(o.k) * static_cast<double>(max_vwgt) /
             static_cast<double>(g.total_vertex_weight());
}

int replay_gp_vcycle(Tracer& tr, const CsrGraph& g, const PartitionOptions& o,
                     std::uint64_t id, std::vector<std::string>& errors) {
  const int root = tr.begin("replay.gp_vcycle", id);
  CostLedger ledger;

  int span = tr.begin("gpu.device.create", id, root);
  Device dev(device_config(o));
  dev.set_ledger(&ledger);
  dev.pool_presize(csr_bytes(g), /*copies=*/2);
  tr.end(span);

  span = tr.begin("gpu.upload", id, root);
  GpuGraph g0 = GpuGraph::upload(dev, g, "G0");
  tr.count(span, "bytes", static_cast<double>(g0.bytes()));
  tr.end(span);

  struct Level {
    GpuGraph graph;
    DeviceBuffer<vid_t> cmap;
    vid_t fine_n = 0;
  };
  std::vector<Level> levels;
  const GpuGraph* cur = &g0;
  const vid_t handoff = std::max<vid_t>(o.gpu_cpu_threshold,
                                        o.coarsen_target());
  std::int64_t launch_threads = o.gpu_threads;
  int lvl = 0;
  while (cur->n > handoff) {
    span = tr.begin("hybrid.match", id, root);
    GpuMatchResult m =
        gpu_match(dev, *cur, lvl, o.seed, launch_threads, o.gpu_scan);
    tr.count(span, "vertices", cur->n);
    tr.count(span, "conflicts", static_cast<double>(m.conflicts));
    tr.end(span);
    if (static_cast<double>(m.n_coarse) >
        o.min_shrink * static_cast<double>(cur->n)) {
      break;
    }
    span = tr.begin("hybrid.contract", id, root);
    GpuContractStats cst;
    GpuGraph coarse = gpu_contract(dev, *cur, m.match, m.cmap, m.n_coarse,
                                   lvl, launch_threads,
                                   o.gpu_hash_contraction, o.gpu_scan, &cst);
    tr.count(span, "temp_entries", static_cast<double>(cst.temp_entries));
    tr.count(span, "final_entries", static_cast<double>(cst.final_entries));
    tr.end(span);
    levels.push_back({std::move(coarse), std::move(m.cmap), cur->n});
    cur = &levels.back().graph;
    ++lvl;
    if (o.gpu_shrink_launch) {
      launch_threads = std::max<std::int64_t>(256, launch_threads / 2);
    }
  }

  span = tr.begin("gpu.download", id, root);
  const CsrGraph cpu_graph = cur->download();
  tr.end(span);

  span = tr.begin("mt.pool.create", id, root);
  ThreadPool pool(o.threads);
  tr.end(span);
  const MtContext ctx{&pool, &ledger, o.seed};
  const Partition coarse_part =
      mt_levels(tr, cpu_graph, o, ctx, lvl, id, root);

  span = tr.begin("gpu.upload", id, root);
  DeviceBuffer<part_t> where(
      dev, static_cast<std::size_t>(cpu_graph.num_vertices()), "where");
  where.h2d(coarse_part.where);
  tr.end(span);

  // As in gp_metis_attempt: the gain cache is built once on the handoff
  // graph and projected, not rebuilt, down each uncoarsening level.
  DeviceBuffer<wgt_t> part_weights;
  GpuGainCache cache;
  if (!levels.empty()) {
    span = tr.begin("hybrid.gaincache", id, root);
    cache = GpuGainCache::build(
        dev, *cur, where, o.k, "uncoarsen/gaincache/handoff",
        std::min<std::int64_t>(o.gpu_threads,
                               std::max<std::int64_t>(256, cur->n)),
        o.gpu_scan);
    tr.end(span);
  }
  for (std::size_t i = levels.size(); i-- > 0;) {
    const GpuGraph& fine = (i == 0) ? g0 : levels[i - 1].graph;
    const vid_t fine_n = levels[i].fine_n;
    const std::int64_t T = std::min<std::int64_t>(
        o.gpu_threads, std::max<std::int64_t>(256, fine_n));
    span = tr.begin("hybrid.project", id, root);
    DeviceBuffer<part_t> where_fine(dev, static_cast<std::size_t>(fine_n),
                                    "where/L" + std::to_string(i));
    gpu_project(dev, levels[i].cmap, where, where_fine, static_cast<int>(i),
                T);
    tr.end(span);

    span = tr.begin("hybrid.gaincache", id, root);
    GpuGainCache fine_cache = GpuGainCache::project(
        dev, cache, fine, where_fine, levels[i].cmap,
        "uncoarsen/gaincache/L" + std::to_string(i), T, o.gpu_scan);
    cache = std::move(fine_cache);
    tr.end(span);

    span = tr.begin("hybrid.refine", id, root);
    const GpuRefineStats st =
        gpu_refine(dev, fine, where_fine, o.k, o.eps, o.refine_passes,
                   static_cast<int>(i), T, &cache, &part_weights, o.gpu_scan);
    tr.count(span, "proposed", static_cast<double>(st.proposed));
    tr.count(span, "committed", static_cast<double>(st.committed));
    tr.count(span, "dropped", static_cast<double>(st.dropped_full_buffer));
    tr.end(span);
    where = std::move(where_fine);
  }

  span = tr.begin("gpu.download", id, root);
  Partition p;
  p.k = o.k;
  p.where = where.d2h_vector();
  tr.end(span);
  tr.count(root, "gpu_levels", static_cast<double>(levels.size()));
  tr.count(root, "kernels", static_cast<double>(dev.kernels_launched()));
  tr.count(root, "modeled_s", ledger.total_seconds());
  tr.end(root);
  check_replay(g, o, p, "gp replay", errors);
  return root;
}

int replay_mt_vcycle(Tracer& tr, const CsrGraph& g, const PartitionOptions& o,
                     std::uint64_t id, std::vector<std::string>& errors) {
  const int root = tr.begin("replay.mt_vcycle", id);
  CostLedger ledger;
  const int span = tr.begin("mt.pool.create", id, root);
  ThreadPool pool(o.threads);
  tr.end(span);
  const MtContext ctx{&pool, &ledger, o.seed};
  const Partition p = mt_levels(tr, g, o, ctx, 0, id, root);
  tr.count(root, "modeled_s", ledger.total_seconds());
  tr.end(root);
  check_replay(g, o, p, "mt replay", errors);
  return root;
}

void append_layer_metrics(Tracer& tr, const LayerInputs& in, Report& rep) {
  auto put = [&](const char* name, double value, const char* unit) {
    rep.metrics.push_back({name, value, unit});
  };

  // ---- replayed V-cycles: wall self time per layer, counts ----
  std::vector<int> roots;
  roots.push_back(replay_gp_vcycle(tr, *in.gp_graph, in.gp_opts, in.seed,
                                   rep.errors));
  std::uint64_t id = in.seed + 1;
  for (const CsrGraph* g : in.mt_graphs) {
    roots.push_back(replay_mt_vcycle(tr, *g, in.gp_opts, id++, rep.errors));
  }
  double covered = 0, total = 0;
  for (const int r : roots) {
    total += tr.spans()[static_cast<std::size_t>(r)].seconds();
    covered += tr.spans()[static_cast<std::size_t>(r)].seconds() -
               tr.self_seconds(r);
  }
  put("bench.replay_coverage", ratio(covered, total), "ratio");
  put("hybrid.match.wall_s", tr.total_self_seconds("hybrid.match"), "s");
  put("hybrid.contract.wall_s", tr.total_self_seconds("hybrid.contract"),
      "s");
  put("hybrid.project.wall_s", tr.total_self_seconds("hybrid.project"), "s");
  put("hybrid.refine.wall_s", tr.total_self_seconds("hybrid.refine"), "s");
  put("hybrid.gaincache.wall_s", tr.total_self_seconds("hybrid.gaincache"),
      "s");
  put("gpu.upload.wall_s", tr.total_self_seconds("gpu.upload"), "s");
  put("hybrid.match.conflict_ratio",
      ratio(tr.total_count("hybrid.match", "conflicts"),
            tr.total_count("hybrid.match", "vertices")),
      "ratio");
  put("hybrid.contract.slot_use",
      ratio(tr.total_count("hybrid.contract", "final_entries"),
            tr.total_count("hybrid.contract", "temp_entries")),
      "ratio");
  put("hybrid.refine.commit_ratio",
      ratio(tr.total_count("hybrid.refine", "committed"),
            tr.total_count("hybrid.refine", "proposed")),
      "ratio");
  put("hybrid.refine.dropped", tr.total_count("hybrid.refine", "dropped"),
      "count");
  put("mt.match.wall_s", tr.total_self_seconds("mt.match"), "s");
  put("mt.contract.wall_s", tr.total_self_seconds("mt.contract"), "s");
  put("mt.initpart.wall_s", tr.total_self_seconds("mt.initpart"), "s");
  put("mt.refine.wall_s", tr.total_self_seconds("mt.refine"), "s");
  put("mt.project.wall_s", tr.total_self_seconds("mt.project"), "s");
  put("mt.gaincache.wall_s", tr.total_self_seconds("mt.gaincache"), "s");
  put("mt.match.conflict_ratio",
      ratio(tr.total_count("mt.match", "conflicts"),
            tr.total_count("mt.match", "vertices")),
      "ratio");
  put("mt.refine.commit_ratio",
      ratio(tr.total_count("mt.refine", "committed"),
            tr.total_count("mt.refine", "proposed")),
      "ratio");

  // ---- modeled figures and counts from instrumented driver calls ----
  GpPhaseLog log;
  PartitionResult gres;
  const CallRecord gp = run_call("gp-metis", *in.gp_graph, in.gp_opts, &log,
                                 &gres);
  if (!gp.error.empty()) rep.errors.push_back("gp-metis layer call: " + gp.error);
  const CostLedger& L = gres.ledger;
  put("hybrid.match.modeled_s",
      L.seconds_with_prefix("kernel/coarsen/level") +
          L.seconds_with_prefix("kernel/coarsen/match") +
          L.seconds_with_prefix("kernel/coarsen/resolve") +
          L.seconds_with_prefix("kernel/coarsen/cmap"),
      "s");
  put("hybrid.contract.modeled_s",
      L.seconds_with_prefix("kernel/coarsen/contract"), "s");
  put("hybrid.refine.modeled_s", L.seconds_with_prefix("kernel/uncoarsen/refine"),
      "s");
  put("hybrid.gaincache.modeled_s",
      L.seconds_with_prefix("kernel/uncoarsen/gaincache"), "s");
  put("model.transfer_s", gres.phases.transfer, "s");
  put("hybrid.levels", log.gpu_coarsen_levels, "count");
  put("gpu.launches", static_cast<double>(gp.launches), "count");
  put("gpu.transfer_bytes", static_cast<double>(gp.transfer_bytes),
      "bytes");
  const double pool_acq = static_cast<double>(gres.exec.pool_hits) +
                          static_cast<double>(gres.exec.pool_misses);
  put("gpu.pool_hit_ratio",
      ratio(static_cast<double>(gres.exec.pool_hits), pool_acq), "ratio");

  const CallRecord par = run_call("parmetis", *in.par_graph, in.par_opts);
  if (!par.error.empty()) rep.errors.push_back("parmetis layer call: " + par.error);
  put("par.supersteps", static_cast<double>(par.supersteps), "count");
  put("par.messages", static_cast<double>(par.messages), "count");
  put("par.bytes", static_cast<double>(par.comm_bytes), "bytes");
  put("par.comm.modeled_s", par.comm_modeled_s, "s");
  put("par.compute.modeled_s", par.compute_modeled_s, "s");
  put("par.wall_over_modeled", ratio(par.wall_s, par.modeled_s), "ratio");

  std::vector<double> serial;
  for (const CsrGraph* g : in.serial_graphs) {
    for (const std::uint64_t s : in.serial_seeds) {
      PartitionOptions o = in.gp_opts;
      o.seed = s;
      o.threads = 1;
      const CallRecord r = run_call("metis", *g, o);
      if (!r.error.empty()) rep.errors.push_back("metis baseline: " + r.error);
      serial.push_back(r.wall_s);
    }
  }
  put("serial.baseline_s", median(serial), "s");

  // ---- microcalls into the execution layers ----
  const int T = in.gp_opts.threads;
  put("util.thread_pool.spawn_us", median_us(50, [&] { ThreadPool p(T); }),
      "us");
  {
    ThreadPool pool(T);
    std::vector<std::int64_t> sink(static_cast<std::size_t>(T) * 64, 0);
    put("util.thread_pool.dispatch_us",
        median_us(2000,
                  [&] {
                    pool.parallel_for_blocked(
                        static_cast<std::int64_t>(sink.size()),
                        [&](int, std::int64_t b, std::int64_t e) {
                          for (std::int64_t i = b; i < e; ++i) {
                            ++sink[static_cast<std::size_t>(i)];
                          }
                        });
                  }),
        "us");
  }
  const Device::Config cfg = device_config(in.gp_opts);
  put("gpu.device.create_us", median_us(20, [&] {
        Device d(cfg);
        d.pool_presize(csr_bytes(*in.gp_graph), 2);
      }),
      "us");
  {
    Device d(cfg);
    put("gpu.launch.wall_us", median_us(2000, [&] {
          d.launch_simple("micro/launch", 256, [](std::int64_t) {});
        }),
        "us");
  }
  {
    Device d(cfg);
    CostLedger ledger;
    d.set_ledger(&ledger);
    // 2^20 elements plus a seeded remainder, so the tile geometry (and
    // with it the modeled cost per element) varies with the seed.
    const std::size_t scan_elems = (std::size_t{1} << 20) + in.seed % 65536;
    DeviceBuffer<eid_t> buf(d, scan_elems, "micro/scan");
    std::vector<double> wall_ns, model_ns;
    for (int rep_i = 0; rep_i < 10; ++rep_i) {
      std::fill(buf.data(), buf.data() + scan_elems, eid_t{1});
      const double before = ledger.total_seconds();
      const std::int64_t t0 = now_ns();
      const eid_t sum =
          device_exclusive_scan(d, buf, "micro/scan", in.gp_opts.gpu_scan);
      const auto n = static_cast<double>(scan_elems);
      wall_ns.push_back(static_cast<double>(now_ns() - t0) / n);
      model_ns.push_back((ledger.total_seconds() - before) * 1e9 / n);
      if (sum != static_cast<eid_t>(scan_elems) ||
          buf.data()[scan_elems - 1] != static_cast<eid_t>(scan_elems - 1)) {
        rep.errors.push_back("device_exclusive_scan returned a wrong sum");
      }
    }
    put("gpu.scan.wall_ns_per_elem", median(wall_ns), "ns/elem");
    put("gpu.scan.modeled_ns_per_elem", median(model_ns), "ns/elem");
  }
  {
    const int R = in.par_opts.ranks;
    ThreadPool pool(std::max(R, in.par_opts.threads));
    SimComm comm(R, pool, nullptr);
    const std::vector<int> payload(16, 1);
    put("par.superstep.wall_us", median_us(1000, [&] {
          comm.superstep("micro", [&](int r, Mailbox& mb) -> std::uint64_t {
            mb.send((r + 1) % R, payload);
            return 1;
          });
        }),
        "us");
  }
}

}  // namespace perfbench
