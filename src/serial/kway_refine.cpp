#include "serial/kway_refine.hpp"

namespace gp {

wgt_t vertex_connectivity(const CsrGraph& g, const std::vector<part_t>& where,
                          vid_t v, std::vector<wgt_t>& conn_scratch,
                          std::vector<part_t>& conn_parts) {
  // conn_scratch must be sized k and zeroed between calls for the parts in
  // conn_parts — we reset only the touched entries to stay O(degree).
  conn_parts.clear();
  const auto nbrs = g.neighbors(v);
  const auto wts = g.neighbor_weights(v);
  const part_t pv = where[static_cast<std::size_t>(v)];
  wgt_t internal = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const part_t pu = where[static_cast<std::size_t>(nbrs[i])];
    if (pu == pv) {
      internal += wts[i];
      continue;
    }
    if (conn_scratch[static_cast<std::size_t>(pu)] == 0) {
      conn_parts.push_back(pu);
    }
    conn_scratch[static_cast<std::size_t>(pu)] += wts[i];
  }
  return internal;
}

namespace {

/// Resolves the caller-supplied cache/workspace: when no ready cache is
/// handed in, the workspace's fallback cache is built against the current
/// assignment (charged to *work).
GainCache* resolve_cache(const CsrGraph& g, const Partition& p,
                         GainCache* cache, KwayWorkspace* ws,
                         std::uint64_t* work) {
  if (cache != nullptr) return cache;
  GainCache* gc = &ws->cache;
  gc->build(g, p.where, p.k);
  *work += static_cast<std::uint64_t>(g.num_arcs()) +
           static_cast<std::uint64_t>(g.num_vertices());
  return gc;
}

void fill_part_weights(const CsrGraph& g, const Partition& p,
                       std::vector<wgt_t>& pw) {
  pw.assign(static_cast<std::size_t>(p.k), 0);
  const vid_t n = g.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    pw[static_cast<std::size_t>(p.where[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }
}

}  // namespace

KwayRefineStats kway_refine_serial(const CsrGraph& g, Partition& p,
                                   double eps, int max_passes,
                                   GainCache* cache, KwayWorkspace* ws) {
  KwayRefineStats stats;
  KwayWorkspace local_ws;
  if (ws == nullptr) ws = &local_ws;
  GainCache* gc = resolve_cache(g, p, cache, ws, &stats.work_units);
  stats.cut_before = gc->cut();
  const vid_t n = g.num_vertices();
  const wgt_t total = g.total_vertex_weight();
  const wgt_t max_pw = max_part_weight(total, p.k, eps);
  const wgt_t min_pw = min_part_weight(total, p.k, eps);

  fill_part_weights(g, p, ws->pw);
  stats.work_units += static_cast<std::uint64_t>(n);
  wgt_t* pw = ws->pw.data();

  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    vid_t moves_this_pass = 0;
    for (vid_t v = 0; v < n; ++v) {
      if (!gc->boundary(v)) {
        ++stats.work_units;
        continue;
      }
      const part_t pv = p.where[static_cast<std::size_t>(v)];
      const wgt_t vw = g.vertex_weight(v);
      const bool src_ok = pw[static_cast<std::size_t>(pv)] - vw >= min_pw;
      // Strict gain only (threshold = internal); ties keep the vertex put.
      const BestDest bd = gc->best_destination(
          g, p.where, v, pv, gc->internal(v), [&](part_t q) {
            return src_ok && pw[static_cast<std::size_t>(q)] + vw <= max_pw;
          });
      stats.work_units +=
          static_cast<std::uint64_t>(gc->conn_count(v)) + 1 + bd.tie_scan;
      if (bd.part == kInvalidPart) continue;
      pw[static_cast<std::size_t>(pv)] -= vw;
      pw[static_cast<std::size_t>(bd.part)] += vw;
      stats.work_units += gc->apply_move(g, p.where, v, pv, bd.part);
      p.where[static_cast<std::size_t>(v)] = bd.part;
      ++moves_this_pass;
    }
    stats.moves += moves_this_pass;
    if (moves_this_pass == 0) break;
  }
  stats.cut_after = gc->cut();
  return stats;
}

}  // namespace gp
