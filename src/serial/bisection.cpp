#include "serial/bisection.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace gp {

namespace {

/// Max-heap over (gain, vertex) used by the FM drain.  Entries order
/// exactly like std::pair<wgt_t, vid_t>, and any correct max-heap pops the
/// same value sequence, so results are bit-identical to a
/// std::priority_queue while the hot path runs on a flat 4-ary heap of
/// packed 8-byte keys (gain biased into the high 32 bits, vertex id low).
/// Packing requires |gain| to fit 31 bits — gains never exceed a vertex's
/// weighted degree, so the caller picks the mode from that bound once per
/// graph; the pair-heap fallback covers arbitrarily heavy graphs.
class GainHeap {
 public:
  void reset(bool packed) {
    packed_ = packed;
    pk_.clear();
    pr_.clear();
  }
  void clear() {
    pk_.clear();
    pr_.clear();
  }
  [[nodiscard]] bool empty() const {
    return packed_ ? pk_.empty() : pr_.empty();
  }
  /// Append without restoring the heap property (bulk seeding).
  void append(wgt_t gain, vid_t v) {
    if (packed_) pk_.push_back(pack(gain, v));
    else pr_.emplace_back(gain, v);
  }
  /// Restore the heap property after a sequence of append()s.
  void build() {
    if (packed_) {
      for (std::size_t i = 1; i < pk_.size(); ++i) sift_up(i);
    } else {
      std::make_heap(pr_.begin(), pr_.end());
    }
  }
  void push(wgt_t gain, vid_t v) {
    if (packed_) {
      pk_.push_back(pack(gain, v));
      sift_up(pk_.size() - 1);
    } else {
      pr_.emplace_back(gain, v);
      std::push_heap(pr_.begin(), pr_.end());
    }
  }
  std::pair<wgt_t, vid_t> pop() {
    if (!packed_) {
      std::pop_heap(pr_.begin(), pr_.end());
      const auto top = pr_.back();
      pr_.pop_back();
      return top;
    }
    const std::uint64_t top = pk_[0];
    const std::uint64_t last = pk_.back();
    pk_.pop_back();
    if (!pk_.empty()) {
      // Sift the former tail down from the root (4 children per node).
      std::size_t i = 0;
      const std::size_t n = pk_.size();
      for (;;) {
        const std::size_t c0 = 4 * i + 1;
        if (c0 >= n) break;
        std::size_t best = c0;
        const std::size_t ce = std::min(c0 + 4, n);
        for (std::size_t c = c0 + 1; c < ce; ++c) {
          if (pk_[c] > pk_[best]) best = c;
        }
        if (pk_[best] <= last) break;
        pk_[i] = pk_[best];
        i = best;
      }
      pk_[i] = last;
    }
    return {static_cast<wgt_t>(static_cast<std::int32_t>(
                static_cast<std::uint32_t>(top >> 32) - 0x80000000u)),
            static_cast<vid_t>(static_cast<std::uint32_t>(top))};
  }

 private:
  static std::uint64_t pack(wgt_t gain, vid_t v) {
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(gain) + 0x80000000u)
            << 32) |
           static_cast<std::uint32_t>(v);
  }
  void sift_up(std::size_t i) {
    const std::uint64_t x = pk_[i];
    while (i > 0) {
      const std::size_t p = (i - 1) / 4;
      if (pk_[p] >= x) break;
      pk_[i] = pk_[p];
      i = p;
    }
    pk_[i] = x;
  }

  bool packed_ = true;
  std::vector<std::uint64_t> pk_;
  std::vector<std::pair<wgt_t, vid_t>> pr_;
};

}  // namespace

wgt_t bisection_cut(const CsrGraph& g, const std::vector<part_t>& side) {
  wgt_t cut2 = 0;
  const vid_t n = g.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto wts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (side[static_cast<std::size_t>(nbrs[i])] !=
          side[static_cast<std::size_t>(v)]) {
        cut2 += wts[i];
      }
    }
  }
  return cut2 / 2;
}

BisectionResult gggp_bisect(const CsrGraph& g, wgt_t target0, Rng& rng,
                            int trials) {
  const vid_t n = g.num_vertices();
  BisectionResult best;
  if (n == 0) {
    best.cut = 0;
    return best;
  }
  best.cut = std::numeric_limits<wgt_t>::max();

  for (int trial = 0; trial < trials; ++trial) {
    std::vector<part_t> side(static_cast<std::size_t>(n), 1);
    std::vector<char> in_frontier(static_cast<std::size_t>(n), 0);
    std::uint64_t work = 0;

    // (gain, vertex) max-heap with lazy stale-entry skipping: we re-push a
    // vertex whenever its gain improves and skip entries whose gain no
    // longer matches at pop time.
    std::priority_queue<std::pair<wgt_t, vid_t>> frontier;
    std::vector<wgt_t> gain(static_cast<std::size_t>(n), 0);

    const vid_t seed = static_cast<vid_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    wgt_t w0 = 0;
    wgt_t cut = 0;
    vid_t grown = 0;

    auto grow = [&](vid_t v) {
      side[static_cast<std::size_t>(v)] = 0;
      w0 += g.vertex_weight(v);
      ++grown;
      const auto nbrs = g.neighbors(v);
      const auto wts = g.neighbor_weights(v);
      work += nbrs.size();
      // Moving v across adds its side-1 arcs to the cut and removes its
      // side-0 arcs: delta = total - 2*internal.  Tracking this here keeps
      // cut exact without the O(E) full rescan per trial.
      wgt_t tot = 0, internal = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const vid_t u = nbrs[i];
        if (u == v) continue;  // self-arcs never cross the cut
        tot += wts[i];
        if (side[static_cast<std::size_t>(u)] == 0) {
          internal += wts[i];
          continue;
        }
        // Moving u into the region removes arc {u, region} from the cut
        // and adds its remaining side-1 arcs: gain = 2*internal - degree_w.
        gain[static_cast<std::size_t>(u)] += 2 * wts[i];
        if (!in_frontier[static_cast<std::size_t>(u)]) {
          // First touch: initialize with -total arc weight of u.
          wgt_t tot = 0;
          for (const wgt_t w : g.neighbor_weights(u)) tot += w;
          gain[static_cast<std::size_t>(u)] =
              2 * wts[i] - tot;  // overwrite the += above deliberately
          in_frontier[static_cast<std::size_t>(u)] = 1;
        }
        frontier.emplace(gain[static_cast<std::size_t>(u)], u);
      }
      cut += tot - 2 * internal;
    };

    grow(seed);
    while (w0 < target0 && grown < n) {
      vid_t next = kInvalidVid;
      while (!frontier.empty()) {
        const auto [gn, v] = frontier.top();
        frontier.pop();
        if (side[static_cast<std::size_t>(v)] == 0) continue;  // already in
        if (gn != gain[static_cast<std::size_t>(v)]) continue;  // stale
        next = v;
        break;
      }
      if (next == kInvalidVid) {
        // Disconnected graph: restart growth from any side-1 vertex.
        for (vid_t v = 0; v < n; ++v) {
          if (side[static_cast<std::size_t>(v)] == 1) {
            next = v;
            break;
          }
        }
        if (next == kInvalidVid) break;
      }
      grow(next);
    }

    BisectionResult cur;
    cur.side = std::move(side);
    cur.cut = cut;
    cur.weight0 = w0;
    cur.work_units = work;
    if (cur.cut < best.cut) best = std::move(cur);
    else best.work_units += cur.work_units;
  }
  return best;
}

FmStats fm_refine_bisection(const CsrGraph& g, std::vector<part_t>& side,
                            wgt_t min0, wgt_t max0, int max_passes,
                            wgt_t cut_hint, ThreadPool* seed_pool,
                            std::vector<std::uint64_t>* seed_thread_work) {
  const vid_t n = g.num_vertices();
  FmStats stats;
  stats.cut_before = (cut_hint >= 0) ? cut_hint : bisection_cut(g, side);
  wgt_t cur_cut = stats.cut_before;

  wgt_t w0 = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (side[static_cast<std::size_t>(v)] == 0) w0 += g.vertex_weight(v);
  }

  // Persistent exact gain cache (DESIGN.md §3.7): one full O(n + arcs)
  // build, then delta-maintained through every move AND every rollback, so
  // later passes seed from an O(n) boundary sweep instead of re-deriving
  // gains from the arcs, and the drain never pays the old "first touch
  // this pass" full recompute.  A vertex is boundary iff it has a crossing
  // arc, i.e. ext > 0; with gain = ext - int and wdeg = ext + int that is
  // exactly gain + wdeg > 0, so the boundary test needs no neighbour scan.
  std::vector<wgt_t> gain(static_cast<std::size_t>(n));
  std::vector<wgt_t> wdeg(static_cast<std::size_t>(n));
  std::vector<wgt_t> selfw(static_cast<std::size_t>(n));
  std::vector<char> moved(static_cast<std::size_t>(n));

  // Parallel-seeding scratch, alive across passes.  Scans write only
  // per-vertex slots they own (contiguous blocks) and per-thread buffers,
  // so they are race-free; concatenating the buffers in block order
  // reproduces the serial append sequence exactly.
  const bool par_seed = seed_pool && seed_pool->size() > 1 && n >= 256;
  std::vector<std::vector<std::pair<wgt_t, vid_t>>> seed_bufs;
  std::vector<std::uint64_t> seed_tw;
  if (par_seed) {
    seed_bufs.resize(static_cast<std::size_t>(seed_pool->size()));
    seed_tw.assign(static_cast<std::size_t>(seed_pool->size()), 0);
  }

  wgt_t maxwdeg = 0;
  auto init_range = [&](std::int64_t b, std::int64_t e,
                        wgt_t* mw_out) -> std::uint64_t {
    wgt_t mw = 0;
    std::uint64_t w = 0;
    for (std::int64_t vi = b; vi < e; ++vi) {
      const auto v = static_cast<vid_t>(vi);
      const auto nbrs = g.neighbors(v);
      const auto wts = g.neighbor_weights(v);
      const part_t sv = side[static_cast<std::size_t>(v)];
      wgt_t wd = 0, gn = 0, sw = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        wd += wts[i];
        if (nbrs[i] == v) sw += wts[i];
        gn +=
            (side[static_cast<std::size_t>(nbrs[i])] != sv) ? wts[i] : -wts[i];
      }
      wdeg[static_cast<std::size_t>(v)] = wd;
      selfw[static_cast<std::size_t>(v)] = sw;
      gain[static_cast<std::size_t>(v)] = gn;
      mw = std::max(mw, wd);
      w += 1 + nbrs.size();
    }
    *mw_out = mw;
    return w;
  };
  if (par_seed) {
    std::vector<wgt_t> tmax(static_cast<std::size_t>(seed_pool->size()), 0);
    std::fill(seed_tw.begin(), seed_tw.end(), 0);
    seed_pool->parallel_for_blocked(
        n, [&](int t, std::int64_t b, std::int64_t e) {
          seed_tw[static_cast<std::size_t>(t)] =
              init_range(b, e, &tmax[static_cast<std::size_t>(t)]);
        });
    for (std::size_t t = 0; t < seed_tw.size(); ++t) {
      maxwdeg = std::max(maxwdeg, tmax[t]);
      stats.work_units += seed_tw[t];
      stats.seed_work += seed_tw[t];
      if (seed_thread_work) (*seed_thread_work)[t] += seed_tw[t];
    }
  } else {
    const std::uint64_t w = init_range(0, n, &maxwdeg);
    stats.work_units += w;
    stats.seed_work += w;
  }

  // Heap key mode: a gain never exceeds the vertex's weighted degree, so
  // the packed 8-byte heap is exact whenever the heaviest vertex stays
  // comfortably inside 31 bits.
  GainHeap heap;
  heap.reset(maxwdeg < (wgt_t{1} << 30));
  std::vector<vid_t> move_seq;
  // Metis' FM_2WayCutRefine stopping rule: a pass ends once this many
  // moves have passed without a new best cut.  Draining the whole heap
  // instead moves (and then rolls back) nearly every boundary vertex.
  const std::size_t limit = std::min<std::size_t>(
      std::max<std::size_t>(static_cast<std::size_t>(n) / 100, 15), 100);

  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    std::fill(moved.begin(), moved.end(), 0);

    // Seed with boundary vertices — an O(1)-per-vertex sweep over the
    // maintained gains (the old code re-derived every gain from the arcs
    // here, every pass).
    heap.clear();
    if (par_seed) {
      for (auto& buf : seed_bufs) buf.clear();
      std::fill(seed_tw.begin(), seed_tw.end(), 0);
      seed_pool->parallel_for_blocked(
          n, [&](int t, std::int64_t b, std::int64_t e) {
            auto& buf = seed_bufs[static_cast<std::size_t>(t)];
            std::uint64_t w = 0;
            for (std::int64_t vi = b; vi < e; ++vi) {
              const auto v = static_cast<vid_t>(vi);
              w += 1;
              if (gain[static_cast<std::size_t>(v)] +
                      wdeg[static_cast<std::size_t>(v)] >
                  0) {
                w += 1;
                buf.emplace_back(gain[static_cast<std::size_t>(v)], v);
              }
            }
            seed_tw[static_cast<std::size_t>(t)] = w;
          });
      for (std::size_t t = 0; t < seed_bufs.size(); ++t) {
        for (const auto& [gn, v] : seed_bufs[t]) heap.append(gn, v);
        stats.work_units += seed_tw[t];
        stats.seed_work += seed_tw[t];
        if (seed_thread_work) (*seed_thread_work)[t] += seed_tw[t];
      }
    } else {
      for (vid_t v = 0; v < n; ++v) {
        stats.work_units += 1;
        stats.seed_work += 1;
        if (gain[static_cast<std::size_t>(v)] +
                wdeg[static_cast<std::size_t>(v)] >
            0) {
          stats.work_units += 1;
          stats.seed_work += 1;
          heap.append(gain[static_cast<std::size_t>(v)], v);
        }
      }
    }
    heap.build();

    // FM pass: move vertices one at a time (hill-climbing allowed),
    // remember the best prefix, roll back the rest.
    move_seq.clear();
    wgt_t best_cut = cur_cut;
    std::size_t best_prefix = 0;
    wgt_t sim_cut = cur_cut;

    while (!heap.empty()) {
      const auto [gn, v] = heap.pop();
      if (moved[static_cast<std::size_t>(v)]) continue;
      if (gn != gain[static_cast<std::size_t>(v)]) continue;  // stale
      // Balance check for the move.
      const part_t sv = side[static_cast<std::size_t>(v)];
      const wgt_t vw = g.vertex_weight(v);
      const wgt_t new_w0 = (sv == 0) ? w0 - vw : w0 + vw;
      const wgt_t mid = (min0 + max0) / 2;
      const bool in_window = (new_w0 >= min0 && new_w0 <= max0);
      const bool toward_window =
          std::abs(new_w0 - mid) < std::abs(w0 - mid);
      if (!in_window && !toward_window) continue;
      moved[static_cast<std::size_t>(v)] = 1;
      side[static_cast<std::size_t>(v)] = 1 - sv;
      w0 = new_w0;
      sim_cut -= gn;
      move_seq.push_back(v);
      if (sim_cut < best_cut) {
        best_cut = sim_cut;
        best_prefix = move_seq.size();
      }
      // Update neighbour gains.  Every neighbour's gain gets the exact
      // delta — including already-moved ones, which the old code left
      // stale — so the cache stays globally exact and the next pass can
      // seed without recomputing.  Only unmoved neighbours are (re)pushed,
      // exactly as before, so the heap's value sequence is unchanged.
      const auto nbrs = g.neighbors(v);
      const auto wts = g.neighbor_weights(v);
      stats.work_units += nbrs.size();
      stats.drain_work += nbrs.size();
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const vid_t u = nbrs[i];
        if (u == v) continue;  // self-arcs never change crossing state
        // v switched sides: if the arc now crosses, u's gain rises by
        // 2*w(u,v); if it became internal, it falls by 2*w(u,v).
        const wgt_t delta = (side[static_cast<std::size_t>(u)] !=
                             side[static_cast<std::size_t>(v)])
                                ? 2 * wts[i]
                                : -2 * wts[i];
        gain[static_cast<std::size_t>(u)] += delta;
        if (!moved[static_cast<std::size_t>(u)]) {
          heap.push(gain[static_cast<std::size_t>(u)], u);
        }
      }
      // v's own flip negates its non-self gain (ext and int swap); the
      // self-arc contribution -selfw is side-invariant.
      gain[static_cast<std::size_t>(v)] =
          -gn - 2 * selfw[static_cast<std::size_t>(v)];
      // Checked only after the gain updates, so the rollback below
      // unwinds whole moves and leaves the cache exact.
      if (move_seq.size() - best_prefix > limit) break;
    }
    stats.moves += move_seq.size();

    // Roll back moves past the best prefix.  When the pass improved
    // (best_prefix > 0) the loop continues, so the inverse gain deltas
    // keep the cache exact for the next seeding sweep.  When it did not
    // (best_prefix == 0) this is the terminal pass — the cache is dead,
    // so the rollback is just the cheap side flips.
    const bool fix_gains = best_prefix > 0;
    for (std::size_t i = move_seq.size(); i-- > best_prefix;) {
      const vid_t v = move_seq[i];
      const part_t sv = side[static_cast<std::size_t>(v)];
      side[static_cast<std::size_t>(v)] = 1 - sv;
      w0 += (sv == 0) ? -g.vertex_weight(v) : g.vertex_weight(v);
      if (!fix_gains) continue;
      const auto nbrs = g.neighbors(v);
      const auto wts = g.neighbor_weights(v);
      stats.work_units += nbrs.size();
      stats.drain_work += nbrs.size();
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        const vid_t u = nbrs[j];
        if (u == v) continue;
        gain[static_cast<std::size_t>(u)] +=
            (side[static_cast<std::size_t>(u)] !=
             side[static_cast<std::size_t>(v)])
                ? 2 * wts[j]
                : -2 * wts[j];
      }
      gain[static_cast<std::size_t>(v)] =
          -gain[static_cast<std::size_t>(v)] -
          2 * selfw[static_cast<std::size_t>(v)];
    }
    const wgt_t new_cut = best_cut;
    const bool improved = new_cut < cur_cut;
    cur_cut = new_cut;
    if (!improved) break;
  }
  stats.cut_after = cur_cut;
  return stats;
}

}  // namespace gp
