// Greedy Graph Growing bisection (GGGP) and 2-way FM refinement — the
// initial-partitioning toolkit of the Metis-style baseline.
#pragma once

#include <cstdint>

#include "core/csr_graph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace gp {

struct BisectionResult {
  std::vector<part_t> side;  ///< 0 or 1 per vertex
  wgt_t cut = 0;
  wgt_t weight0 = 0;  ///< total vertex weight on side 0
  std::uint64_t work_units = 0;
};

/// Grows side 0 from a random seed in breadth-first fashion, always adding
/// the frontier vertex with the largest edge-cut decrease, until side 0
/// holds ~`target0` vertex weight (the paper's "almost half").  Runs
/// `trials` independent growths and keeps the best cut.
[[nodiscard]] BisectionResult gggp_bisect(const CsrGraph& g, wgt_t target0,
                                          Rng& rng, int trials = 4);

struct FmStats {
  std::uint64_t work_units = 0;  ///< seed_work + drain_work
  /// Gain-cache build (one O(n + arcs) sweep) plus the per-pass O(n)
  /// boundary sweeps: embarrassingly parallel, see seed_pool below.
  std::uint64_t seed_work = 0;
  /// Heap-drain portion (sequential moves + rollback with exact inverse
  /// gain deltas): inherently serial.
  std::uint64_t drain_work = 0;
  /// Moves applied over all passes, rolled-back ones included.
  std::uint64_t moves = 0;
  int passes = 0;
  wgt_t cut_before = 0;
  wgt_t cut_after = 0;
};

/// Boundary Fiduccia-Mattheyses refinement of a bisection (the "modified
/// Kernighan-Lin" of Metis): repeated passes of single-vertex moves with
/// hill-climbing and rollback to the best prefix, under the balance
/// window [min0, max0] for side-0 weight.  As in Metis' FM_2WayCutRefine,
/// a pass ends once min(max(n / 100, 15), 100) moves have passed without a
/// new best cut, rather than draining the whole heap: past that point the
/// moves are almost always rolled back.
///
/// `cut_hint`, when >= 0, is trusted as the exact current cut of `side`
/// (callers coming straight from gggp_bisect already know it) and skips
/// the O(E) recompute; FM tracks the cut exactly from there, so
/// `cut_after` always equals bisection_cut of the refined side.
///
/// `seed_pool`, when non-null with more than one worker, parallelizes the
/// per-pass boundary-seeding scan across its threads.  The result is
/// byte-identical to the serial scan: per-thread buffers cover contiguous
/// vertex blocks, are concatenated in block order (so the heap receives
/// the same append sequence), and the heap's (gain, vertex) keys are
/// distinct, so the drain pops the same move sequence regardless of
/// layout.  `seed_thread_work`, when provided (sized >= pool size),
/// accumulates the measured per-thread seeding work for model charging.
FmStats fm_refine_bisection(const CsrGraph& g, std::vector<part_t>& side,
                            wgt_t min0, wgt_t max0, int max_passes = 8,
                            wgt_t cut_hint = -1,
                            ThreadPool* seed_pool = nullptr,
                            std::vector<std::uint64_t>* seed_thread_work =
                                nullptr);

/// Cut of a 2-way partition given as a side vector.
[[nodiscard]] wgt_t bisection_cut(const CsrGraph& g,
                                  const std::vector<part_t>& side);

}  // namespace gp
