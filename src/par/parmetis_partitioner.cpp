#include "par/parmetis_partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "core/audit.hpp"
#include "core/driver_harness.hpp"
#include "core/matching.hpp"
#include "par/comm.hpp"
#include "serial/hem_matching.hpp"
#include "serial/initpart_engine.hpp"
#include "util/rng.hpp"

namespace gp {

namespace {

/// Vertex-block distribution: rank r owns global ids
/// [vtxdist[r], vtxdist[r+1]).  Rebuilt per level.
struct Distribution {
  std::vector<vid_t> vtxdist;

  [[nodiscard]] int owner(vid_t v) const {
    // vtxdist is small (ranks+1): linear scan beats binary search here.
    for (std::size_t r = 1; r < vtxdist.size(); ++r) {
      if (v < vtxdist[r]) return static_cast<int>(r - 1);
    }
    return static_cast<int>(vtxdist.size()) - 2;
  }
  [[nodiscard]] vid_t begin(int r) const {
    return vtxdist[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] vid_t end(int r) const {
    return vtxdist[static_cast<std::size_t>(r) + 1];
  }

  static Distribution block(vid_t n, int ranks) {
    Distribution d;
    d.vtxdist.resize(static_cast<std::size_t>(ranks) + 1);
    for (int r = 0; r <= ranks; ++r) {
      d.vtxdist[static_cast<std::size_t>(r)] = static_cast<vid_t>(
          (static_cast<std::int64_t>(n) * r) / ranks);
    }
    return d;
  }
};

struct MatchRequest {
  vid_t v, u;  ///< v requests to match u (owner of u decides)
  wgt_t w;
};

/// A vertex that has an outstanding remote match request: not matched,
/// but not grantable to other requesters either (prevents the classic
/// A-requests-B-while-C-is-granted-A inconsistency).
inline constexpr vid_t kPendingVid = -2;

struct Grant {
  vid_t v, u;
};

struct CmapMsg {
  vid_t follower;
  vid_t coarse_id;
};

struct MoveProposal {
  vid_t  v;
  part_t from, to;
  wgt_t  gain;
};

/// Ghost-exchange volume of one (level graph, distribution): per rank,
/// the boundary vertices (owned vertices with at least one remote
/// neighbour) and the distinct remote ranks they neighbour, each maxed
/// over ranks.  It depends on nothing but the graph and the distribution,
/// so one census per level serves every exchange charged on that level.
struct GhostCensus {
  std::uint64_t max_items = 0;
  std::uint64_t max_msgs = 0;
};

GhostCensus ghost_census(const CsrGraph& g, const Distribution& dist) {
  const int P = static_cast<int>(dist.vtxdist.size()) - 1;
  GhostCensus census;
  std::vector<char> dests(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const vid_t lo = dist.begin(r), hi = dist.end(r);
    std::uint64_t items = 0;
    std::fill(dests.begin(), dests.end(), 0);
    for (vid_t v = lo; v < hi; ++v) {
      bool boundary = false;
      for (const vid_t u : g.neighbors(v)) {
        if (u >= lo && u < hi) continue;
        boundary = true;
        dests[static_cast<std::size_t>(dist.owner(u))] = 1;
      }
      if (boundary) ++items;
    }
    std::uint64_t msgs = 0;
    for (const char d : dests) msgs += d;
    census.max_items = std::max(census.max_items, items);
    census.max_msgs = std::max(census.max_msgs, msgs);
  }
  return census;
}

/// Meters a ghost-state exchange: each rank sends one message to every
/// neighbouring rank, and the state of each boundary vertex (elem_bytes)
/// is charged once per rank, however many remote ranks neighbour it.
/// (Data itself is read from the shared arrays afterwards — in-process
/// simulation of the ghost update.)
void charge_ghost_exchange(CostLedger& ledger, const GhostCensus& census,
                           const std::string& label, std::size_t elem_bytes) {
  ledger.charge_messages("comm/ghost/" + label, census.max_msgs,
                         census.max_items * elem_bytes);
}

/// One full distributed V-cycle.  Received records pass defensive bounds
/// checks before they touch shared arrays — a garbled payload (a `payload`
/// fault rule) is discarded like a lost message and the existing loss
/// recovery (pending revert, asymmetric-match repair, cmap resend) heals
/// it.  In-range garble survives delivery and is caught by the phase
/// audits instead, which throw AuditError for the run-level ladder.
void parmetis_attempt(DriverRun& run, int P, SimComm& comm) {
  const CsrGraph& g = run.g;
  const PartitionOptions& opts = run.opts;
  PartitionResult& res = run.res;
  /// Bounded recovery: how many resend rounds a lost cmap message gets
  /// before the run aborts with CommFailure.
  constexpr int kMaxResendRounds = 4;

  const AuditLevel audit = opts.audit_level;
  // Receive-side rejects, tallied per rank inside supersteps (one slot
  // per rank: race-free) and drained on the single-threaded path after.
  std::vector<std::uint64_t> discards(static_cast<std::size_t>(P), 0);
  auto drain_discards = [&](const std::string& where) {
    std::uint64_t total = 0;
    for (auto& d : discards) {
      total += d;
      d = 0;
    }
    if (total == 0) return;
    res.health.payload_discards += total;
    res.health.degraded = true;
    res.health.note("parmetis: discarded " + std::to_string(total) +
                    " malformed record(s) in " + where +
                    " (garbled payload)");
  };
  ShedWatch shed(run);

  struct Level {
    CsrGraph graph;             // graph at this (coarse) level
    std::vector<vid_t> cmap;    // fine -> coarse mapping producing it
    Distribution dist;          // distribution of the fine graph
  };
  std::vector<Level> levels;
  // census[i]: ghost census of level i's fine graph under its
  // distribution.  Coarsening level i and uncoarsening level i see the
  // same (graph, distribution), so they share the entry.
  std::vector<GhostCensus> census;

  const vid_t target = opts.coarsen_target();
  // With folding enabled, the distributed coarsening hands over earlier.
  const vid_t distributed_target =
      opts.par_fold_threshold > 0
          ? std::max(target, opts.par_fold_threshold)
          : target;
  // Metis 5 `maxvwgt`: no merge may build a coarse vertex heavier than
  // 1.5x the mean vertex weight of a target-sized graph.  Two-hop pairs
  // always respect it; HEM candidates and the relaxed balance moves of
  // uncoarsening only once two-hop has merged a pair (`capped`), so
  // graphs two-hop never touches (meshes) keep their exact V-cycle.
  const auto max_vwgt = static_cast<wgt_t>(
      1.5 * static_cast<double>(g.total_vertex_weight()) /
      static_cast<double>(target));
  bool capped = false;
  const CsrGraph* cur = &g;
  Distribution dist = Distribution::block(g.num_vertices(), P);
  int lvl = 0;

  // =========================== Coarsening ===========================
  while (cur->num_vertices() > distributed_target) {
    check_cancelled(opts, "par/coarsen");
    const vid_t n = cur->num_vertices();
    const std::string L = "/L" + std::to_string(lvl);
    std::vector<vid_t> match(static_cast<std::size_t>(n), kInvalidVid);
    census.push_back(ghost_census(*cur, dist));
    const GhostCensus ghosts = census.back();
    // Owned vertices still unmatched after the last commit (one slot per
    // rank: race-free).
    std::vector<vid_t> unmatched(static_cast<std::size_t>(P), 0);

    // -- matching passes (paper: even pass requests flow only to lower
    // ranks, odd pass to higher; one aggregated message per rank pair) --
    const int kPasses = 4;
    for (int pass = 0; pass < kPasses; ++pass) {
      charge_ghost_exchange(res.ledger, ghosts, "matchstate" + L,
                            sizeof(vid_t));

      // Request superstep: local pairing + remote requests.
      comm.superstep(
          "coarsen/match/request" + L + "/p" + std::to_string(pass),
          [&](int r, Mailbox& mb) -> std::uint64_t {
            std::uint64_t work = 0;
            Rng rng(opts.seed + static_cast<std::uint64_t>(lvl) * 131 +
                    static_cast<std::uint64_t>(pass) * 17 +
                    static_cast<std::uint64_t>(r));
            std::vector<std::vector<MatchRequest>> out(
                static_cast<std::size_t>(P));
            for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
              if (match[static_cast<std::size_t>(v)] != kInvalidVid) continue;
              const auto nbrs = cur->neighbors(v);
              const auto wts = cur->neighbor_weights(v);
              work += nbrs.size();
              vid_t best = kInvalidVid;
              wgt_t best_w = -1;
              const std::size_t rot =
                  nbrs.empty() ? 0 : rng.next_below(nbrs.size());
              for (std::size_t j = 0; j < nbrs.size(); ++j) {
                const std::size_t idx = (j + rot) % nbrs.size();
                const vid_t u = nbrs[idx];
                if (match[static_cast<std::size_t>(u)] != kInvalidVid)
                  continue;
                if (capped && cur->vertex_weight(v) + cur->vertex_weight(u) >
                                  max_vwgt) {
                  continue;
                }
                if (wts[idx] > best_w) {
                  best_w = wts[idx];
                  best = u;
                }
              }
              if (best == kInvalidVid) continue;
              const int ro = dist.owner(best);
              if (ro == r) {
                // Local pair: owner commits both sides immediately.
                if (match[static_cast<std::size_t>(best)] == kInvalidVid) {
                  match[static_cast<std::size_t>(v)] = best;
                  match[static_cast<std::size_t>(best)] = v;
                }
              } else {
                const bool allowed = (pass % 2 == 0) ? (ro < r) : (ro > r);
                if (allowed) {
                  match[static_cast<std::size_t>(v)] = kPendingVid;
                  out[static_cast<std::size_t>(ro)].push_back(
                      {v, best, best_w});
                }
              }
            }
            for (int dst = 0; dst < P; ++dst) {
              if (!out[static_cast<std::size_t>(dst)].empty()) {
                mb.send(dst, out[static_cast<std::size_t>(dst)]);
              }
            }
            return work;
          });

      // Grant superstep: owners arbitrate (heaviest request wins).  A
      // request whose endpoints fall outside the vertex range travelled
      // through a garbled payload: reject it before it can index.
      comm.superstep(
          "coarsen/match/grant" + L + "/p" + std::to_string(pass),
          [&](int r, Mailbox& mb) -> std::uint64_t {
            std::uint64_t work = 0;
            std::vector<MatchRequest> reqs;
            for (const auto& m : mb.inbox()) {
              const auto batch = m.as<MatchRequest>();
              reqs.insert(reqs.end(), batch.begin(), batch.end());
            }
            std::sort(reqs.begin(), reqs.end(),
                      [](const MatchRequest& a, const MatchRequest& b) {
                        return a.w > b.w;
                      });
            std::vector<std::vector<Grant>> grants(
                static_cast<std::size_t>(P));
            for (const auto& rq : reqs) {
              ++work;
              if (rq.u < 0 || rq.u >= n || rq.v < 0 || rq.v >= n) {
                ++discards[static_cast<std::size_t>(r)];
                continue;
              }
              if (match[static_cast<std::size_t>(rq.u)] != kInvalidVid)
                continue;
              match[static_cast<std::size_t>(rq.u)] = rq.v;
              grants[static_cast<std::size_t>(dist.owner(rq.v))].push_back(
                  {rq.v, rq.u});
            }
            for (int dst = 0; dst < P; ++dst) {
              if (!grants[static_cast<std::size_t>(dst)].empty()) {
                mb.send(dst, grants[static_cast<std::size_t>(dst)]);
              }
            }
            return work;
          });

      // Commit superstep: requesters adopt their grants; denied requests
      // revert from pending to unmatched for the next pass.  A genuine
      // grant always targets a pending requester — anything else is a
      // garbled payload and is discarded (the asymmetric match it leaves
      // at the owner is dissolved by the repair sweep below).
      comm.superstep(
          "coarsen/match/commit" + L + "/p" + std::to_string(pass),
          [&](int r, Mailbox& mb) -> std::uint64_t {
            std::uint64_t work = 0;
            for (const auto& m : mb.inbox()) {
              for (const auto& gr : m.as<Grant>()) {
                ++work;
                if (gr.v < 0 || gr.v >= n || gr.u < 0 || gr.u >= n ||
                    match[static_cast<std::size_t>(gr.v)] != kPendingVid) {
                  ++discards[static_cast<std::size_t>(r)];
                  continue;
                }
                match[static_cast<std::size_t>(gr.v)] = gr.u;
              }
            }
            vid_t left = 0;
            for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
              ++work;
              vid_t& m = match[static_cast<std::size_t>(v)];
              if (m == kPendingVid) m = kInvalidVid;
              if (m == kInvalidVid) ++left;
            }
            unmatched[static_cast<std::size_t>(r)] = left;
            return work;
          });
      drain_discards("coarsen/match" + L + "/p" + std::to_string(pass));
    }

    // Recovery (fault plans only): a dropped grant — or a discarded
    // garbled one — leaves the owner pointing at a requester whose
    // pending state reverted: an asymmetric match that would corrupt the
    // coarse numbering.  Dissolve such edges; the vertex self-matches
    // below like any other leftover.
    if (run.injector) {
      std::vector<std::uint64_t> repairs(static_cast<std::size_t>(P), 0);
      comm.superstep(
          "coarsen/match/repair" + L, [&](int r, Mailbox&) -> std::uint64_t {
            std::uint64_t work = 0;
            for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
              ++work;
              const vid_t m = match[static_cast<std::size_t>(v)];
              if (m == kInvalidVid || m == v) continue;
              if (match[static_cast<std::size_t>(m)] != v) {
                match[static_cast<std::size_t>(v)] = kInvalidVid;
                ++repairs[static_cast<std::size_t>(r)];
                ++unmatched[static_cast<std::size_t>(r)];
              }
            }
            return work;
          });
      for (const auto c : repairs) res.health.match_repairs += c;
    }

    // Two-hop matching (Metis 5 Match_2HopAny): where HEM leaves more than
    // 10% of the vertices unmatched, pair unmatched vertices of degree 1-2
    // that share a neighbour — the leaves of a star, which HEM can only
    // give one per hub and level.  Each rank pairs its own vertices only,
    // so the pass sends nothing and the leader rule is unchanged.  The
    // unmatched total is one scalar allreduce; every rank can then derive
    // the pair count from n, that total and the allgathered leader counts.
    std::uint64_t unmatched_total = 0;
    for (const vid_t c : unmatched)
      unmatched_total += static_cast<std::uint64_t>(c);
    if (P > 1) {
      res.ledger.charge_messages("comm/coarsen/unmatched" + L,
                                 static_cast<std::uint64_t>(P - 1),
                                 static_cast<std::uint64_t>(P) * sizeof(vid_t));
    }
    if (10 * unmatched_total > static_cast<std::uint64_t>(n)) {
      std::vector<vid_t> pairs(static_cast<std::size_t>(P), 0);
      comm.superstep(
          "coarsen/match/2hop" + L, [&](int r, Mailbox&) -> std::uint64_t {
            std::uint64_t work = 0;
            std::vector<std::pair<vid_t, vid_t>> keyed;  // (neighbour, v)
            for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
              ++work;
              if (match[static_cast<std::size_t>(v)] != kInvalidVid) continue;
              const auto nbrs = cur->neighbors(v);
              if (nbrs.size() > 2) continue;
              for (const vid_t u : nbrs) keyed.emplace_back(u, v);
            }
            std::sort(keyed.begin(), keyed.end());
            work += keyed.size();
            // `waiting`: an unmatched vertex of the current neighbour's
            // group still looking for a partner.
            vid_t waiting = kInvalidVid;
            for (std::size_t i = 0; i < keyed.size(); ++i) {
              const vid_t v = keyed[i].second;
              if (i > 0 && keyed[i].first != keyed[i - 1].first)
                waiting = kInvalidVid;
              if (match[static_cast<std::size_t>(v)] != kInvalidVid) continue;
              if (waiting != kInvalidVid &&
                  cur->vertex_weight(waiting) + cur->vertex_weight(v) <=
                      max_vwgt) {
                match[static_cast<std::size_t>(waiting)] = v;
                match[static_cast<std::size_t>(v)] = waiting;
                ++pairs[static_cast<std::size_t>(r)];
                waiting = kInvalidVid;
              } else {
                waiting = v;
              }
            }
            return work;
          });
      for (const vid_t c : pairs) capped = capped || c > 0;
    }

    // Self-match leftovers.
    comm.superstep("coarsen/match/self" + L,
                   [&](int r, Mailbox&) -> std::uint64_t {
                     std::uint64_t work = 0;
                     for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
                       ++work;
                       if (match[static_cast<std::size_t>(v)] == kInvalidVid) {
                         match[static_cast<std::size_t>(v)] = v;
                       }
                     }
                     return work;
                   });

    // In-range garble that slipped past the receive checks surfaces here:
    // the repaired+self-matched array must be a valid involution.
    if (audit != AuditLevel::kOff) {
      AuditFailure mf = audit_matching(match, audit);
      require_audit(run, std::move(mf));
    }

    // -- coarse numbering: cross-rank pair's leader is the lower-rank
    // endpoint (tie: lower id); ranks get contiguous coarse id ranges.
    // Rank `r` owns `v` --
    auto is_leader = [&](int r, vid_t v) {
      const vid_t m = match[static_cast<std::size_t>(v)];
      if (m == v) return true;
      if (m >= dist.begin(r) && m < dist.end(r)) return v < m;
      return r < dist.owner(m);
    };
    std::vector<vid_t> leader_count(static_cast<std::size_t>(P), 0);
    comm.superstep("coarsen/cmap/count" + L,
                   [&](int r, Mailbox&) -> std::uint64_t {
                     vid_t c = 0;
                     for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
                       if (is_leader(r, v)) ++c;
                     }
                     leader_count[static_cast<std::size_t>(r)] = c;
                     return static_cast<std::uint64_t>(dist.end(r) -
                                                       dist.begin(r));
                   });
    {
      std::vector<std::vector<vid_t>> contrib(static_cast<std::size_t>(P));
      for (int r = 0; r < P; ++r)
        contrib[static_cast<std::size_t>(r)] = {
            leader_count[static_cast<std::size_t>(r)]};
      comm.allgather("leader_count" + L, contrib);
    }
    std::vector<vid_t> coarse_off(static_cast<std::size_t>(P) + 1, 0);
    for (int r = 0; r < P; ++r) {
      coarse_off[static_cast<std::size_t>(r) + 1] =
          coarse_off[static_cast<std::size_t>(r)] +
          leader_count[static_cast<std::size_t>(r)];
    }
    const vid_t n_coarse = coarse_off[static_cast<std::size_t>(P)];

    std::vector<vid_t> cmap(static_cast<std::size_t>(n), kInvalidVid);
    // Leaders label themselves; cross-rank followers get a message.  The
    // same sweep sizes each rank's follower adjacency for the shipadj
    // meter below (one slot per rank: race-free).
    std::vector<std::uint64_t> ship_bytes(static_cast<std::size_t>(P), 0);
    std::vector<std::uint64_t> ship_msgs(static_cast<std::size_t>(P), 0);
    comm.superstep(
        "coarsen/cmap/assign" + L, [&](int r, Mailbox& mb) -> std::uint64_t {
          std::uint64_t work = 0;
          vid_t next = coarse_off[static_cast<std::size_t>(r)];
          std::vector<std::vector<CmapMsg>> out(static_cast<std::size_t>(P));
          for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
            ++work;
            if (!is_leader(r, v)) {
              const vid_t m = match[static_cast<std::size_t>(v)];
              if (m < dist.begin(r) || m >= dist.end(r)) {
                ship_bytes[static_cast<std::size_t>(r)] +=
                    static_cast<std::uint64_t>(cur->degree(v)) *
                    (sizeof(vid_t) + sizeof(wgt_t));
                ++ship_msgs[static_cast<std::size_t>(r)];
              }
              continue;
            }
            cmap[static_cast<std::size_t>(v)] = next;
            const vid_t m = match[static_cast<std::size_t>(v)];
            if (m != v) {
              const int ro = dist.owner(m);
              if (ro == r) {
                cmap[static_cast<std::size_t>(m)] = next;
              } else {
                out[static_cast<std::size_t>(ro)].push_back({m, next});
              }
            }
            ++next;
          }
          for (int dst = 0; dst < P; ++dst) {
            if (!out[static_cast<std::size_t>(dst)].empty()) {
              mb.send(dst, out[static_cast<std::size_t>(dst)]);
            }
          }
          return work;
        });
    // A garbled label message is discarded like a lost one: the follower
    // stays unlabeled and the bounded resend below repairs it.
    auto apply_cmap_msgs = [&](int r, Mailbox& mb) -> std::uint64_t {
      std::uint64_t work = 0;
      for (const auto& m : mb.inbox()) {
        for (const auto& cm : m.as<CmapMsg>()) {
          ++work;
          if (cm.follower < 0 || cm.follower >= n || cm.coarse_id < 0 ||
              cm.coarse_id >= n_coarse) {
            ++discards[static_cast<std::size_t>(r)];
            continue;
          }
          cmap[static_cast<std::size_t>(cm.follower)] = cm.coarse_id;
        }
      }
      return work;
    };
    comm.superstep("coarsen/cmap/followers" + L, apply_cmap_msgs);
    drain_discards("coarsen/cmap" + L);

    // Recovery (fault plans only): a dropped CmapMsg leaves a cross-rank
    // follower unlabeled, which would corrupt contraction.  Leaders rescan
    // their pairs and resend for a bounded number of rounds; loss that
    // outlives the rounds aborts the run cleanly.
    if (run.injector) {
      for (int round = 0;; ++round) {
        bool missing = false;
        for (vid_t v = 0; v < n && !missing; ++v) {
          missing = cmap[static_cast<std::size_t>(v)] == kInvalidVid;
        }
        if (!missing) break;
        if (round >= kMaxResendRounds) {
          throw CommFailure("coarsen/cmap" + L +
                            ": follower labels still missing after " +
                            std::to_string(kMaxResendRounds) +
                            " resend rounds");
        }
        const std::string R = "/r" + std::to_string(round);
        std::vector<std::uint64_t> resent(static_cast<std::size_t>(P), 0);
        comm.superstep(
            "coarsen/cmap/resend" + L + R,
            [&](int r, Mailbox& mb) -> std::uint64_t {
              std::uint64_t work = 0;
              std::vector<std::vector<CmapMsg>> out(
                  static_cast<std::size_t>(P));
              for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
                ++work;
                if (!is_leader(r, v)) continue;
                const vid_t m = match[static_cast<std::size_t>(v)];
                if (m == v || cmap[static_cast<std::size_t>(m)] != kInvalidVid)
                  continue;
                out[static_cast<std::size_t>(dist.owner(m))].push_back(
                    {m, cmap[static_cast<std::size_t>(v)]});
                ++resent[static_cast<std::size_t>(r)];
              }
              for (int dst = 0; dst < P; ++dst) {
                if (!out[static_cast<std::size_t>(dst)].empty()) {
                  mb.send(dst, out[static_cast<std::size_t>(dst)]);
                }
              }
              return work;
            });
        for (const auto c : resent) res.health.messages_resent += c;
        comm.superstep("coarsen/cmap/redeliver" + L + R, apply_cmap_msgs);
        drain_discards("coarsen/cmap" + L + R);
      }
    }

    // -- contraction: cross-rank followers ship their (translated)
    // adjacency to the leader's rank; leaders merge their rows through
    // the shared dense-marker merge (CoarseRowMerger) --
    charge_ghost_exchange(res.ledger, ghosts, "cmap" + L, sizeof(vid_t));

    // Follower adjacency shipping (metered with real list sizes, counted
    // by the assign superstep).
    {
      std::uint64_t max_bytes = 0, max_msgs = 0;
      for (int r = 0; r < P; ++r) {
        const auto slot = static_cast<std::size_t>(r);
        max_bytes = std::max(max_bytes, ship_bytes[slot]);
        max_msgs = std::max(max_msgs,
                            std::min<std::uint64_t>(
                                ship_msgs[slot],
                                static_cast<std::uint64_t>(P - 1)));
      }
      res.ledger.charge_messages("comm/coarsen/shipadj" + L, max_msgs,
                                 max_bytes);
    }

    // Assemble the coarse graph (leaders merge; executed per rank).
    std::vector<eid_t> cdeg(static_cast<std::size_t>(n_coarse) + 1, 0);
    std::vector<wgt_t> cvwgt(static_cast<std::size_t>(n_coarse), 0);
    std::vector<std::vector<vid_t>> cadj_per_rank(
        static_cast<std::size_t>(P));
    std::vector<std::vector<wgt_t>> cwgt_per_rank(
        static_cast<std::size_t>(P));
    comm.superstep(
        "coarsen/contract" + L, [&](int r, Mailbox&) -> std::uint64_t {
          std::uint64_t work = 0;
          CoarseRowMerger merger(n_coarse);
          auto& adj = cadj_per_rank[static_cast<std::size_t>(r)];
          auto& wgt = cwgt_per_rank[static_cast<std::size_t>(r)];
          for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
            if (!is_leader(r, v)) continue;
            const vid_t c = cmap[static_cast<std::size_t>(v)];
            const vid_t m = match[static_cast<std::size_t>(v)];
            cvwgt[static_cast<std::size_t>(c)] =
                cur->vertex_weight(v) +
                (m != v ? cur->vertex_weight(m) : 0);
            cdeg[static_cast<std::size_t>(c) + 1] = static_cast<eid_t>(
                merger.merge(*cur, match, cmap, c, v, adj, wgt, work));
          }
          return work;
        });
    for (vid_t c = 0; c < n_coarse; ++c) {
      cdeg[static_cast<std::size_t>(c) + 1] +=
          cdeg[static_cast<std::size_t>(c)];
    }
    std::vector<vid_t> cadjncy;
    std::vector<wgt_t> cadjwgt;
    cadjncy.reserve(static_cast<std::size_t>(cdeg.back()));
    cadjwgt.reserve(static_cast<std::size_t>(cdeg.back()));
    for (int r = 0; r < P; ++r) {
      cadjncy.insert(cadjncy.end(),
                     cadj_per_rank[static_cast<std::size_t>(r)].begin(),
                     cadj_per_rank[static_cast<std::size_t>(r)].end());
      cadjwgt.insert(cadjwgt.end(),
                     cwgt_per_rank[static_cast<std::size_t>(r)].begin(),
                     cwgt_per_rank[static_cast<std::size_t>(r)].end());
    }
    CsrGraph coarse(std::move(cdeg), std::move(cadjncy), std::move(cadjwgt),
                    std::move(cvwgt));

    // The distributed state (per-rank partial adjacency, shipped
    // followers) has no cheaper recovery unit than the level itself, so a
    // failed conservation audit escalates straight to the run ladder.
    if (audit != AuditLevel::kOff) {
      AuditFailure f = audit_contraction(*cur, coarse, match, cmap, audit);
      require_audit(run, std::move(f));
    }

    if (static_cast<double>(n_coarse) >
        opts.min_shrink * static_cast<double>(n)) {
      break;  // stalled
    }

    Distribution coarse_dist;
    coarse_dist.vtxdist = coarse_off;
    levels.push_back({std::move(coarse), std::move(cmap), dist});
    cur = &levels.back().graph;
    dist = std::move(coarse_dist);
    ++lvl;
  }
  res.coarsen_levels = static_cast<int>(levels.size());
  res.coarsest_vertices = cur->num_vertices();

  // ======================= Initial partitioning =======================
  // All-to-all broadcast of the coarse graph, then every rank works
  // independently and the best cut wins (one allreduce).
  //
  // Without folding the replicated work is just the recursive bisection.
  // With folding (PT-Scotch style, Background II-B) each rank first
  // finishes the remaining coarsening levels serially on its replica —
  // the broadcast happens earlier on a larger graph, but all remaining
  // ghost-exchange and match-request rounds disappear.
  check_cancelled(opts, "par/initpart");
  {
    const std::uint64_t graph_bytes = cur->memory_bytes();
    res.ledger.charge_messages("comm/initpart/broadcast",
                               static_cast<std::uint64_t>(P - 1),
                               graph_bytes * static_cast<std::uint64_t>(P - 1) /
                                   static_cast<std::uint64_t>(P));
  }
  const bool folding = opts.par_fold_threshold > 0;
  std::vector<Partition> candidates(static_cast<std::size_t>(P));
  std::vector<wgt_t> cand_cut(static_cast<std::size_t>(P), 0);
  comm.superstep(
      folding ? "initpart/fold" : "initpart/rb",
      [&](int r, Mailbox&) -> std::uint64_t {
        Rng rng(opts.seed * 31 + static_cast<std::uint64_t>(r));
        std::uint64_t work = 0;

        // Replica coarsening (folding only): serial HEM multilevel from
        // the fold point down to the usual target.
        CsrGraph replica;
        const CsrGraph* base = cur;
        std::vector<std::vector<vid_t>> fold_cmaps;
        if (folding) {
          while (base->num_vertices() > target) {
            SerialMatchStats mst;
            MatchResult m = hem_match_serial(*base, rng, &mst);
            work += mst.work_units;
            if (static_cast<double>(m.n_coarse) >
                opts.min_shrink * static_cast<double>(base->num_vertices())) {
              break;
            }
            replica = contract_serial(*base, m.match, m.cmap, m.n_coarse);
            work += static_cast<std::uint64_t>(replica.num_arcs());
            fold_cmaps.push_back(std::move(m.cmap));
            base = &replica;
          }
        }

        // Shared initial-partitioning engine, stream-seed mode: byte-
        // compatible with the serial recursion.  Ranks already execute
        // concurrently on the comm layer's pool, so each rank runs the
        // engine without a nested pool of its own (nesting pool dispatch
        // inside a pool worker would deadlock).
        InitPartConfig icfg;
        icfg.k = opts.k;
        icfg.eps = opts.eps;
        icfg.seed_mode = InitSeedMode::kStream;
        InitPartStats ist;
        Partition cand = initpart_engine(*base, icfg, &rng, &ist);
        work += ist.work_units;

        // Project the candidate back through the replica's private
        // levels (with a refinement pass each, as the serial driver
        // does) so every rank's candidate lives on the SHARED fold-point
        // graph and cuts are comparable.
        if (folding) {
          for (std::size_t i = fold_cmaps.size(); i-- > 0;) {
            cand.where = project_partition(fold_cmaps[i], cand.where);
            // Note: intermediate graphs were not retained; refinement of
            // the private levels happens on the shared graph below via
            // the normal uncoarsening, which is where ParMetis folds the
            // quality back in.
          }
        }
        candidates[static_cast<std::size_t>(r)] = std::move(cand);
        cand_cut[static_cast<std::size_t>(r)] =
            edge_cut(*cur, candidates[static_cast<std::size_t>(r)]);
        work += static_cast<std::uint64_t>(cur->num_arcs());
        return work;
      });
  if (P > 1) {
    res.ledger.charge_messages("comm/initpart/allreduce",
                               static_cast<std::uint64_t>(P - 1),
                               static_cast<std::uint64_t>(P) * sizeof(wgt_t));
  }
  std::size_t best = 0;
  for (std::size_t r = 1; r < candidates.size(); ++r) {
    if (cand_cut[r] < cand_cut[best]) best = r;
  }
  Partition p = std::move(candidates[best]);
  if (audit != AuditLevel::kOff) {
    AuditFailure f = audit_partition(*cur, p, opts.k, /*eps=*/0.0,
                                     /*expected_cut=*/-1, audit);
    require_audit(run, std::move(f));
  }

  // =========================== Uncoarsening ===========================
  const wgt_t total = g.total_vertex_weight();
  const wgt_t max_pw = max_part_weight(total, opts.k, opts.eps);
  const wgt_t min_pw = min_part_weight(total, opts.k, opts.eps);

  // Gain cache (DESIGN.md §3.6), shared with the other refiners' design:
  // built per-rank on the coarsest graph, consumed by the propose
  // superstep for boundary selection, delta-updated during the replayed
  // commit, and projected per-rank at each level transition.
  GainCache gain_cache;
  bool cache_valid = false;

  for (std::size_t i = levels.size() + 1; i-- > 0;) {
    check_cancelled(opts, "par/uncoarsen");
    // Level i refines the graph whose coarse version is levels[i]; the
    // extra first iteration (i == levels.size()) refines the coarsest.
    const CsrGraph& fine =
        (i == levels.size()) ? *cur : (i == 0 ? g : levels[i - 1].graph);
    const Distribution& fdist =
        (i == levels.size())
            ? dist
            : levels[i].dist;
    const std::string L = "/L" + std::to_string(i);
    // Only the coarsest graph can lack a census: coarsening reached the
    // target without a pass on it.
    if (i == census.size()) census.push_back(ghost_census(fine, fdist));
    const GhostCensus ghosts = census[i];

    if (i < levels.size()) {
      // Projection: leaders send part labels to cross-rank followers.
      const auto& cmap = levels[i].cmap;
      std::vector<part_t> fwhere(
          static_cast<std::size_t>(fine.num_vertices()));
      comm.superstep("uncoarsen/project" + L,
                     [&](int r, Mailbox&) -> std::uint64_t {
                       std::uint64_t work = 0;
                       for (vid_t v = fdist.begin(r); v < fdist.end(r); ++v) {
                         fwhere[static_cast<std::size_t>(v)] =
                             p.where[static_cast<std::size_t>(
                                 cmap[static_cast<std::size_t>(v)])];
                         ++work;
                       }
                       return work;
                     });
      charge_ghost_exchange(res.ledger, ghosts, "project" + L,
                            sizeof(part_t));
      p.where = std::move(fwhere);
      if (audit != AuditLevel::kOff) {
        AuditFailure f = audit_partition(fine, p, opts.k, /*eps=*/0.0,
                                         /*expected_cut=*/-1, audit);
        require_audit(run, std::move(f));
      }
    }

    // Refinement passes (direction-alternating, pass-committed), shed
    // wholesale once the deadline watchdog expires.
    if (shed.expired()) {
      cache_valid = false;  // all later levels shed too
      continue;
    }

    // Build (coarsest level) or project (every other level) the gain
    // cache, each rank filling its owned vertex range.
    {
      std::vector<wgt_t> ed_parts(static_cast<std::size_t>(P), 0);
      if (!cache_valid) {
        gain_cache.init(fine, opts.k);
        comm.superstep("uncoarsen/gaincache-build" + L,
                       [&](int r, Mailbox&) -> std::uint64_t {
                         return gain_cache.build_range(
                             fine, p.where, fdist.begin(r), fdist.end(r),
                             &ed_parts[static_cast<std::size_t>(r)]);
                       });
        cache_valid = true;
      } else {
        const auto& cmap = levels[i].cmap;
        GainCache fine_cache;
        fine_cache.init(fine, opts.k);
        comm.superstep("uncoarsen/gaincache-project" + L,
                       [&](int r, Mailbox&) -> std::uint64_t {
                         return fine_cache.project_range(
                             gain_cache, fine, p.where, cmap,
                             fdist.begin(r), fdist.end(r),
                             &ed_parts[static_cast<std::size_t>(r)]);
                       });
        gain_cache = std::move(fine_cache);
      }
      wgt_t ed_sum = 0;
      for (const wgt_t x : ed_parts) ed_sum += x;
      gain_cache.finish_totals(ed_sum);
    }

    auto pw = partition_weights(fine, p);
    // A move must keep its destination under max_pw.  In a capped
    // hierarchy the coarsest vertices weigh up to 5% of a part, more than
    // the tolerance, so an overweight initial part may have no neighbour
    // with that much room.  There, as in Metis' balance mode, its vertices
    // propose only destinations that fit, and a destination fits as well
    // when it stays lighter than the source was.
    auto fits = [&](wgt_t from_w, wgt_t to_w, wgt_t vw) {
      return to_w + vw <= max_pw ||
             (capped && from_w > max_pw && to_w + vw < from_w);
    };
    int idle_passes = 0;
    for (int pass = 0; pass < opts.refine_passes; ++pass) {
      charge_ghost_exchange(res.ledger, ghosts,
                            "where" + L + "/p" + std::to_string(pass),
                            sizeof(part_t));
      const bool upward = (pass % 2 == 0);
      std::vector<std::vector<MoveProposal>> proposals(
          static_cast<std::size_t>(P));
      comm.superstep(
          "uncoarsen/refine/propose" + L + "/p" + std::to_string(pass),
          [&](int r, Mailbox&) -> std::uint64_t {
            std::uint64_t work = 0;
            auto& out = proposals[static_cast<std::size_t>(r)];
            for (vid_t v = fdist.begin(r); v < fdist.end(r); ++v) {
              if (!gain_cache.boundary(v)) {
                ++work;
                continue;
              }
              const part_t pv = p.where[static_cast<std::size_t>(v)];
              const bool over = pw[static_cast<std::size_t>(pv)] > max_pw;
              const wgt_t threshold =
                  over ? std::numeric_limits<wgt_t>::min()
                       : gain_cache.internal(v);
              const BestDest bd = gain_cache.best_destination(
                  fine, p.where, v, pv, threshold, [&](part_t q) {
                    if (capped && over &&
                        !fits(pw[static_cast<std::size_t>(pv)],
                              pw[static_cast<std::size_t>(q)],
                              fine.vertex_weight(v))) {
                      return false;
                    }
                    return upward ? (q > pv) : (q < pv);
                  });
              work += static_cast<std::uint64_t>(gain_cache.conn_count(v)) +
                      1 + bd.tie_scan;
              if (bd.part == kInvalidPart) continue;
              out.push_back(
                  {v, pv, bd.part, bd.conn - gain_cache.internal(v)});
            }
            return work;
          });

      // Proposal exchange (allgather) + deterministic global replay.
      comm.allgather("refine/proposals" + L + "/p" + std::to_string(pass),
                     proposals);
      std::vector<MoveProposal> all;
      for (const auto& pr : proposals)
        all.insert(all.end(), pr.begin(), pr.end());
      std::sort(all.begin(), all.end(),
                [](const MoveProposal& a, const MoveProposal& b) {
                  if (a.gain != b.gain) return a.gain > b.gain;
                  return a.v < b.v;
                });
      std::uint64_t committed = 0;
      comm.superstep(
          "uncoarsen/refine/commit" + L + "/p" + std::to_string(pass),
          [&](int r, Mailbox&) -> std::uint64_t {
            // Every rank replays the identical commit decision sequence;
            // rank 0's replay mutates the shared state, others charge
            // compute only (in a real run each rank updates its copy).
            std::uint64_t work = all.size();
            if (r != 0) return work;
            for (const auto& mv : all) {
              const wgt_t vw = fine.vertex_weight(mv.v);
              if (!fits(pw[static_cast<std::size_t>(mv.from)],
                        pw[static_cast<std::size_t>(mv.to)], vw)) {
                continue;
              }
              if (pw[static_cast<std::size_t>(mv.from)] - vw < min_pw &&
                  pw[static_cast<std::size_t>(mv.from)] <= max_pw) {
                continue;
              }
              pw[static_cast<std::size_t>(mv.from)] -= vw;
              pw[static_cast<std::size_t>(mv.to)] += vw;
              // Delta-update the cache before the label flips (apply_move
              // reads the neighbours' labels, not where[v]); the replay
              // is sequential, so the cache stays exact move by move.
              work += gain_cache.apply_move(fine, p.where, mv.v, mv.from,
                                            mv.to);
              p.where[static_cast<std::size_t>(mv.v)] = mv.to;
              ++committed;
            }
            return work;
          });
      // Both alternating directions must go idle before stopping.
      idle_passes = (committed == 0) ? idle_passes + 1 : 0;
      if (idle_passes >= 2) break;
    }
    if (audit == AuditLevel::kParanoid && cache_valid) {
      // Cache-vs-recompute cross-check: every boundary selection this
      // level came from the cache, so audit it like partition state.
      AuditFailure f = audit_gain_cache(fine, p.where, gain_cache, audit);
      require_audit(run, std::move(f));
    }
  }

  finish_partition(run, std::move(p));
}

}  // namespace

PartitionResult ParMetisPartitioner::run(const CsrGraph& g,
                                         const PartitionOptions& opts) const {
  const int P = std::max(1, opts.ranks);
  // The pool and the comm layer outlive the attempts: superstep and
  // message counters keep advancing across the restart, like the
  // injector's occurrence counters.
  std::optional<ThreadPool> pool;
  std::optional<SimComm> comm;
  DriverSpec spec;
  spec.attempt = [&](DriverRun& run) {
    if (!comm) {
      pool.emplace(P);
      pool->set_cancel_token(opts.cancel);
      pool->set_fault_injector(run.injector);
      comm.emplace(P, *pool, &run.res.ledger);
      comm->set_fault_injector(run.injector);
    }
    parmetis_attempt(run, P, *comm);
  };
  // Rung 1 restarts with corruption suppressed (the injector's `@N`
  // rules do not re-fire, `:p=` rules are muted); a failed restart hands
  // the whole run to the serial reference implementation.
  LadderRow& audit = spec.ladder.row(Failure::kAudit);
  audit = suppressed_restart_row();
  audit.steps.push_back({.verdict = LadderStep::kNextRung});
  spec.ladder.serial_rung_head = "parmetis: restart failed audit";
  spec.rollup = PhaseRollup::kSupersteps;
  spec.before_report = [&](DriverRun& run) {
    if (!run.injector) return;
    RunHealth& health = run.res.health;
    if (comm) health.messages_dropped += comm->messages_dropped();
    if (health.match_repairs > 0) {
      health.note("parmetis: dissolved " +
                  std::to_string(health.match_repairs) +
                  " asymmetric matches left by dropped grants");
    }
    if (health.messages_resent > 0) {
      health.note("parmetis: resent " +
                  std::to_string(health.messages_resent) +
                  " cmap messages lost in transit");
    }
  };
  return run_driver(g, opts, spec);
}

std::unique_ptr<Partitioner> make_par_partitioner() {
  return std::make_unique<ParMetisPartitioner>();
}

}  // namespace gp
