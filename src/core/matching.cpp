#include "core/matching.hpp"

#include <algorithm>
#include <sstream>

namespace gp {

std::string validate_match(const std::vector<vid_t>& match) {
  const auto n = static_cast<vid_t>(match.size());
  std::ostringstream err;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t m = match[static_cast<std::size_t>(v)];
    if (m < 0 || m >= n) {
      err << "match[" << v << "] = " << m << " out of range";
      return err.str();
    }
    if (match[static_cast<std::size_t>(m)] != v) {
      err << "match not involutive at " << v << " (match[v]=" << m
          << ", match[match[v]]=" << match[static_cast<std::size_t>(m)] << ")";
      return err.str();
    }
  }
  return {};
}

std::string validate_cmap(const std::vector<vid_t>& match,
                          const std::vector<vid_t>& cmap, vid_t n_coarse) {
  const auto n = static_cast<vid_t>(match.size());
  std::ostringstream err;
  if (cmap.size() != match.size()) return "cmap/match size mismatch";
  std::vector<char> hit(static_cast<std::size_t>(n_coarse), 0);
  vid_t next_leader_label = 0;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t c = cmap[static_cast<std::size_t>(v)];
    if (c < 0 || c >= n_coarse) {
      err << "cmap[" << v << "] = " << c << " out of [0," << n_coarse << ")";
      return err.str();
    }
    const vid_t m = match[static_cast<std::size_t>(v)];
    if (m < 0 || m >= n) {
      err << "match[" << v << "] = " << m << " out of range";
      return err.str();
    }
    if (cmap[static_cast<std::size_t>(m)] != c) {
      err << "cmap differs across matched pair at " << v;
      return err.str();
    }
    hit[static_cast<std::size_t>(c)] = 1;
    if (v <= m) {
      // v is a leader; labels must appear in increasing vertex order.
      if (c != next_leader_label) {
        err << "leader " << v << " has label " << c << ", expected "
            << next_leader_label;
        return err.str();
      }
      ++next_leader_label;
    }
  }
  if (next_leader_label != n_coarse) {
    err << "leader count " << next_leader_label << " != n_coarse " << n_coarse;
    return err.str();
  }
  for (vid_t c = 0; c < n_coarse; ++c) {
    if (!hit[static_cast<std::size_t>(c)]) {
      err << "coarse label " << c << " unused";
      return err.str();
    }
  }
  return {};
}

std::pair<std::vector<vid_t>, vid_t> build_cmap_serial(
    const std::vector<vid_t>& match) {
  const auto n = static_cast<vid_t>(match.size());
  std::vector<vid_t> cmap(match.size(), kInvalidVid);
  vid_t next = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (v <= match[static_cast<std::size_t>(v)]) {
      cmap[static_cast<std::size_t>(v)] = next++;
    }
  }
  for (vid_t v = 0; v < n; ++v) {
    if (v > match[static_cast<std::size_t>(v)]) {
      cmap[static_cast<std::size_t>(v)] =
          cmap[static_cast<std::size_t>(match[static_cast<std::size_t>(v)])];
    }
  }
  return {std::move(cmap), next};
}

CoarseRowMerger::CoarseRowMerger(vid_t n_coarse)
    : slot_(static_cast<std::size_t>(n_coarse), 0) {}

std::size_t CoarseRowMerger::merge(const CsrGraph& fine,
                                   const std::vector<vid_t>& match,
                                   const std::vector<vid_t>& cmap, vid_t c,
                                   vid_t v, std::vector<vid_t>& adj,
                                   std::vector<wgt_t>& wgt,
                                   std::uint64_t& work) {
  row_.clear();
  auto absorb = [&](vid_t src) {
    const auto nbrs = fine.neighbors(src);
    const auto wts = fine.neighbor_weights(src);
    work += nbrs.size();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t cu = cmap[static_cast<std::size_t>(nbrs[i])];
      if (cu == c) continue;  // intra-pair arc disappears
      std::uint32_t& at = slot_[static_cast<std::size_t>(cu)];
      if (at < row_.size() && row_[at].first == cu) {
        row_[at].second += wts[i];
      } else {
        at = static_cast<std::uint32_t>(row_.size());
        row_.emplace_back(cu, wts[i]);
      }
    }
  };
  const vid_t m = match[static_cast<std::size_t>(v)];
  absorb(v);
  if (m != v) absorb(m);
  // Deterministic order: sort neighbours by label.
  std::sort(row_.begin(), row_.end());
  for (const auto& [cu, w] : row_) {
    adj.push_back(cu);
    wgt.push_back(w);
  }
  return row_.size();
}

CsrGraph contract_serial(const CsrGraph& fine, const std::vector<vid_t>& match,
                         const std::vector<vid_t>& cmap, vid_t n_coarse) {
  const vid_t n = fine.num_vertices();
  std::vector<wgt_t> cvwgt(static_cast<std::size_t>(n_coarse), 0);
  std::vector<eid_t> cadjp(static_cast<std::size_t>(n_coarse) + 1, 0);
  std::vector<vid_t> cadjncy;
  std::vector<wgt_t> cadjwgt;
  cadjncy.reserve(static_cast<std::size_t>(fine.num_arcs()));
  cadjwgt.reserve(static_cast<std::size_t>(fine.num_arcs()));

  CoarseRowMerger merger(n_coarse);
  std::uint64_t work = 0;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t m = match[static_cast<std::size_t>(v)];
    if (v > m) continue;  // follower handled with its leader
    const vid_t c = cmap[static_cast<std::size_t>(v)];
    cvwgt[static_cast<std::size_t>(c)] =
        fine.vertex_weight(v) + (m != v ? fine.vertex_weight(m) : 0);
    cadjp[static_cast<std::size_t>(c) + 1] = static_cast<eid_t>(
        merger.merge(fine, match, cmap, c, v, cadjncy, cadjwgt, work));
  }
  for (vid_t c = 0; c < n_coarse; ++c) {
    cadjp[static_cast<std::size_t>(c) + 1] +=
        cadjp[static_cast<std::size_t>(c)];
  }
  return CsrGraph(std::move(cadjp), std::move(cadjncy), std::move(cadjwgt),
                  std::move(cvwgt));
}

std::vector<part_t> project_partition(const std::vector<vid_t>& cmap,
                                      const std::vector<part_t>& coarse_where) {
  std::vector<part_t> fine_where(cmap.size());
  for (std::size_t v = 0; v < cmap.size(); ++v) {
    fine_where[v] = coarse_where[static_cast<std::size_t>(cmap[v])];
  }
  return fine_where;
}

}  // namespace gp
