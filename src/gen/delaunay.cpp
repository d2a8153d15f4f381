// Bowyer-Watson incremental Delaunay triangulation.
//
// Substitutes the paper's delaunay_nXX DIMACS-10 inputs, which are
// themselves "Delaunay triangulations of random points" — so this is the
// same construction, not an approximation.  Points are inserted in Morton
// order with remembering walk point location; the cavity of each insertion
// is re-triangulated as a fan and dead triangles are recycled through a
// free list so live memory stays ~2n triangles.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "gen/generators.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace gp {
namespace {

struct Point {
  double x, y;
};

/// > 0 if (a,b,c) is counter-clockwise.
double orient2d(const Point& a, const Point& b, const Point& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// > 0 if d is strictly inside the circumcircle of CCW triangle (a,b,c).
double incircle(const Point& a, const Point& b, const Point& c,
                const Point& d) {
  const double adx = a.x - d.x, ady = a.y - d.y;
  const double bdx = b.x - d.x, bdy = b.y - d.y;
  const double cdx = c.x - d.x, cdy = c.y - d.y;
  const double ad2 = adx * adx + ady * ady;
  const double bd2 = bdx * bdx + bdy * bdy;
  const double cd2 = cdx * cdx + cdy * cdy;
  return adx * (bdy * cd2 - cdy * bd2) - ady * (bdx * cd2 - cdx * bd2) +
         ad2 * (bdx * cdy - cdx * bdy);
}

struct Tri {
  // CCW vertices; adj[i] faces the edge opposite v[i], i.e. (v[i+1], v[i+2]).
  int v[3];
  int adj[3];
  bool alive = true;
};

/// Interleaves the low 16 bits of x and y (Morton code for locality).
std::uint32_t morton16(std::uint32_t x, std::uint32_t y) {
  auto spread = [](std::uint32_t a) {
    a &= 0xffff;
    a = (a | (a << 8)) & 0x00ff00ff;
    a = (a | (a << 4)) & 0x0f0f0f0f;
    a = (a | (a << 2)) & 0x33333333;
    a = (a | (a << 1)) & 0x55555555;
    return a;
  };
  return spread(x) | (spread(y) << 1);
}

class Triangulator {
 public:
  explicit Triangulator(std::vector<Point> pts) : pts_(std::move(pts)) {
    // Super-triangle well outside the unit square.
    const int s0 = add_point({-40.0, -40.0});
    const int s1 = add_point({80.0, -40.0});
    const int s2 = add_point({-40.0, 80.0});
    super_[0] = s0;
    super_[1] = s1;
    super_[2] = s2;
    const int t = alloc_tri();
    tris_[static_cast<std::size_t>(t)] = Tri{{s0, s1, s2}, {-1, -1, -1}, true};
    last_tri_ = t;
  }

  void run() {
    const int n = static_cast<int>(pts_.size()) - 3;  // minus super vertices
    for (int p = 0; p < n; ++p) insert(p);
  }

  /// Emits the triangulation edges (excluding super-triangle incidences).
  CsrGraph to_graph(vid_t n) const {
    GraphBuilder b(n);
    for (const auto& t : tris_) {
      if (!t.alive) continue;
      for (int i = 0; i < 3; ++i) {
        const int u = t.v[i], w = t.v[(i + 1) % 3];
        if (u >= static_cast<int>(n) || w >= static_cast<int>(n)) continue;
        if (u < w) b.add_edge(static_cast<vid_t>(u), static_cast<vid_t>(w));
      }
    }
    return b.build();
  }

 private:
  int add_point(Point p) {
    pts_.push_back(p);
    return static_cast<int>(pts_.size()) - 1;
  }

  int alloc_tri() {
    if (!free_.empty()) {
      const int t = free_.back();
      free_.pop_back();
      tris_[static_cast<std::size_t>(t)].alive = true;
      return t;
    }
    tris_.emplace_back();
    return static_cast<int>(tris_.size()) - 1;
  }

  void kill_tri(int t) {
    tris_[static_cast<std::size_t>(t)].alive = false;
    free_.push_back(t);
  }

  /// Walks from last_tri_ toward the triangle containing point p.
  int locate(int p) const {
    const Point& q = pts_[static_cast<std::size_t>(p)];
    int t = last_tri_;
    // Guard: bounded walk, then (never observed on random inputs) scan.
    for (std::size_t steps = 0; steps < tris_.size() + 16; ++steps) {
      const Tri& tr = tris_[static_cast<std::size_t>(t)];
      int cross = -1;
      for (int i = 0; i < 3; ++i) {
        const Point& a = pts_[static_cast<std::size_t>(tr.v[(i + 1) % 3])];
        const Point& b = pts_[static_cast<std::size_t>(tr.v[(i + 2) % 3])];
        if (orient2d(a, b, q) < 0) {
          cross = i;
          break;
        }
      }
      if (cross < 0) return t;
      const int next = tr.adj[cross];
      if (next < 0) return t;  // outside hull (cannot happen inside super)
      t = next;
    }
    for (std::size_t i = 0; i < tris_.size(); ++i) {
      const Tri& tr = tris_[i];
      if (!tr.alive) continue;
      bool inside = true;
      for (int e = 0; e < 3 && inside; ++e) {
        inside = orient2d(pts_[static_cast<std::size_t>(tr.v[(e + 1) % 3])],
                          pts_[static_cast<std::size_t>(tr.v[(e + 2) % 3])],
                          q) >= 0;
      }
      if (inside) return static_cast<int>(i);
    }
    return last_tri_;  // unreachable on well-formed input
  }

  void insert(int p) {
    const Point& q = pts_[static_cast<std::size_t>(p)];
    const int t0 = locate(p);

    // Grow the cavity: all connected triangles whose circumcircle holds q.
    // Cavity membership uses version stamps so no per-insertion clear is
    // needed (a full clear would make construction quadratic).
    ++cavity_epoch_;
    cavity_stamp_.resize(tris_.size(), 0);
    bad_.clear();
    stack_.clear();
    stack_.push_back(t0);
    cavity_stamp_[static_cast<std::size_t>(t0)] = cavity_epoch_;
    while (!stack_.empty()) {
      const int t = stack_.back();
      stack_.pop_back();
      bad_.push_back(t);
      const Tri& tr = tris_[static_cast<std::size_t>(t)];
      for (int i = 0; i < 3; ++i) {
        const int nb = tr.adj[i];
        if (nb < 0 ||
            cavity_stamp_[static_cast<std::size_t>(nb)] == cavity_epoch_) {
          continue;
        }
        const Tri& nt = tris_[static_cast<std::size_t>(nb)];
        if (incircle(pts_[static_cast<std::size_t>(nt.v[0])],
                     pts_[static_cast<std::size_t>(nt.v[1])],
                     pts_[static_cast<std::size_t>(nt.v[2])], q) > 0) {
          cavity_stamp_[static_cast<std::size_t>(nb)] = cavity_epoch_;
          stack_.push_back(nb);
        }
      }
    }

    // Collect boundary edges (a, b, outer_neighbour) in cavity orientation,
    // remembering which bad triangle owned each edge so the outer
    // triangle's adjacency can be repaired slot-exactly (an outer triangle
    // may border the cavity on two edges).
    boundary_.clear();
    for (const int t : bad_) {
      const Tri& tr = tris_[static_cast<std::size_t>(t)];
      for (int i = 0; i < 3; ++i) {
        const int nb = tr.adj[i];
        if (nb >= 0 &&
            cavity_stamp_[static_cast<std::size_t>(nb)] == cavity_epoch_) {
          continue;
        }
        boundary_.push_back({tr.v[(i + 1) % 3], tr.v[(i + 2) % 3], nb, t});
      }
    }

    for (const int t : bad_) kill_tri(t);

    // Fan from p over the boundary; link fan neighbours by start vertex.
    start_map_.clear();
    new_tris_.clear();
    for (const auto& be : boundary_) {
      const int nt = alloc_tri();
      Tri& tr = tris_[static_cast<std::size_t>(nt)];
      tr.v[0] = be.a;
      tr.v[1] = be.b;
      tr.v[2] = p;
      tr.adj[0] = -1;  // edge (b, p): the fan triangle starting at b
      tr.adj[1] = -1;  // edge (p, a): the fan triangle ending at a
      tr.adj[2] = be.outer;
      if (be.outer >= 0) {
        Tri& ot = tris_[static_cast<std::size_t>(be.outer)];
        for (int i = 0; i < 3; ++i) {
          if (ot.adj[i] == be.bad) ot.adj[i] = nt;
        }
      }
      start_map_.push_back({be.a, nt});
      new_tris_.push_back(nt);
    }
    // adj by matching start vertices: triangle with edge (a,b) has fan
    // successor the triangle whose boundary edge starts at b.
    for (const int nt : new_tris_) {
      Tri& tr = tris_[static_cast<std::size_t>(nt)];
      const int bvert = tr.v[1];
      for (const auto& [start, tidx] : start_map_) {
        if (start == bvert) {
          tr.adj[0] = tidx;
          tris_[static_cast<std::size_t>(tidx)].adj[1] = nt;
          break;
        }
      }
    }
    last_tri_ = new_tris_.empty() ? last_tri_ : new_tris_.back();
  }

  struct BoundaryEdge {
    int a, b, outer, bad;
  };

  std::vector<Point> pts_;
  std::vector<Tri>   tris_;
  std::vector<int>   free_;
  int                super_[3] = {-1, -1, -1};
  int                last_tri_ = 0;

  // Scratch (reused across insertions).
  std::vector<int>           bad_, stack_, new_tris_;
  std::vector<std::uint32_t> cavity_stamp_;
  std::uint32_t              cavity_epoch_ = 0;
  std::vector<BoundaryEdge>  boundary_;
  std::vector<std::pair<int, int>> start_map_;
};

}  // namespace

CsrGraph delaunay_graph(vid_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p.x = rng.next_double();
    p.y = rng.next_double();
  }
  // Morton sort for walk locality; ids in the output graph follow the
  // sorted order (harmless relabeling of random points).
  std::vector<std::uint32_t> key(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    key[i] = morton16(static_cast<std::uint32_t>(pts[i].x * 65535.0),
                      static_cast<std::uint32_t>(pts[i].y * 65535.0));
  }
  std::vector<std::size_t> order(pts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
  std::vector<Point> sorted(pts.size());
  for (std::size_t i = 0; i < order.size(); ++i) sorted[i] = pts[order[i]];

  Triangulator tri(std::move(sorted));
  tri.run();
  return tri.to_graph(n);
}

}  // namespace gp
