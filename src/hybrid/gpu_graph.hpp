// Device-resident CSR graph: the four arrays the paper keeps in GPU global
// memory (adjp, adjncy, adjwgt, vwgt) plus upload/download helpers whose
// transfer bytes feed the cost model (Table II includes transfer time).
#pragma once

#include "core/csr_graph.hpp"
#include "gpu/device_buffer.hpp"

namespace gp {

struct GpuGraph {
  vid_t n = 0;
  eid_t m = 0;  ///< directed arcs
  /// First global id this graph owns.  A multi-GPU shard owns the ids
  /// [begin, begin + n) and its adjncy holds global ids; an arc whose head
  /// is outside that range is a halo arc, which gpu_match never pairs
  /// across.  The other kernels take whole graphs (begin = 0).
  vid_t begin = 0;
  DeviceBuffer<eid_t> adjp;
  DeviceBuffer<vid_t> adjncy;
  DeviceBuffer<wgt_t> adjwgt;
  DeviceBuffer<wgt_t> vwgt;

  GpuGraph() = default;

  /// Allocates uninitialized device storage of the given shape.
  GpuGraph(Device& dev, vid_t n_, eid_t m_, const std::string& tag)
      : n(n_), m(m_),
        adjp(dev, static_cast<std::size_t>(n_) + 1, tag + "/adjp"),
        adjncy(dev, static_cast<std::size_t>(m_), tag + "/adjncy"),
        adjwgt(dev, static_cast<std::size_t>(m_), tag + "/adjwgt"),
        vwgt(dev, static_cast<std::size_t>(n_), tag + "/vwgt") {}

  [[nodiscard]] static GpuGraph upload(Device& dev, const CsrGraph& g,
                                       const std::string& tag,
                                       vid_t begin = 0) {
    GpuGraph out(dev, g.num_vertices(), g.num_arcs(), tag);
    out.begin = begin;
    out.adjp.h2d(g.adjp());
    out.adjncy.h2d(g.adjncy());
    out.adjwgt.h2d(g.adjwgt());
    out.vwgt.h2d(g.vwgt());
    return out;
  }

  [[nodiscard]] CsrGraph download() const {
    return CsrGraph(adjp.d2h_vector(), adjncy.d2h_vector(),
                    adjwgt.d2h_vector(), vwgt.d2h_vector());
  }

  /// Transfer-integrity check of an upload: downloads the arrays in upload
  /// order, stopping at the first one that differs from `host`.  The
  /// kernels index through the device copy, so a flipped bit there must be
  /// caught BEFORE any kernel consumes it — afterwards it is an
  /// out-of-bounds access, not a wrong answer.
  [[nodiscard]] bool matches(const CsrGraph& host) const {
    return adjp.d2h_vector() == host.adjp() &&
           adjncy.d2h_vector() == host.adjncy() &&
           adjwgt.d2h_vector() == host.adjwgt() &&
           vwgt.d2h_vector() == host.vwgt();
  }

  [[nodiscard]] std::size_t bytes() const {
    return adjp.size() * sizeof(eid_t) + adjncy.size() * sizeof(vid_t) +
           adjwgt.size() * sizeof(wgt_t) + vwgt.size() * sizeof(wgt_t);
  }
};

}  // namespace gp
