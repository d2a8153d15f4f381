#include "hybrid/multi_gpu_partitioner.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "core/audit.hpp"
#include "core/driver_harness.hpp"
#include "gpu/device_buffer.hpp"
#include "hybrid/gpu_contract.hpp"
#include "hybrid/gpu_matching.hpp"
#include "mt/mt_partitioner.hpp"

namespace gp {

namespace {

/// One device's share of a level: local vertices are the contiguous
/// global-id block [begin, end); adjncy stores GLOBAL ids (halo arcs point
/// outside the block).  The host keeps a mirror to build halo tables and
/// to gather the final coarse graph without re-downloading; the device
/// holds the working copy.
struct DeviceShard {
  CsrGraph host;  ///< host mirror (global adjncy ids: not validate()-clean)
  GpuGraph dev;   ///< device copy; dev.begin is the first global id

  [[nodiscard]] vid_t begin() const { return dev.begin; }
  [[nodiscard]] vid_t end() const { return dev.begin + dev.n; }
  [[nodiscard]] vid_t local_n() const { return dev.n; }
};

/// Per-level per-device coarsening artifacts kept for uncoarsening.
struct ShardLevel {
  std::vector<DeviceShard> shards;          ///< fine shards of this level
  std::vector<std::vector<vid_t>> cmaps;    ///< per device: local fine -> GLOBAL coarse
  std::vector<vid_t> fine_vtxdist;
};

/// Sorted halo translation table uploaded to a device for one level:
/// ids[] (sorted unique global ids outside the local block) and vals[]
/// (their translation).  Kernels translate by binary search — the way
/// real distributed-GPU codes resolve ghost ids.
struct HaloTable {
  DeviceBuffer<vid_t> ids;
  DeviceBuffer<vid_t> vals;
  std::size_t size = 0;
};

/// Builds the sorted unique halo-id list of a shard from its host mirror.
std::vector<vid_t> halo_ids_of(const DeviceShard& s) {
  std::vector<vid_t> halo;
  for (const vid_t u : s.host.adjncy()) {
    if (u < s.begin() || u >= s.end()) halo.push_back(u);
  }
  std::sort(halo.begin(), halo.end());
  halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
  return halo;
}

/// Charges the main ledger with the max over the per-device ledger deltas
/// (devices run concurrently, so a stage costs its slowest device).
class ConcurrentStage {
 public:
  ConcurrentStage(CostLedger& main, std::vector<CostLedger>& dev_ledgers,
                  std::string label)
      : main_(main), devs_(dev_ledgers), label_(std::move(label)) {
    before_.reserve(devs_.size());
    for (const auto& l : devs_) before_.push_back(l.total_seconds());
  }
  ~ConcurrentStage() {
    double mx = 0;
    for (std::size_t i = 0; i < devs_.size(); ++i) {
      mx = std::max(mx, devs_[i].total_seconds() - before_[i]);
    }
    main_.charge_raw(label_, mx);
  }

  ConcurrentStage(const ConcurrentStage&) = delete;
  ConcurrentStage& operator=(const ConcurrentStage&) = delete;

 private:
  CostLedger& main_;
  std::vector<CostLedger>& devs_;
  std::string label_;
  std::vector<double> before_;
};

struct HostMoveRequest {
  vid_t  v;
  part_t from, to;
  wgt_t  gain;
};

/// Bounded OOM retries (each raises the CPU handoff) before the run
/// degrades to a pure mt-metis fallback.
constexpr int kMaxOomRetries = 2;

/// Per-device matching seed offset: device d matches with seed
/// opts.seed + d * kDeviceSeedSalt, so device 0 draws exactly the
/// single-GPU stream.
constexpr std::uint64_t kDeviceSeedSalt = 131071;

/// One full multi-device attempt over the surviving physical devices
/// listed in `phys`.  Throws DeviceOutOfMemory / DeviceFailure (tagged
/// with the physical device id); the driver below owns the
/// redistribution / retry / fallback policy.
void multi_gpu_attempt(DriverRun& run, MultiGpuLog* log,
                       const std::vector<int>& phys, vid_t handoff) {
  const CsrGraph& g = run.g;
  const PartitionOptions& opts = run.opts;
  PartitionResult& res = run.res;
  const int D = static_cast<int>(phys.size());
  const AuditLevel audit = opts.audit_level;
  ShedWatch shed(run);

  // One simulated device per GPU, each with its own ledger so stages can
  // be rolled up as max-over-devices.
  Device::Config dc;
  if (opts.gpu_memory_bytes > 0) dc.memory_bytes = opts.gpu_memory_bytes;
  if (opts.gpu_host_workers > 0) dc.host_workers = opts.gpu_host_workers;
  std::vector<std::unique_ptr<Device>> devices;
  std::vector<CostLedger> dev_ledgers(static_cast<std::size_t>(D));
  for (int d = 0; d < D; ++d) {
    devices.push_back(std::make_unique<Device>(dc));
    devices.back()->set_ledger(&dev_ledgers[static_cast<std::size_t>(d)]);
    devices.back()->set_fault_injector(run.injector,
                                       phys[static_cast<std::size_t>(d)]);
    devices.back()->set_cancel_token(opts.cancel);
    devices.back()->set_leak_sink(&res.exec.pool_leaked_blocks);
  }

  // Uploads a shard's host mirror (global id block [begin, begin + n)) and
  // audits the device copy before any kernel indexes through it.
  auto upload_shard = [&](int d, CsrGraph host, vid_t begin,
                          const std::string& tag, const std::string& what) {
    DeviceShard s;
    s.host = std::move(host);
    s.dev = GpuGraph::upload(*devices[static_cast<std::size_t>(d)], s.host,
                             tag, begin);
    if (audit != AuditLevel::kOff) {
      require_audit(run, s.dev.matches(s.host)
                             ? AuditFailure{}
                             : AuditFailure{AuditFailure::Kind::kCsr,
                                            "transfer-integrity",
                                            what + " differs from host "
                                                   "source"});
    }
    return s;
  };

  std::vector<vid_t> vtxdist(static_cast<std::size_t>(D) + 1);
  for (int d = 0; d <= D; ++d) {
    vtxdist[static_cast<std::size_t>(d)] = static_cast<vid_t>(
        (static_cast<std::int64_t>(g.num_vertices()) * d) / D);
  }

  // ---- initial block split + shard upload ----
  std::vector<ShardLevel> levels;
  {
    ConcurrentStage stage(res.ledger, dev_ledgers, "transfer/h2d/shards");
    ShardLevel l0;
    for (int d = 0; d < D; ++d) {
      const vid_t b = vtxdist[static_cast<std::size_t>(d)];
      const vid_t e = vtxdist[static_cast<std::size_t>(d) + 1];
      const auto ab = static_cast<std::ptrdiff_t>(g.adjp()[b]);
      const auto ae = static_cast<std::ptrdiff_t>(g.adjp()[e]);
      std::vector<eid_t> adjp(g.adjp().begin() + b, g.adjp().begin() + e + 1);
      for (auto& x : adjp) x -= static_cast<eid_t>(ab);  // local offsets
      CsrGraph host(std::move(adjp),
                    {g.adjncy().begin() + ab, g.adjncy().begin() + ae},
                    {g.adjwgt().begin() + ab, g.adjwgt().begin() + ae},
                    {g.vwgt().begin() + b, g.vwgt().begin() + e});
      l0.shards.push_back(
          upload_shard(d, std::move(host), b, "G0",
                       "G0: device shard of gpu " + std::to_string(d)));
    }
    l0.fine_vtxdist = vtxdist;
    levels.push_back(std::move(l0));
  }

  // ---- multi-device coarsening ----
  std::uint64_t halo_bytes = 0;
  int lvl = 0;
  std::int64_t launch_threads = opts.gpu_threads;
  while (true) {
    check_cancelled(opts, "multi/gpu-coarsen");
    ShardLevel& cur = levels.back();
    vid_t total_n = 0;
    for (const auto& s : cur.shards) total_n += s.local_n();
    if (total_n <= handoff) break;
    const std::string L = "/L" + std::to_string(lvl);

    // 1. local matching, conflict resolution and local cmap: gpu_match on
    // each shard.  Halo arcs are never matched (the restriction ParMetis
    // uses between ranks), and match/cmap stay on the device for the
    // contraction below.
    cur.cmaps.assign(static_cast<std::size_t>(D), {});
    std::vector<GpuMatchResult> matches(static_cast<std::size_t>(D));
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/coarsen/mgpu-match" + L);
      for (int d = 0; d < D; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        matches[sd] = gpu_match(*devices[sd], cur.shards[sd].dev, lvl,
                                opts.seed + sd * kDeviceSeedSalt,
                                launch_threads / D, opts.gpu_scan);
        const GpuMatchResult& m = matches[sd];
        cur.cmaps[sd] = m.cmap.d2h_vector();
        // Range audit BEFORE the host consumes the downloaded cmap: the
        // projection indexes the coarse labels with these values, so a
        // flipped entry would be an out-of-bounds access there rather
        // than a wrong answer.
        if (audit != AuditLevel::kOff) {
          AuditFailure f;
          for (const vid_t c : cur.cmaps[sd]) {
            if (c < 0 || c >= m.n_coarse) {
              f = {AuditFailure::Kind::kContraction, "cmap-range",
                   "gpu " + std::to_string(d) + " level " +
                       std::to_string(lvl) + ": coarse map entry " +
                       std::to_string(c) + " outside [0, " +
                       std::to_string(m.n_coarse) + ")"};
              break;
            }
          }
          require_audit(run, std::move(f));
        }
      }
    }

    // 2. host: global coarse numbering (offset per device) and the
    // per-device cmap made GLOBAL.
    std::vector<vid_t> coarse_off(static_cast<std::size_t>(D) + 1, 0);
    for (int d = 0; d < D; ++d) {
      coarse_off[static_cast<std::size_t>(d) + 1] =
          coarse_off[static_cast<std::size_t>(d)] +
          matches[static_cast<std::size_t>(d)].n_coarse;
    }
    const vid_t n_coarse = coarse_off[static_cast<std::size_t>(D)];
    for (int d = 0; d < D; ++d) {
      for (auto& c : cur.cmaps[static_cast<std::size_t>(d)]) {
        c += coarse_off[static_cast<std::size_t>(d)];
      }
    }
    if (static_cast<double>(n_coarse) >
        opts.min_shrink * static_cast<double>(total_n)) {
      break;  // matching stalled (halo-restricted matching can stall
              // earlier than single-device matching)
    }

    // 3. halo-cmap exchange: each device receives the sorted (halo id ->
    // global coarse id) table for its halo set (metered upload).
    std::vector<HaloTable> halo(static_cast<std::size_t>(D));
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "transfer/mgpu-halo-cmap" + L);
      for (int d = 0; d < D; ++d) {
        DeviceShard& s = cur.shards[static_cast<std::size_t>(d)];
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const auto ids = halo_ids_of(s);
        std::vector<vid_t> vals(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          // Owner lookup on the host (the exchange a real implementation
          // performs device-to-device through the PCIe switch).
          const vid_t gid = ids[i];
          // A corrupted coarse id from the previous level's contraction
          // (flipped halo-table upload) surfaces here as an id outside
          // the global range; trap it as a device fault before the owner
          // scan walks off the end of vtxdist.
          if (gid < 0 || gid >= cur.fine_vtxdist.back()) {
            throw DeviceFailure(
                "corrupted halo id in mgpu-halo-cmap exchange",
                dev.device_id());
          }
          int owner = 0;
          while (gid >= cur.fine_vtxdist[static_cast<std::size_t>(owner) + 1])
            ++owner;
          vals[i] = cur.cmaps[static_cast<std::size_t>(owner)]
                             [static_cast<std::size_t>(
                                 gid - cur.fine_vtxdist[static_cast<std::size_t>(
                                           owner)])];
        }
        halo_bytes += ids.size() * (sizeof(vid_t) * 2);
        auto& h = halo[static_cast<std::size_t>(d)];
        h.size = ids.size();
        h.ids = DeviceBuffer<vid_t>(dev, std::max<std::size_t>(1, ids.size()),
                                    "halo_ids" + L);
        h.vals = DeviceBuffer<vid_t>(dev, std::max<std::size_t>(1, ids.size()),
                                     "halo_vals" + L);
        if (!ids.empty()) {
          h.ids.h2d(std::span<const vid_t>(ids.data(), ids.size()));
          h.vals.h2d(std::span<const vid_t>(vals.data(), vals.size()));
        }
      }
    }

    // 4. contraction per device into global-coarse-id adjacency.  Every
    // leader (v <= match[v]) builds its coarse row from the device-resident
    // match and cmap; halo heads translate through the halo table.
    ShardLevel next;
    next.fine_vtxdist = coarse_off;
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/coarsen/mgpu-contract" + L);
      for (int d = 0; d < D; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const DeviceShard& s = cur.shards[sd];
        Device& dev = *devices[sd];
        const vid_t n = s.local_n();
        const vid_t nc = matches[sd].n_coarse;
        const vid_t* mt = matches[sd].match.data();
        const vid_t* cm = matches[sd].cmap.data();
        const HaloTable& h = halo[sd];
        const vid_t* hid = h.ids.data();
        const vid_t* hval = h.vals.data();
        const std::size_t hsz = h.size;
        const vid_t sb = s.begin(), se = s.end();
        const vid_t cb = coarse_off[sd];
        const eid_t* adjp = s.dev.adjp.data();
        const vid_t* adjncy = s.dev.adjncy.data();
        const wgt_t* adjwgt = s.dev.adjwgt.data();
        const wgt_t* vw = s.dev.vwgt.data();

        // Thread t owns the fine block [bb, ee).  Leaders' coarse ids rise
        // with their fine ids, so the per-thread rows concatenate in
        // coarse-id order.
        const std::int64_t T = std::max<std::int64_t>(
            1, std::min<std::int64_t>(launch_threads / D, n));
        auto block = [&](std::int64_t t) {
          const std::int64_t chunk = n / T, rem = n % T;
          const std::int64_t b = t * chunk + std::min<std::int64_t>(t, rem);
          return std::pair<vid_t, vid_t>(
              static_cast<vid_t>(b),
              static_cast<vid_t>(b + chunk + (t < rem ? 1 : 0)));
        };

        // Merge kernel with on-the-fly halo translation (binary search).
        struct Out {
          std::vector<vid_t> adjncy;
          std::vector<wgt_t> adjwgt;
        };
        std::vector<Out> outs(static_cast<std::size_t>(T));
        std::vector<eid_t> cdeg(static_cast<std::size_t>(nc) + 1, 0);
        std::vector<wgt_t> cvwgt(static_cast<std::size_t>(nc), 0);
        dev.launch("coarsen/contract/merge" + L, T,
                   [&](std::int64_t t) -> std::uint64_t {
                     auto [bb, ee] = block(t);
                     auto& out = outs[static_cast<std::size_t>(t)];
                     std::uint64_t work = 0;
                     std::vector<std::pair<vid_t, wgt_t>> scratch;
                     // The shard adjacency and the halo table cross the
                     // corruptible bus; a flipped word there must surface
                     // as a device fault, not an out-of-bounds host read.
                     auto trap = [&](const char* what) {
                       throw DeviceFailure(
                           std::string("corrupted index in "
                                       "coarsen/contract/merge (") +
                               what + ")",
                           dev.device_id());
                     };
                     auto translate = [&](vid_t gu) -> vid_t {
                       if (gu >= sb && gu < se) return cb + cm[gu - sb];
                       // halo: binary search the sorted table
                       std::size_t lo = 0, hi = hsz;
                       while (lo < hi) {
                         const std::size_t mid = (lo + hi) / 2;
                         if (hid[mid] < gu) lo = mid + 1;
                         else hi = mid;
                       }
                       work += 4;  // log-factor charge
                       if (lo >= hsz || hid[lo] != gu) trap("halo id");
                       return hval[lo];
                     };
                     for (vid_t v = bb; v < ee; ++v) {
                       ++work;
                       const vid_t u = mt[v];
                       if (u < v) continue;  // a follower: its leader's row
                       const vid_t c = cm[v];
                       cvwgt[static_cast<std::size_t>(c)] =
                           vw[v] + (u != v ? vw[u] : 0);
                       scratch.clear();
                       auto absorb = [&](vid_t src) {
                         const eid_t jb = adjp[src], je = adjp[src + 1];
                         if (jb < 0 || je < jb || je > s.dev.m)
                           trap("adjp row");
                         for (eid_t j = jb; j < je; ++j) {
                           const vid_t cu = translate(adjncy[j]);
                           if (cu == cb + c) continue;
                           scratch.emplace_back(cu, adjwgt[j]);
                           ++work;
                         }
                       };
                       absorb(v);
                       if (u != v) absorb(u);
                       work += scratch.size();
                       sort_merge_row(scratch);
                       cdeg[static_cast<std::size_t>(c) + 1] =
                           static_cast<eid_t>(scratch.size());
                       for (const auto& [k, x] : scratch) {
                         out.adjncy.push_back(k);
                         out.adjwgt.push_back(x);
                       }
                     }
                     return work;
                   });
        for (vid_t c = 0; c < nc; ++c) {
          cdeg[static_cast<std::size_t>(c) + 1] +=
              cdeg[static_cast<std::size_t>(c)];
        }
        std::vector<vid_t> cadjncy;
        std::vector<wgt_t> cadjwgt;
        cadjncy.reserve(static_cast<std::size_t>(cdeg.back()));
        cadjwgt.reserve(static_cast<std::size_t>(cdeg.back()));
        for (const auto& o : outs) {
          cadjncy.insert(cadjncy.end(), o.adjncy.begin(), o.adjncy.end());
          cadjwgt.insert(cadjwgt.end(), o.adjwgt.begin(), o.adjwgt.end());
        }

        // Upload the coarse shard to the device; keep the host mirror.
        next.shards.push_back(upload_shard(
            d,
            CsrGraph(std::move(cdeg), std::move(cadjncy), std::move(cadjwgt),
                     std::move(cvwgt)),
            cb, "G" + std::to_string(lvl + 1),
            "coarse shard of gpu " + std::to_string(d) + " at level " +
                std::to_string(lvl)));
      }
    }

    // Cross-device conservation audit: contraction only merges vertices,
    // so the shard-summed vertex weight is level-invariant.  This is the
    // cheapest whole-level check that catches a corrupted contraction on
    // any one device after the per-device artifacts are merged.
    if (audit != AuditLevel::kOff) {
      wgt_t fine_w = 0, coarse_w = 0;
      for (const auto& s : cur.shards) fine_w += s.host.total_vertex_weight();
      for (const auto& s : next.shards)
        coarse_w += s.host.total_vertex_weight();
      require_audit(
          run, fine_w == coarse_w
                   ? AuditFailure{}
                   : AuditFailure{AuditFailure::Kind::kContraction,
                                  "vertex-weight-conservation",
                                  "level " + std::to_string(lvl) +
                                      ": fine shards weigh " +
                                      std::to_string(fine_w) +
                                      ", coarse shards weigh " +
                                      std::to_string(coarse_w)});
    }

    // Every level's device shards stay resident for the uncoarsening
    // refinement (the single-GPU version does the same).
    levels.push_back(std::move(next));
    ++lvl;
    launch_threads = std::max<std::int64_t>(256 * D, launch_threads / 2);
  }
  const int gpu_lvls = static_cast<int>(levels.size()) - 1;

  // ---- gather coarse graph, CPU stage ----
  const ShardLevel& top = levels.back();
  CsrGraph cpu_graph;
  {
    std::vector<eid_t> adjp{0};
    std::vector<vid_t> adjncy;
    std::vector<wgt_t> adjwgt, vwgt;
    // The gather is a real D2H of every shard.
    std::uint64_t bytes = 0;
    for (const auto& s : top.shards) {
      const CsrGraph& h = s.host;
      const eid_t base = adjp.back();
      for (std::size_t i = 1; i < h.adjp().size(); ++i) {
        adjp.push_back(base + h.adjp()[i]);
      }
      adjncy.insert(adjncy.end(), h.adjncy().begin(), h.adjncy().end());
      adjwgt.insert(adjwgt.end(), h.adjwgt().begin(), h.adjwgt().end());
      vwgt.insert(vwgt.end(), h.vwgt().begin(), h.vwgt().end());
      bytes += s.dev.bytes();
    }
    res.ledger.charge_transfer("transfer/d2h/mgpu-gather", bytes);
    cpu_graph = CsrGraph(std::move(adjp), std::move(adjncy),
                         std::move(adjwgt), std::move(vwgt));
  }

  // Handoff audit: the CPU stage trusts this gathered graph completely,
  // so it is the last place a corrupted coarsening can be caught before
  // it silently shapes the initial partition.
  if (audit != AuditLevel::kOff) {
    require_audit(run, audit_csr(cpu_graph, audit));
    wgt_t handoff_w = 0;
    for (vid_t v = 0; v < cpu_graph.num_vertices(); ++v) {
      handoff_w += cpu_graph.vertex_weight(v);
    }
    require_audit(
        run, handoff_w == g.total_vertex_weight()
                 ? AuditFailure{}
                 : AuditFailure{AuditFailure::Kind::kContraction,
                                "handoff-weight",
                                "gathered coarse graph weighs " +
                                    std::to_string(handoff_w) +
                                    ", input weighs " +
                                    std::to_string(g.total_vertex_weight())});
  }

  check_cancelled(opts, "multi/cpu-middle");
  const MtPipelineResult mt_out =
      mt_multilevel_pipeline(cpu_graph, run, gpu_lvls);

  // ---- uncoarsening: host-authoritative labels, device proposals ----
  std::vector<part_t> where = mt_out.partition.where;  // coarse level
  const wgt_t total_w = g.total_vertex_weight();
  const wgt_t max_pw = max_part_weight(total_w, opts.k, opts.eps);
  const wgt_t min_pw = min_part_weight(total_w, opts.k, opts.eps);
  std::uint64_t replay_moves = 0;

  for (int i = gpu_lvls - 1; i >= 0; --i) {
    check_cancelled(opts, "multi/gpu-uncoarsen");
    const ShardLevel& fine_level = levels[static_cast<std::size_t>(i)];
    const std::string L = "/L" + std::to_string(i);

    // Projection (host-side through the stored global cmaps — one gather
    // already paid; the per-device projection kernel is charged).
    vid_t fine_n = 0;
    for (const auto& s : fine_level.shards) fine_n += s.local_n();
    std::vector<part_t> fwhere(static_cast<std::size_t>(fine_n));
    {
      ConcurrentStage stage(res.ledger, dev_ledgers,
                            "kernel/uncoarsen/mgpu-project" + L);
      for (int d = 0; d < D; ++d) {
        const DeviceShard& s = fine_level.shards[static_cast<std::size_t>(d)];
        Device& dev = *devices[static_cast<std::size_t>(d)];
        const auto& cmap = fine_level.cmaps[static_cast<std::size_t>(d)];
        const vid_t n = s.local_n();
        const std::int64_t T = std::max<std::int64_t>(
            1, std::min<std::int64_t>(launch_threads, n));
        dev.launch("uncoarsen/project" + L, T,
                   [&](std::int64_t t) -> std::uint64_t {
                     std::uint64_t w = 0;
                     for (vid_t v = static_cast<vid_t>(t); v < n;
                          v += static_cast<vid_t>(T)) {
                       fwhere[static_cast<std::size_t>(s.begin() + v)] =
                           where[static_cast<std::size_t>(
                               cmap[static_cast<std::size_t>(v)])];
                       ++w;
                     }
                     return w;
                   });
      }
    }
    where = std::move(fwhere);

    // Past the deadline, projection still runs (correctness) but the
    // propose/replay passes are shed — the partition stays valid, just
    // less refined.
    if (shed.expired()) continue;

    // Refinement: devices propose, host replays.
    std::vector<wgt_t> pw(static_cast<std::size_t>(opts.k), 0);
    for (int d = 0; d < D; ++d) {
      const DeviceShard& s = fine_level.shards[static_cast<std::size_t>(d)];
      for (vid_t v = 0; v < s.local_n(); ++v) {
        pw[static_cast<std::size_t>(
            where[static_cast<std::size_t>(s.begin() + v)])] +=
            s.host.vertex_weight(v);
      }
    }
    int idle_passes = 0;
    for (int pass = 0; pass < opts.refine_passes; ++pass) {
      const bool upward = (pass % 2 == 0);
      std::vector<HostMoveRequest> all;
      {
        ConcurrentStage stage(
            res.ledger, dev_ledgers,
            "kernel/uncoarsen/mgpu-propose" + L + "/p" + std::to_string(pass));
        for (int d = 0; d < D; ++d) {
          const DeviceShard& s =
              fine_level.shards[static_cast<std::size_t>(d)];
          Device& dev = *devices[static_cast<std::size_t>(d)];
          const vid_t n = s.local_n();
          // Label slice + halo labels travel to the device each pass.
          dev.meter_h2d(static_cast<std::size_t>(n) * sizeof(part_t),
                        "where-slice" + L);
          const std::int64_t T = std::max<std::int64_t>(
              1, std::min<std::int64_t>(launch_threads, n));
          std::vector<std::vector<HostMoveRequest>> per_chunk(
              static_cast<std::size_t>(T));
          const eid_t* adjp = s.dev.adjp.data();
          const vid_t* adjncy = s.dev.adjncy.data();
          const wgt_t* adjwgt = s.dev.adjwgt.data();
          dev.launch(
              "uncoarsen/refine/propose" + L, T,
              [&](std::int64_t t) -> std::uint64_t {
                std::uint64_t work = 0;
                auto& out = per_chunk[static_cast<std::size_t>(t)];
                std::vector<wgt_t> conn(static_cast<std::size_t>(opts.k), 0);
                std::vector<part_t> parts;
                for (vid_t v = static_cast<vid_t>(t); v < n;
                     v += static_cast<vid_t>(T)) {
                  const vid_t gv = s.begin() + v;
                  const part_t pv = where[static_cast<std::size_t>(gv)];
                  const eid_t lo = adjp[v], hi = adjp[v + 1];
                  work += static_cast<std::uint64_t>(hi - lo) + 1;
                  parts.clear();
                  wgt_t internal = 0;
                  for (eid_t j = lo; j < hi; ++j) {
                    const part_t pu =
                        where[static_cast<std::size_t>(adjncy[j])];
                    if (pu == pv) {
                      internal += adjwgt[j];
                      continue;
                    }
                    if (conn[static_cast<std::size_t>(pu)] == 0)
                      parts.push_back(pu);
                    conn[static_cast<std::size_t>(pu)] += adjwgt[j];
                  }
                  const bool over =
                      pw[static_cast<std::size_t>(pv)] > max_pw;
                  part_t best = kInvalidPart;
                  wgt_t best_conn =
                      over ? std::numeric_limits<wgt_t>::min() : internal;
                  for (const part_t q : parts) {
                    if (upward ? (q <= pv) : (q >= pv)) continue;
                    if (conn[static_cast<std::size_t>(q)] > best_conn) {
                      best_conn = conn[static_cast<std::size_t>(q)];
                      best = q;
                    }
                  }
                  for (const part_t q : parts)
                    conn[static_cast<std::size_t>(q)] = 0;
                  if (best == kInvalidPart) continue;
                  out.push_back({gv, pv, best, best_conn - internal});
                }
                return work;
              });
          std::size_t cnt = 0;
          for (const auto& c : per_chunk) cnt += c.size();
          dev.meter_d2h(cnt * sizeof(HostMoveRequest), "proposals" + L);
          for (auto& c : per_chunk) {
            all.insert(all.end(), c.begin(), c.end());
          }
        }
      }

      // Host replay, deterministic: sort by gain desc then vertex id.
      std::sort(all.begin(), all.end(),
                [](const HostMoveRequest& a, const HostMoveRequest& b) {
                  if (a.gain != b.gain) return a.gain > b.gain;
                  return a.v < b.v;
                });
      auto vwgt_of = [&](vid_t gv) -> wgt_t {
        const auto it =
            std::upper_bound(fine_level.fine_vtxdist.begin(),
                             fine_level.fine_vtxdist.end(), gv);
        const auto d = static_cast<std::size_t>(
            it - fine_level.fine_vtxdist.begin() - 1);
        const DeviceShard& sh = fine_level.shards[d];
        return sh.host.vertex_weight(gv - sh.begin());
      };
      std::uint64_t committed = 0;
      for (const auto& mv : all) {
        const wgt_t vw = vwgt_of(mv.v);
        if (pw[static_cast<std::size_t>(mv.to)] + vw > max_pw) continue;
        if (pw[static_cast<std::size_t>(mv.from)] - vw < min_pw) continue;
        pw[static_cast<std::size_t>(mv.from)] -= vw;
        pw[static_cast<std::size_t>(mv.to)] += vw;
        where[static_cast<std::size_t>(mv.v)] = mv.to;
        ++committed;
      }
      res.ledger.charge_serial(
          "uncoarsen/mgpu-replay" + L + "/p" + std::to_string(pass),
          all.size());
      replay_moves += committed;
      // Both alternating directions must go idle before stopping.
      idle_passes = (committed == 0) ? idle_passes + 1 : 0;
      if (idle_passes >= 2) break;
    }
  }

  // Roll the per-device ledgers' leftover entries are already reflected
  // through ConcurrentStage charges; assemble results.
  finish_partition(run, {opts.k, std::move(where)});
  res.coarsen_levels = gpu_lvls + mt_out.levels;
  res.coarsest_vertices = mt_out.coarsest_vertices;
  for (const auto& dev : devices) {
    res.exec += DeviceExecStats{dev->kernels_launched(), dev->pool_hits(),
                                dev->pool_misses(),
                                dev->pool_recycled_bytes()};
  }

  if (log) {
    log->devices = D;
    log->gpu_coarsen_levels = gpu_lvls;
    std::size_t peak = 0;
    for (const auto& dev : devices) peak = std::max(peak, dev->peak_bytes());
    log->peak_device_bytes = peak;
    log->halo_exchange_bytes = halo_bytes;
    log->refine_replay_moves = replay_moves;
  }
}

}  // namespace

PartitionResult multi_gpu_run(const CsrGraph& g, const PartitionOptions& opts,
                              MultiGpuLog* log) {
  // Surviving physical devices.  A lost device is excluded and the vertex
  // blocks are redistributed over the remainder — the vtxdist rebuild at
  // the top of the attempt IS the redistribution (per-device blocks are
  // recomputed over the survivors).
  std::vector<int> phys(static_cast<std::size_t>(std::max(1, opts.gpu_devices)));
  std::iota(phys.begin(), phys.end(), 0);
  vid_t handoff =
      std::max<vid_t>(opts.gpu_cpu_threshold, opts.coarsen_target());
  int attempts = 0;
  bool gpu_ok = false;
  DriverSpec spec;
  spec.attempt = [&](DriverRun& run) {
    ++attempts;
    if (log) *log = MultiGpuLog{};
    multi_gpu_attempt(run, log, phys, handoff);
    gpu_ok = true;
  };
  DriverLadder& ladder = spec.ladder;
  const int max_attempts = static_cast<int>(phys.size()) + kMaxOomRetries + 1;
  ladder.can_attempt = [&] {
    return !phys.empty() && attempts < max_attempts;
  };
  ladder.mt_rung_note =
      "gp-metis-multi: no usable GPU path; degrading to a pure mt-metis run";
  ladder.serial_rung_head = "gp-metis-multi: CPU fallback failed audit";
  // Audit failures and injected `task` faults (the attempt unwound at a
  // job boundary) share one restart; a second abandons the GPU path.
  ladder.shared_restarts = true;
  ladder.row(Failure::kAudit) = {
      .steps = {{.note = "rollback: gp-metis-multi attempt restarted after "
                         "failed audit ({})"},
                {.verdict = LadderStep::kNextRung,
                 .note = "gp-metis-multi: repeated audit failure ({}); "
                         "abandoning the GPU path"}},
      .rollback = true,
      .gpu_retry = true,
      .reset_label = "fault/device-reset"};
  ladder.row(Failure::kTask) = {
      .steps = {{.note = "gp-metis-multi: pool task fault ({}); restarting "
                         "attempt"},
                {.verdict = LadderStep::kNextRung,
                 .note = "gp-metis-multi: repeated pool task fault ({}); "
                         "abandoning the GPU path"}},
      .gpu_retry = true,
      .reset_label = "fault/task-restart"};
  ladder.row(Failure::kDeviceLost) = {
      .steps = {{.times = kAlways,
                 .adjust = [&](const std::exception& e)
                     -> std::optional<std::string> {
                   const int id =
                       static_cast<const DeviceFailure&>(e).device_id();
                   const auto it = std::find(phys.begin(), phys.end(), id);
                   if (it != phys.end()) phys.erase(it);
                   return "gp-metis-multi: device " + std::to_string(id) +
                          " failed (" + e.what() + "); redistributing over " +
                          std::to_string(phys.size()) +
                          " surviving device(s)";
                 }}},
      .reset_label = "fault/device-reset"};
  ladder.row(Failure::kDeviceOom) = {
      .steps = {raise_handoff_step("gp-metis-multi", handoff,
                                   g.num_vertices(), kMaxOomRetries),
                {.verdict = LadderStep::kNextRung,
                 .note = "gp-metis-multi: OOM retries exhausted ({})"}},
      .gpu_retry = true,
      .reset_label = "fault/device-reset"};

  PartitionResult res = run_driver(g, opts, spec);
  if (log) {
    if (!gpu_ok) *log = MultiGpuLog{};
    log->attempts = attempts;
    log->cpu_fallback = !gpu_ok;
    log->devices_lost = static_cast<int>(res.health.devices_lost);
  }
  return res;
}

PartitionResult MultiGpuPartitioner::run(const CsrGraph& g,
                                         const PartitionOptions& opts) const {
  return multi_gpu_run(g, opts, nullptr);
}

std::unique_ptr<Partitioner> make_multi_gpu_partitioner() {
  return std::make_unique<MultiGpuPartitioner>();
}

}  // namespace gp
