#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "gen/generators.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "service/engine.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gp;

namespace {

/// Set-up (graph generation, engine construction, one warm-up call) is
/// repeated this many times per run and reported as the median.
constexpr int kSetupReps = 9;

/// Host steal share up to which a stretch of batch calls counts as
/// undisturbed.  Inside a steal episode (10-17% steal) a 4-thread call
/// slows by ~40%, which made whole runs shift by that much.
constexpr double kQuietSteal = 0.02;

/// Steal is measured over stretches of at least this many seconds of
/// back-to-back calls, and every call in a stretch gets the stretch's
/// share.  A stretch holds several hundred 10 ms CPU ticks, and whether a
/// call is kept does not depend on how long the call itself took.
constexpr double kStealWindowS = 2.0;

// ---- service-mix ----
constexpr int kServiceWorkers = 3;
constexpr part_t kServiceK = 16;
constexpr vid_t kServiceGpuThreshold = 1024;
/// Offered rate of the operating phase: about 40% of the engine's
/// saturation rate on a 4-vCPU host (3 workers x ~11 ms mean service time
/// = ~265 req/s).  At 70% queueing amplified host noise into a 15-25%
/// run-to-run spread of the latency percentiles.
constexpr double kOfferedRate = 100;
/// One request in every block of kFaultBlock carries cmap@0 (5%).
constexpr int kFaultBlock = 20;
/// Share of --seconds spent at the operating rate; the rest probes the
/// sustained-rate ladder.
constexpr double kOperatingShare = 0.6;
constexpr double kOperatingTailPct = 0.99;
/// Ladder of offered rates kLadderBase * kLadderStep^j, j < kLadderRungs,
/// searched by bisection (kLadderProbes probes).  A rung passes when the
/// probe's kProbeTailPct latency is within kLatencyLimitS, nothing was
/// shed or failed, and the backlog did not grow.
constexpr double kLadderBase = 100;
constexpr double kLadderStep = 1.03;
constexpr int kLadderRungs = 63;
constexpr int kLadderProbes = 6;
constexpr double kProbeTailPct = 0.95;
constexpr double kLatencyLimitS = 0.1;
static_assert((1 << kLadderProbes) == kLadderRungs + 1,
              "bisection over rungs [-1, kLadderRungs] takes kLadderProbes");

struct PoolGraph {
  const char* family;
  double scale;
};
/// One small graph per paper family: delaunay 4k, road 20k, ldoor 1/256,
/// bubble 12k vertices.
constexpr PoolGraph kPool[] = {{"delaunay", 4096.0 / 1048576.0},
                               {"usa-roads", 20000.0 / 23947347.0},
                               {"ldoor", 1.0 / 256.0},
                               {"hugebubble", 12000.0 / 21198119.0}};
constexpr int kPoolSize = 4;
constexpr int kPoolLdoor = 2;
constexpr int kPoolRoads = 1;
const char* const kServiceDrivers[] = {"mt-metis", "metis", "gp-metis"};
constexpr int kServiceDriverCount = 3;

/// Generator lateness (p99) above which a run is flagged on stderr.
constexpr double kLateWarnS = 0.005;

/// Values that cannot be printed as JSON numbers (a tail that falls on a
/// shed request) are reported as this.
constexpr double kUnbounded = 1e300;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t fnv1a(const std::vector<part_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(part_t); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Fills the output and ledger-derived fields of a call record.
void record_result(const CsrGraph& g, const PartitionOptions& o,
                   const PartitionResult& r, CallRecord& c) {
  c.modeled_s = r.modeled_seconds;
  c.cut = static_cast<double>(r.cut);
  c.balance = r.balance;
  c.balanced = r.balance <= balance_limit(g, o) + 1e-9;
  c.fnv = fnv1a(r.partition.where);
  c.phases = r.phases;
  c.launches = r.exec.kernels_launched;
  c.transfer_bytes = r.ledger.bytes_with_prefix("transfer/");
  const MachineModel& model = r.ledger.model();
  for (const CostEntry& e : r.ledger.entries()) {
    if (starts_with(e.label, "compute/")) {
      ++c.supersteps;
    } else if (starts_with(e.label, "comm/")) {
      // charge_messages prices alpha per message plus beta per byte.
      c.messages += static_cast<std::uint64_t>(std::llround(
          (e.seconds - static_cast<double>(e.bytes) *
                           model.net_beta_s_per_byte) /
          model.net_alpha_s));
    }
  }
  c.comm_bytes = r.ledger.bytes_with_prefix("comm/");
  c.comm_modeled_s = r.ledger.seconds_with_prefix("comm/");
  c.compute_modeled_s = r.ledger.seconds_with_prefix("compute/");
  c.error = check_result(g, o, r);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

PartitionOptions service_options() {
  PartitionOptions o;
  o.k = kServiceK;
  o.eps = 0.03;
  o.threads = 1;
  o.gpu_host_workers = 1;
  o.gpu_cpu_threshold = kServiceGpuThreshold;
  return o;
}

PartitionOptions request_options(const Arrival& a) {
  PartitionOptions o = service_options();
  o.seed = a.seed;
  if (a.fault) {
    o.fault_spec = "cmap@0";
    o.audit_level = AuditLevel::kPhase;
  }
  return o;
}

void add(Report& rep, const char* name, double value, const char* unit) {
  rep.metrics.push_back({name, std::isfinite(value) ? value : kUnbounded,
                         unit});
}

/// Appends the model.* roll-up: median modeled seconds per phase over the
/// workload's own calls (model.transfer_s comes from the gp-metis layer
/// call, the only driver that transfers).
void add_model_metrics(Report& rep, const std::vector<CallRecord>& calls) {
  std::vector<double> c, i, u;
  for (const CallRecord& r : calls) {
    if (!r.error.empty()) continue;
    c.push_back(r.phases.coarsen);
    i.push_back(r.phases.initpart);
    u.push_back(r.phases.uncoarsen);
  }
  add(rep, "model.coarsen_s", median(c), "s");
  add(rep, "model.initpart_s", median(i), "s");
  add(rep, "model.uncoarsen_s", median(u), "s");
}

/// Canonical configuration string: every option that shapes the work, in
/// a fixed order, built from the options that actually run, so two rows
/// can be compared only when it matches.
std::string config_name(const std::string& workload, const std::string& driver,
                        const std::string& graphs, const PartitionOptions& o,
                        const std::string& load, double seconds) {
  return workload + ";driver=" + driver + ";graph=" + graphs +
         ";k=" + std::to_string(o.k) + ";eps=" + fmt("%g", o.eps) +
         ";threads=" + std::to_string(o.threads) +
         ";ranks=" + std::to_string(o.ranks) +
         ";host_workers=" + std::to_string(o.gpu_host_workers) +
         ";gpu_cpu_threshold=" + std::to_string(o.gpu_cpu_threshold) +
         ";gpu_scan=" +
         (o.gpu_scan == GpuScanMode::kLookback ? "lookback" : "blocked") +
         ";refine_passes=" + std::to_string(o.refine_passes) +
         ";init_trials=" + std::to_string(o.init_trials) + ";load=" + load +
         ";seconds=" + fmt("%g", seconds);
}

// ---------------------------------------------------------------------------
// service engine driving

struct ServiceSample {
  int driver = 0;
  double late_s = 0;   ///< generator lateness: actual send - scheduled
  double latency_s = kInf;  ///< scheduled send -> completion
  double done_at_s = 0;     ///< completion, from the start of the phase
  double queue_s = 0;
  double run_s = 0;
  double submit_us = 0;
  bool shed = false;
  bool retried = false;
  bool healthy = false;  ///< final attempt not degraded
  CallRecord rec;        ///< rec.error non-empty = failed
};

/// Sends `sched` to the engine on time (this thread sleeps between
/// arrivals), then waits for every outcome and checks it.  With a tracer,
/// each request becomes a span with late/queue/run children.
std::vector<ServiceSample> drive_open_loop(ServiceEngine& engine,
                                           const std::vector<CsrGraph>& pool,
                                           const std::vector<Arrival>& sched,
                                           Tracer* tr) {
  const std::size_t n = sched.size();
  std::vector<ServiceSample> out(n);
  std::vector<std::shared_ptr<RequestTicket>> tickets(n);
  std::vector<std::int64_t> sent_ns(n);
  std::vector<PartitionOptions> opts(n);
  const std::int64_t start_ns = now_ns() + 1'000'000;
  const auto start = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(start_ns));
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = sched[i];
    opts[i] = request_options(a);
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(a.at_s * 1e9)));
    sent_ns[i] = now_ns();
    tickets[i] = engine.submit(pool[static_cast<std::size_t>(a.graph)],
                               opts[i], Priority::kNormal, -1.0,
                               kServiceDrivers[a.driver]);
    out[i].submit_us = static_cast<double>(now_ns() - sent_ns[i]) * 1e-3;
    out[i].late_s =
        static_cast<double>(sent_ns[i] - start_ns) * 1e-9 - a.at_s;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = sched[i];
    const CsrGraph& g = pool[static_cast<std::size_t>(a.graph)];
    ServiceSample& s = out[i];
    const RequestOutcome o = tickets[i]->wait();
    tickets[i].reset();  // the outcome's partition is checked, then dropped
    s.driver = a.driver;
    s.rec.edges = static_cast<double>(g.num_edges());
    s.rec.total_edge_weight = static_cast<double>(g.total_arc_weight()) / 2;
    s.queue_s = o.queue_seconds;
    s.run_s = o.run_seconds;
    s.retried = o.attempts > 1;
    if (o.state == RequestState::kShed) {
      s.shed = true;
      continue;
    }
    if (o.state != RequestState::kDone) {
      s.rec.error = std::string(request_state_name(o.state));
      for (const std::string& t : o.attempt_trail) s.rec.error += " " + t;
      continue;
    }
    record_result(g, opts[i], o.result, s.rec);
    if (!s.rec.error.empty()) {
      s.rec.error = std::string(kServiceDrivers[a.driver]) + " on " +
                    kPool[a.graph].family + ": " + s.rec.error;
    }
    if (s.rec.error.empty() && o.leaked_blocks != 0) {
      s.rec.error = "leaked " + std::to_string(o.leaked_blocks) +
                    " pool blocks";
    }
    s.rec.wall_s = o.run_seconds;
    s.healthy = !o.result.health.degraded;
    s.latency_s = s.late_s + o.total_seconds();
    s.done_at_s = a.at_s + s.latency_s;
    if (tr) {
      const auto sched_ns =
          start_ns + static_cast<std::int64_t>(a.at_s * 1e9);
      const auto queued_ns =
          sent_ns[i] + static_cast<std::int64_t>(o.queue_seconds * 1e9);
      const auto done_ns =
          queued_ns + static_cast<std::int64_t>(o.run_seconds * 1e9);
      const int root = tr->record("service.request", sched_ns, done_ns, o.id);
      tr->record("service.late", sched_ns, sent_ns[i], o.id, root);
      tr->record("service.queue", sent_ns[i], queued_ns, o.id, root);
      const int run = tr->record("service.run", queued_ns, done_ns, o.id, root);
      tr->count(run, "attempts", o.attempts);
      tr->count(run, "modeled_s", o.result.modeled_seconds);
      tr->count(run, "cut", static_cast<double>(o.result.cut));
    }
  }
  return out;
}

/// Flags a run whose open-loop generator fell behind its schedule: its
/// latencies then include the generator's own delay.
void warn_if_late(const std::vector<double>& late_s) {
  const double tail = percentile(late_s, kOperatingTailPct);
  if (tail > kLateWarnS) {
    std::fprintf(stderr,
                 "perfbench: warning: generator fell behind, p99 send "
                 "lateness %.4f s\n",
                 tail);
  }
}

/// Counts the samples into the report's attempted/failed/errors.
void account(Report& rep, const std::vector<ServiceSample>& samples,
             const char* phase) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ++rep.attempted;
    if (!samples[i].rec.error.empty()) {
      ++rep.failed;
      rep.errors.push_back(std::string(phase) + " request " +
                           std::to_string(i) + ": " + samples[i].rec.error);
    }
  }
}

/// The service.* per-layer metrics from a set of outcomes and the
/// engine's counters.
void add_service_metrics(Report& rep, const std::vector<ServiceSample>& ss,
                         const ServiceStats& st, double tail_pct) {
  std::vector<double> submit, queue;
  std::vector<double> run[kServiceDriverCount];
  double retried = 0, retried_healthy = 0;
  for (const ServiceSample& s : ss) {
    submit.push_back(s.submit_us);
    if (s.shed || !s.rec.error.empty()) continue;
    queue.push_back(s.queue_s);
    run[s.driver].push_back(s.run_s);
    if (s.retried) {
      ++retried;
      if (s.healthy) ++retried_healthy;
    }
  }
  add(rep, "service.submit_us", median(submit), "us");
  add(rep, "service.queue_wait_p50_s", median(queue), "s");
  add(rep, "service.queue_wait_tail_s", percentile(queue, tail_pct), "s");
  add(rep, "service.run.mt-metis_p50_s", median(run[0]), "s");
  add(rep, "service.run.metis_p50_s", median(run[1]), "s");
  add(rep, "service.run.gp-metis_p50_s", median(run[2]), "s");
  add(rep, "service.retries", static_cast<double>(st.retries), "count");
  // With nothing retried no retry ended unhealthy.
  add(rep, "service.retry_healthy_ratio",
      retried > 0 ? retried_healthy / retried : 1.0, "ratio");
  add(rep, "service.shed_queue_full", static_cast<double>(st.shed_queue_full),
      "count");
  add(rep, "service.shed_cost_budget",
      static_cast<double>(st.shed_cost_budget), "count");
  add(rep, "service.degraded_frac",
      st.completed > 0 ? static_cast<double>(st.completed_degraded) /
                             static_cast<double>(st.completed)
                       : 0.0,
      "ratio");
  add(rep, "service.leaked_blocks", static_cast<double>(st.leaked_blocks),
      "count");
}

ServiceConfig service_config(std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.workers = kServiceWorkers;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// batch workloads (closed loop, one caller)

struct BatchLoop {
  std::vector<CallRecord> calls;
  std::vector<double> gaps_s;  ///< caller time between two calls
  double elapsed_s = 0;
};

BatchLoop closed_loop(const BatchSpec& spec, const CsrGraph& g,
                      std::uint64_t first_seed, double seconds, Tracer* tr) {
  BatchLoop loop;
  const std::int64_t t0 = now_ns();
  std::int64_t last_end = t0;
  std::int64_t window_start = t0;
  CpuTicks window_ticks = cpu_ticks();
  std::size_t window_first = 0;
  auto close_window = [&] {
    const CpuTicks now = cpu_ticks();
    const double share = steal_share(window_ticks, now);
    for (std::size_t j = window_first; j < loop.calls.size(); ++j) {
      loop.calls[j].steal_share = share;
    }
    window_ticks = now;
    window_start = now_ns();
    window_first = loop.calls.size();
  };
  for (std::uint64_t i = 0; seconds_since(t0) < seconds; ++i) {
    PartitionOptions o = spec.opts;
    o.seed = first_seed + i;
    const std::int64_t begin = now_ns();
    if (i > 0) loop.gaps_s.push_back(static_cast<double>(begin - last_end) * 1e-9);
    const int span = tr ? tr->begin(spec.driver + ".run", o.seed) : 0;
    loop.calls.push_back(run_call(spec.driver, g, o));
    if (tr) {
      tr->count(span, "modeled_s", loop.calls.back().modeled_s);
      tr->count(span, "cut", loop.calls.back().cut);
      tr->end(span);
    }
    last_end = now_ns();
    if (static_cast<double>(last_end - window_start) * 1e-9 >= kStealWindowS) {
      close_window();
    }
  }
  if (window_first < loop.calls.size()) close_window();
  loop.elapsed_s = seconds_since(t0);
  return loop;
}

void account(Report& rep, const std::vector<CallRecord>& calls,
             const char* phase) {
  for (std::size_t i = 0; i < calls.size(); ++i) {
    ++rep.attempted;
    if (!calls[i].error.empty()) {
      ++rep.failed;
      rep.errors.push_back(std::string(phase) + " call " + std::to_string(i) +
                           ": " + calls[i].error);
    }
  }
}

std::vector<double> walls(const std::vector<CallRecord>& calls) {
  std::vector<double> w;
  for (const CallRecord& c : calls) w.push_back(c.wall_s);
  return w;
}

Report run_batch(const std::string& name, std::uint64_t seed, double seconds,
                 bool trace, const std::string& trace_path) {
  const BatchSpec spec = batch_spec(name);
  Report rep;
  rep.config = config_name(name, spec.driver,
                           spec.graph + "@" + fmt("%g", spec.scale),
                           spec.opts, "closed:callers=1", seconds);

  // Set-up: generate the graph, build the partitioner, one warm-up call
  // (seed - 1, outside the timed seeds).  Median of kSetupReps.
  std::vector<double> setup_s, gen_s;
  CsrGraph g;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    g = make_paper_graph(spec.graph, spec.scale, seed);
    gen_s.push_back(seconds_since(t0));
    PartitionOptions o = spec.opts;
    o.seed = seed - 1;
    const CallRecord warm = run_call(spec.driver, g, o);
    if (!warm.error.empty()) rep.errors.push_back("warm-up: " + warm.error);
    setup_s.push_back(seconds_since(t0));
  }

  if (!trace) {
    const BatchLoop loop = closed_loop(spec, g, seed, seconds, nullptr);
    account(rep, loop.calls, "timed");
    std::vector<double> modeled;
    double cut = 0, ew = 0, worst = 0, ok = 0, balanced = 0;
    for (const CallRecord& c : loop.calls) {
      if (!c.error.empty()) continue;
      ++ok;
      balanced += c.balanced;
      modeled.push_back(c.modeled_s);
      cut += c.cut;
      ew += c.total_edge_weight;
      worst = std::max(worst, c.balance);
    }
    const std::vector<CallRecord> quiet = undisturbed(loop.calls);
    const std::vector<double> w = walls(quiet);
    double quiet_edges = 0, quiet_wall = 0;
    for (const CallRecord& c : quiet) {
      if (c.error.empty()) quiet_edges += c.edges;
      quiet_wall += c.wall_s;
    }
    const double n = static_cast<double>(loop.calls.size());
    add(rep, "latency_p50_s", median(w), "s");
    add(rep, "latency_tail_s", percentile(w, spec.tail_pct), "s");
    add(rep, "edges_per_s", quiet_edges / quiet_wall, "edges/s");
    add(rep, "modeled_s", median(modeled), "s");
    add(rep, "cut_frac", ew > 0 ? cut / ew : 0, "ratio");
    add(rep, "imbalance", worst - 1, "ratio");
    add(rep, "balanced_frac", ok > 0 ? balanced / ok : 0, "ratio");
    add(rep, "completed_frac", n > 0 ? ok / n : 0, "ratio");
    add(rep, "setup_s", median(setup_s), "s");
    add(rep, "peak_rss_mb", peak_rss_mb(), "MiB");
    return rep;
  }

  // Traced run: an untraced and a traced loop (their latency ratio is the
  // tracing overhead), then the layer suite on the same graph.
  Tracer tr;
  const BatchLoop plain = closed_loop(spec, g, seed, 0.3 * seconds, nullptr);
  const BatchLoop traced = closed_loop(
      spec, g, seed + plain.calls.size(), 0.3 * seconds, &tr);
  account(rep, plain.calls, "untraced");
  account(rep, traced.calls, "traced");
  add(rep, "bench.trace_overhead",
      median(walls(traced.calls)) / median(walls(plain.calls)), "ratio");
  std::vector<double> gaps = plain.gaps_s;
  gaps.insert(gaps.end(), traced.gaps_s.begin(), traced.gaps_s.end());
  add(rep, "bench.gen_late_tail_s", percentile(gaps, 0.99), "s");
  std::vector<CallRecord> all = plain.calls;
  all.insert(all.end(), traced.calls.begin(), traced.calls.end());
  add_model_metrics(rep, all);
  add(rep, "gen.graphs_s", median(gen_s), "s");

  LayerInputs in;
  in.seed = seed;
  in.gp_graph = &g;
  in.gp_opts = spec.opts;
  in.gp_opts.seed = seed;
  in.par_graph = &g;
  in.par_opts = in.gp_opts;
  in.serial_graphs = {&g};
  in.serial_seeds = {seed, seed + 1, seed + 2};
  append_layer_metrics(tr, in, rep);

  // Service layer on this workload's graph: the three service drivers
  // once each through the engine.
  {
    ServiceEngine engine(service_config(seed));
    const std::vector<CsrGraph> pool{g};
    std::vector<Arrival> sched;
    for (int d = 0; d < kServiceDriverCount; ++d) {
      sched.push_back({0.0, 0, d, false, seed + static_cast<std::uint64_t>(d)});
    }
    std::vector<ServiceSample> ss = drive_open_loop(engine, pool, sched, &tr);
    account(rep, ss, "service probe");
    add_service_metrics(rep, ss, engine.stats(), 1.0);
  }
  if (!trace_path.empty() && !tr.write_chrome(trace_path)) {
    rep.errors.push_back("cannot write trace " + trace_path);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// service-mix (open loop)

double ladder_rate(int rung) {
  return kLadderBase * std::pow(kLadderStep, rung);
}

/// One ladder probe at `rung`; true when the rung sustains its rate.
bool probe_rung(ServiceEngine& engine, const std::vector<CsrGraph>& pool,
                std::uint64_t seed, int rung, double seconds, Report& rep) {
  const std::vector<Arrival> sched = make_schedule(
      seed, ladder_rate(rung), seconds, 1 + static_cast<std::uint64_t>(rung));
  const std::vector<ServiceSample> ss =
      drive_open_loop(engine, pool, sched, nullptr);
  account(rep, ss, "probe");
  std::vector<double> lat;
  bool clean = true;
  for (const ServiceSample& s : ss) {
    lat.push_back(s.latency_s);
    clean = clean && !s.shed && s.rec.error.empty();
  }
  // Growing backlog: the last third of the probe waits much longer than
  // the first third.
  const std::size_t third = lat.size() / 3;
  const double first = median({lat.begin(), lat.begin() + third});
  const double last = median({lat.end() - third, lat.end()});
  return clean && percentile(lat, kProbeTailPct) <= kLatencyLimitS &&
         last <= 2 * first + 0.005;
}

Report run_service(std::uint64_t seed, double seconds, bool trace,
                   const std::string& trace_path) {
  Report rep;
  std::string graphs;
  for (const PoolGraph& p : kPool) {
    graphs += (graphs.empty() ? "" : "+") + std::string(p.family) + "@" +
              fmt("%g", p.scale);
  }
  rep.config = config_name(
      "service-mix", "mt-metis+metis+gp-metis", graphs, service_options(),
      "open:poisson:rate=" + fmt("%g", kOfferedRate) +
          ":workers=" + std::to_string(kServiceWorkers) +
          ":fault=cmap@0+audit=phase:fault_every=" +
          std::to_string(kFaultBlock),
      seconds);

  // Set-up: generate the pool, build the engine, one warm-up request per
  // driver.  Median of kSetupReps; the last engine is kept.
  std::vector<double> setup_s, gen_s;
  std::vector<CsrGraph> pool;
  std::unique_ptr<ServiceEngine> engine;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    engine.reset();
    pool.clear();
    for (const PoolGraph& p : kPool) {
      pool.push_back(make_paper_graph(p.family, p.scale, seed));
    }
    gen_s.push_back(seconds_since(t0));
    engine = std::make_unique<ServiceEngine>(service_config(seed));
    std::vector<Arrival> warm;
    for (int d = 0; d < kServiceDriverCount; ++d) {
      warm.push_back({0.0, d, d, false, seed - 1});
    }
    for (const ServiceSample& s : drive_open_loop(*engine, pool, warm, nullptr)) {
      if (!s.rec.error.empty() || s.shed) {
        rep.errors.push_back("warm-up: " + (s.shed ? "shed" : s.rec.error));
      }
    }
    setup_s.push_back(seconds_since(t0));
  }

  if (!trace) {
    const std::vector<ServiceSample> ss = drive_open_loop(
        *engine, pool,
        make_schedule(seed, kOfferedRate, kOperatingShare * seconds, 0),
        nullptr);
    account(rep, ss, "operating");
    std::vector<double> lat, modeled;
    double edges = 0, cut = 0, ew = 0, worst = 0, shed = 0, failed = 0,
           end_s = 0, balanced = 0;
    for (const ServiceSample& s : ss) {
      lat.push_back(s.latency_s);
      if (s.shed) ++shed;
      if (!s.rec.error.empty()) ++failed;
      if (s.shed || !s.rec.error.empty()) continue;
      modeled.push_back(s.rec.modeled_s);
      balanced += s.rec.balanced;
      edges += s.rec.edges;
      cut += s.rec.cut;
      ew += s.rec.total_edge_weight;
      worst = std::max(worst, s.rec.balance);
      end_s = std::max(end_s, s.done_at_s);
    }
    // Ladder: bisection over the rungs; rung -1 is taken to pass.
    const double probe_s =
        (1 - kOperatingShare) * seconds / kLadderProbes;
    int lo = -1, hi = kLadderRungs;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (probe_rung(*engine, pool, seed, mid, probe_s, rep) ? lo : hi) = mid;
    }
    std::vector<double> late;
    for (const ServiceSample& s : ss) late.push_back(s.late_s);
    warn_if_late(late);
    const double n = static_cast<double>(ss.size());
    add(rep, "latency_p50_s", median(lat), "s");
    add(rep, "latency_tail_s", percentile(lat, kOperatingTailPct), "s");
    add(rep, "edges_per_s", end_s > 0 ? edges / end_s : 0, "edges/s");
    add(rep, "sustained_rps", ladder_rate(lo), "req/s");
    add(rep, "modeled_s", median(modeled), "s");
    add(rep, "cut_frac", ew > 0 ? cut / ew : 0, "ratio");
    add(rep, "imbalance", worst - 1, "ratio");
    add(rep, "balanced_frac",
        modeled.empty() ? 0 : balanced / static_cast<double>(modeled.size()),
        "ratio");
    add(rep, "completed_frac", n > 0 ? 1 - failed / n : 0, "ratio");
    add(rep, "admitted_frac", n > 0 ? 1 - shed / n : 0, "ratio");
    add(rep, "setup_s", median(setup_s), "s");
    add(rep, "peak_rss_mb", peak_rss_mb(), "MiB");
    return rep;
  }

  Tracer tr;
  const std::vector<ServiceSample> plain = drive_open_loop(
      *engine, pool, make_schedule(seed, kOfferedRate, 0.3 * seconds, 0),
      nullptr);
  const std::vector<ServiceSample> traced = drive_open_loop(
      *engine, pool, make_schedule(seed, kOfferedRate, 0.3 * seconds, 100),
      &tr);
  account(rep, plain, "untraced");
  account(rep, traced, "traced");
  auto latencies = [](const std::vector<ServiceSample>& ss) {
    std::vector<double> v;
    for (const ServiceSample& s : ss) v.push_back(s.latency_s);
    return v;
  };
  add(rep, "bench.trace_overhead",
      median(latencies(traced)) / median(latencies(plain)), "ratio");
  std::vector<ServiceSample> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  std::vector<double> late;
  std::vector<CallRecord> recs;
  for (const ServiceSample& s : all) {
    late.push_back(s.late_s);
    if (!s.shed) recs.push_back(s.rec);
  }
  add(rep, "bench.gen_late_tail_s", percentile(late, kOperatingTailPct), "s");
  warn_if_late(late);
  add_model_metrics(rep, recs);
  add(rep, "gen.graphs_s", median(gen_s), "s");
  add_service_metrics(rep, all, engine->stats(), kOperatingTailPct);
  engine.reset();

  LayerInputs in;
  in.seed = seed;
  in.gp_graph = &pool[kPoolLdoor];
  in.gp_opts = service_options();
  in.gp_opts.seed = seed;
  for (const CsrGraph& g : pool) in.mt_graphs.push_back(&g);
  // parmetis is not a service driver; its layer figures come from the
  // pooled road graph at the batch workloads' 4 ranks.
  in.par_graph = &pool[kPoolRoads];
  in.par_opts = in.gp_opts;
  in.par_opts.threads = 4;
  in.par_opts.ranks = 4;
  in.serial_graphs = in.mt_graphs;
  in.serial_seeds = {seed};
  append_layer_metrics(tr, in, rep);
  if (!trace_path.empty() && !tr.write_chrome(trace_path)) {
    rep.errors.push_back("cannot write trace " + trace_path);
  }
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"mesh-gpu", "roads-par",
                                              "service-mix"};
  return names;
}

BatchSpec batch_spec(const std::string& workload) {
  BatchSpec s;
  s.opts.k = 64;
  s.opts.eps = 0.03;
  s.opts.threads = 4;
  s.opts.ranks = 4;
  s.opts.gpu_host_workers = 4;
  if (workload == "mesh-gpu") {
    s.driver = "gp-metis";
    s.graph = "ldoor";
    s.scale = 1.0 / 32.0;
    s.tail_pct = 0.90;
    s.opts.gpu_cpu_threshold = 4096;
  } else if (workload == "roads-par") {
    s.driver = "parmetis";
    s.graph = "usa-roads";
    s.scale = 1.0 / 128.0;
    s.tail_pct = 0.80;
  } else {
    throw std::invalid_argument("not a batch workload: " + workload);
  }
  return s;
}

std::string check_result(const CsrGraph& g, const PartitionOptions& o,
                         const PartitionResult& r) {
  std::string err = validate_partition(g, r.partition, r.cut, r.balance);
  if (err.empty()) err = check_partition(g, o, r.partition);
  if (err.empty() && r.exec.pool_leaked_blocks != 0) {
    err = "leaked " + std::to_string(r.exec.pool_leaked_blocks) +
          " pool blocks";
  }
  return err;
}

CallRecord run_call(const std::string& driver, const CsrGraph& g,
                    const PartitionOptions& o, GpPhaseLog* log,
                    PartitionResult* out) {
  CallRecord c;
  c.edges = static_cast<double>(g.num_edges());
  c.total_edge_weight = static_cast<double>(g.total_arc_weight()) / 2;
  PartitionResult r;
  try {
    const std::unique_ptr<Partitioner> p = make_partitioner_by_name(driver);
    const std::int64_t t0 = now_ns();
    r = log ? gp_metis_run(g, o, log) : p->run(g, o);
    c.wall_s = seconds_since(t0);
  } catch (const std::exception& e) {
    c.error = std::string("threw: ") + e.what();
    return c;
  }
  record_result(g, o, r, c);
  if (out) *out = std::move(r);
  return c;
}

std::vector<CallRecord> undisturbed(std::vector<CallRecord> calls) {
  std::stable_sort(calls.begin(), calls.end(),
                   [](const CallRecord& a, const CallRecord& b) {
                     return a.steal_share < b.steal_share;
                   });
  std::size_t keep = (calls.size() + 3) / 4;
  while (keep < calls.size() && calls[keep].steal_share <= kQuietSteal) {
    ++keep;
  }
  std::fprintf(stderr,
               "perfbench: wall metrics from the %zu of %zu calls in the "
               "least-stolen stretches (at most %.1f%% steal)\n",
               keep, calls.size(),
               keep ? 100.0 * calls[keep - 1].steal_share : 0.0);
  calls.resize(keep);
  return calls;
}

std::string deterministic_fields(const std::string& workload,
                                 std::uint64_t seed, int calls) {
  BatchSpec spec = batch_spec(workload);
  spec.opts.threads = spec.opts.ranks = spec.opts.gpu_host_workers = 1;
  const CsrGraph g = make_paper_graph(spec.graph, spec.scale, seed);
  std::string out;
  char line[512];
  for (int i = 0; i < calls; ++i) {
    PartitionOptions o = spec.opts;
    o.seed = seed + static_cast<std::uint64_t>(i);
    const CallRecord c = run_call(spec.driver, g, o);
    std::snprintf(line, sizeof(line),
                  "call %d modeled=%.17g cut=%.17g balance=%.17g fnv=%016llx "
                  "launches=%llu transfer=%llu supersteps=%llu messages=%llu "
                  "comm_bytes=%llu error=%s\n",
                  i, c.modeled_s, c.cut, c.balance,
                  static_cast<unsigned long long>(c.fnv),
                  static_cast<unsigned long long>(c.launches),
                  static_cast<unsigned long long>(c.transfer_bytes),
                  static_cast<unsigned long long>(c.supersteps),
                  static_cast<unsigned long long>(c.messages),
                  static_cast<unsigned long long>(c.comm_bytes),
                  c.error.c_str());
    out += line;
  }
  Tracer tr;
  std::vector<std::string> errors;
  PartitionOptions o = spec.opts;
  o.seed = seed;
  replay_gp_vcycle(tr, g, o, seed, errors);
  for (const Span& s : tr.spans()) {
    out += s.name;
    for (const auto& [k, v] : s.counts) out += " " + k + "=" + fmt("%.17g", v);
    out += "\n";
  }
  for (const std::string& e : errors) out += "error " + e + "\n";
  return out;
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate,
                                   double duration_s, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  Rng arrivals(mix.next());
  Rng choice(mix.next());
  auto uniform = [](Rng& r) {
    return static_cast<double>(r.next() >> 11) * 0x1.0p-53;
  };
  // Block-randomized mix: every block of kCombos requests holds each
  // (graph, driver) pair once in a seeded order, and every block of
  // kFaultBlock requests holds one fault request at a seeded position, so
  // the mix is exact in every run and only its order varies with the seed.
  constexpr int kCombos = kPoolSize * kServiceDriverCount;
  int combos[kCombos];
  for (int c = 0; c < kCombos; ++c) combos[c] = c;
  std::uint64_t fault_at = 0;
  std::vector<Arrival> out;
  double t = 0;
  for (std::uint64_t i = 0;; ++i) {
    t += -std::log1p(-uniform(arrivals)) / rate;
    if (t >= duration_s) break;
    if (i % kCombos == 0) {
      for (int c = kCombos - 1; c > 0; --c) {
        std::swap(combos[c], combos[choice.next() % (c + 1)]);
      }
    }
    if (i % kFaultBlock == 0) fault_at = i + choice.next() % kFaultBlock;
    Arrival a;
    a.at_s = t;
    a.graph = combos[i % kCombos] / kServiceDriverCount;
    a.driver = combos[i % kCombos] % kServiceDriverCount;
    a.fault = i == fault_at;
    a.seed = seed + (stream << 32) + i;
    out.push_back(a);
  }
  return out;
}

Report run_workload(const std::string& name, std::uint64_t seed,
                    double seconds, bool trace,
                    const std::string& trace_path) {
  if (name == "service-mix") {
    return run_service(seed, seconds, trace, trace_path);
  }
  return run_batch(name, seed, seconds, trace, trace_path);
}

}  // namespace perfbench
