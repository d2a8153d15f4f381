// Hypervisor steal from /proc/stat.  On a VM whose host is oversubscribed,
// steal comes in episodes lasting minutes; a 4-thread call stalls at every
// barrier while any of its vCPUs is descheduled, so the benchmark measures
// the steal around each call and keeps the wall-time metrics to the calls
// the hypervisor left alone.
#pragma once

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

/// Cumulative ticks of all CPUs (the aggregate "cpu" line).
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

/// Zeros when /proc/stat is unreadable.
inline CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string line, cpu;
  std::getline(in, line);
  std::istringstream fields(line);
  fields >> cpu;
  CpuTicks t;
  double v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of the CPU time between two readings that the hypervisor stole.
inline double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

}  // namespace perfbench
