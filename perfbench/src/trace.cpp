#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(std::string name, std::uint64_t id, int parent) {
  const std::int64_t t = now_ns();
  return record(std::move(name), t, t, id, parent);
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

int Tracer::record(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::uint64_t id, int parent) {
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.id = id;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::count(int span, std::string key, double value) {
  spans_[static_cast<std::size_t>(span)].counts.emplace_back(std::move(key),
                                                              value);
}

double Tracer::self_seconds(int span) const {
  const Span& p = spans_[static_cast<std::size_t>(span)];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans_) {
    if (&s != &p && s.parent == span) {
      kids.emplace_back(std::max(s.start_ns, p.start_ns),
                        std::min(s.end_ns, p.end_ns));
    }
  }
  std::sort(kids.begin(), kids.end());
  // Union of the child intervals, clipped to the parent.
  std::int64_t covered = 0;
  std::int64_t reach = p.start_ns;
  for (const auto& [b, e] : kids) {
    const std::int64_t lo = std::max(b, reach);
    if (e > lo) {
      covered += e - lo;
      reach = e;
    }
  }
  return static_cast<double>(p.end_ns - p.start_ns - covered) * 1e-9;
}

double Tracer::total_self_seconds(const std::string& name) const {
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) sum += self_seconds(static_cast<int>(i));
  }
  return sum;
}

double Tracer::total_count(const std::string& name,
                           const std::string& key) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.counts) {
      if (k == key) sum += v;
    }
  }
  return sum;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    int root = static_cast<int>(i);
    while (spans_[static_cast<std::size_t>(root)].parent >= 0) {
      root = spans_[static_cast<std::size_t>(root)].parent;
    }
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%d",
                 i == 0 ? "" : ",", s.name.c_str(), root,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id), s.parent);
    for (const auto& [k, v] : s.counts) {
      std::fprintf(f, ",\"%s\":%.17g", k.c_str(), v);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
