// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around calls into the library's public functions
// (never inside the library): name, start, end, parent span, and the call
// or request id they belong to, plus counts taken at the same boundary.
// At exit the spans are written as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open.  Only the traced run creates a tracer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index of the parent span, -1 for a root
  std::uint64_t id = 0;    ///< call or request id the span belongs to
  std::vector<std::pair<std::string, double>> counts;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  /// Opens a span now; returns its index.
  int begin(std::string name, std::uint64_t id, int parent = -1);
  /// Closes a span opened by begin().
  void end(int span);
  /// Records a span whose interval was measured elsewhere (service
  /// requests are reconstructed from their outcome's timestamps).
  int record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
             std::uint64_t id, int parent = -1);
  /// Attaches a count to a span.
  void count(int span, std::string key, double value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part of it covered by its children.
  [[nodiscard]] double self_seconds(int span) const;
  /// Sum of the self times of every span called `name`.
  [[nodiscard]] double total_self_seconds(const std::string& name) const;
  /// Sum of the count `key` over every span called `name`.
  [[nodiscard]] double total_count(const std::string& name,
                                   const std::string& key) const;

  /// Writes the spans as Chrome trace-event JSON.  Spans of one root share
  /// a track.  Returns false if the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
