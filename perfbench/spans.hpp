// The harness's own spans: one around every service call and every probe,
// kept in memory and written at exit as Chrome trace events
// (scripts/trace_report.py renders them; chrome://tracing and Perfetto load
// them). Spans are wall-clock, unlike the program's virtual-clock trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanLog {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// Open a span; returns its index. `step` groups spans of one workload
  /// step (one poll interval, one link event or one probe point).
  std::size_t open(std::string name, std::uint64_t step);
  void close(std::size_t index);

  /// {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry the span id, its parent and the step as the trace id.
  [[nodiscard]] std::string chrome_json() const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::size_t parent = kNoParent;
    std::uint64_t step = 0;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// RAII span; inert when `log` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t step)
      : log_(log), index_(log != nullptr ? log->open(std::move(name), step) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

}  // namespace perfbench
