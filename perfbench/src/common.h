// Clocks, order statistics and span recording shared by the drivers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
inline double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// Nearest-rank quantile of `values` (sorted in place). 0 when empty.
inline double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

inline double Median(std::vector<double> values) {
  return Quantile(values, 0.5);
}

/// One worker's spans: name, start, end, and the span that caused it.
/// Kept in memory; merged and written out when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  ///< Index into the same log, -1 for a root.
    uint64_t op = 0;      ///< Operation the span belongs to.
  };

  void Begin(std::string name, uint64_t op) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    span.op = op;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
  }
  /// Closes the innermost open span; returns its duration in ns.
  int64_t End() {
    Span& span = spans_[open_.back()];
    span.end_ns = Now();
    open_.pop_back();
    return span.end_ns - span.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other) {
    const int64_t offset = static_cast<int64_t>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) span.parent += offset;
      spans_.push_back(std::move(span));
    }
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op) : log_(log) {
    if (log_ != nullptr) log_->Begin(name, op);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
