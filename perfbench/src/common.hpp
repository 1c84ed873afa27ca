// Shared plumbing of the Chronos benchmark: command-line options, clocks,
// order statistics, the metric report, and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Idle single-thread reference-kernel time [ns] (host.hpp), measured
  /// once at start-up; not a command-line option.
  double ref_kernel_ns = 0.0;
};

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);
/// The highest quantile that leaves at least ten of `n` samples beyond it,
/// capped at 0.99 (and floored at the median for tiny samples).
inline double tail_quantile(std::size_t n) {
  const double q = 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(n, 1));
  return std::clamp(q, 0.5, 0.99);
}
double sum(const std::vector<double>& v);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured. `end_to_end` and `per_layer` hold exactly
/// the metrics BENCHMARK.json declares for the respective --trace mode;
/// `notes` are extra diagnostics printed for humans only.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  std::vector<std::string> gate_failures;  ///< correctness violations
  /// Deterministic counters, compared across runs with the same seed.
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void fail(const std::string& why) { gate_failures.push_back(why); }
  void note(const std::string& line) { notes.push_back(line); }
  bool correct() const { return gate_failures.empty(); }
};

/// One traced interval: a call the benchmark made into a layer.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 for roots
  std::uint64_t request = 0;  ///< spans of one request share this id
};

/// In-memory span recorder (single-threaded). Spans are kept until the run
/// ends and written out as JSON lines; self time is a span's duration minus
/// the part its children cover.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  std::int32_t begin(const char* name, std::uint64_t request,
                     std::int32_t parent = -1) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = parent;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  /// Records an interval measured elsewhere (e.g. an open-loop request
  /// timed from its due time).
  void record(const char* name, std::uint64_t request, Clock::time_point start,
              Clock::time_point end) {
    Span s;
    s.name = name;
    s.request = request;
    s.start_ns = ns_of(start);
    s.end_ns = ns_of(end);
    spans_.push_back(s);
  }

  double duration_ms(std::int32_t index) const {
    const Span& s = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  std::int64_t ns_of(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  std::int64_t now_ns() const { return ns_of(Clock::now()); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
