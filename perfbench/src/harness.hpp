// Measurement harness of the repository benchmark: order statistics,
// closed-loop accounting, the metric list printed at the end of a run,
// and the in-memory span recorder of the traced run.
//
// Everything here is independent of the checker library, so the
// self-tests (perfbench/tests/test_harness.cpp) exercise it directly.
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- stats

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this process has used so far: every thread, user and
/// system time.  Unlike the steady clock it stops while the host runs
/// other work on the CPU (preemption, and steal time in a guest VM).
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Equal bit patterns: the benchmark's notion of "the same answer".
inline bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least p percent
/// of the samples at or below it (p in (0, 100]).  Throws on empty input.
double percentile(std::vector<double> values, double p);

/// Number of samples strictly above the nearest-rank p-th percentile
/// position of `n` samples: n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of `candidates` (ascending percentages) that leaves at
/// least `min_beyond` samples beyond it, or 0 when none does.  A tail
/// percentile read from fewer samples is one outlier wide.
double highest_supported_percentile(std::size_t n,
                                    const std::vector<double>& candidates,
                                    std::size_t min_beyond = 10);

// ----------------------------------------------------- closed-loop ledger

/// Accounting of a closed loop that keeps at most `limit` requests in
/// flight.  The generator calls submit() before sending a request and
/// complete() when its answer arrives; the class refuses to exceed the
/// limit and keeps attempted == ok + failed + in_flight at all times.
class ClosedLoopLedger {
 public:
  explicit ClosedLoopLedger(std::size_t limit);

  /// True while another request may be sent.
  bool can_submit() const { return in_flight_ < limit_; }
  /// Records a sent request; throws std::logic_error at the limit.
  void submit();
  /// Records an answered request; throws std::logic_error when nothing
  /// is in flight.
  void complete(bool ok);

  std::size_t limit() const { return limit_; }
  std::size_t in_flight() const { return in_flight_; }
  std::size_t max_in_flight() const { return max_in_flight_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::size_t limit_;
  std::size_t in_flight_ = 0;
  std::size_t max_in_flight_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
};

// --------------------------------------------------------------- metrics

/// A name of 1 to 64 characters from [A-Za-z0-9_.-] that starts with a
/// letter or digit.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Free text printed beside the value: sample counts, and in the
  /// traced run the end-to-end metric and workload the layer moves.
  std::string note;
};

/// The metrics of one run, in report order.  add() rejects an invalid or
/// repeated name (std::invalid_argument), so a typo cannot reach the
/// result line.
class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  const std::vector<Metric>& items() const { return items_; }
  bool has(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
/// Values print with 17 significant digits, so nothing is rounded away.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricList& metrics);

// ---------------------------------------------------------------- tracing

/// One recorded span: a call into a layer, timed from the benchmark.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the recorder, -1 at top level.
  std::int64_t parent = -1;
};

/// In-memory span recorder for one thread.  Spans nest through an
/// explicit stack; nothing is written until the caller asks.
class Tracer {
 public:
  /// Opens a span and returns its index.
  std::size_t open(const std::string& name);
  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (ms) of every closed span called `name`, in order.
  std::vector<double> durations_ms(const std::string& name) const;

  struct Summary {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time direct children cover
  };
  /// Per-name totals in first-seen order.
  std::vector<Summary> summarize() const;

  /// Chrome trace-event JSON ("X" events, one process, one thread).
  std::string chrome_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span on a tracer; a null tracer records nothing, so untraced
/// code paths pay one branch.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : 0) {}
  ~Span() {
    if (tracer_) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace perfbench
