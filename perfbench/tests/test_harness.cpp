// Self-tests of the benchmark harness: percentile selection, closed-loop
// accounting, metric-name validity, the result line and span self times.
// Exits 0 when every check passes; prints each failure.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles() {
  using namespace perfbench;
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  check(throws([] { median({}); }), "median of nothing throws");
  // Nearest rank on 1..1000: p99 is the 990th value, 10 samples beyond.
  check(percentile(ramp(1000), 99.0) == 990.0, "p99 nearest rank");
  check(percentile(ramp(1000), 50.0) == 500.0, "p50 nearest rank");
  check(percentile(ramp(7), 100.0) == 7.0, "p100 is the maximum");
  check(samples_beyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  check(samples_beyond(999, 99.0) == 9, "999 samples leave 9 beyond p99");
  const std::vector<double> ladder{50.0, 90.0, 99.0, 99.9};
  check(highest_supported_percentile(1000, ladder) == 99.0, "p99 supported at 1000");
  check(highest_supported_percentile(999, ladder) == 90.0, "p90 only at 999");
  check(highest_supported_percentile(10000, ladder) == 99.9, "p99.9 at 10000");
  check(highest_supported_percentile(15, ladder) == 0.0, "nothing supported at 15");
  check(highest_supported_percentile(20, ladder) == 50.0, "p50 at 20");
}

void test_closed_loop() {
  using namespace perfbench;
  ClosedLoopLedger ledger(3);
  check(throws([] { ClosedLoopLedger zero(0); }), "zero limit rejected");
  for (int i = 0; i < 3; ++i) ledger.submit();
  check(!ledger.can_submit(), "full at the limit");
  check(throws([&] { ledger.submit(); }), "submit past the limit throws");
  ledger.complete(true);
  ledger.complete(false);
  check(ledger.can_submit(), "room after completions");
  ledger.submit();
  ledger.complete(true);
  ledger.complete(true);
  check(throws([&] { ledger.complete(true); }), "completing nothing throws");
  check(ledger.max_in_flight() == 3, "in-flight never exceeded the limit");
  check(ledger.attempted() == 4, "attempted counts every submit");
  check(ledger.attempted() == ledger.ok() + ledger.failed() + ledger.in_flight(),
        "attempted = ok + failed + in flight");
  check(ledger.ok() == 3 && ledger.failed() == 1, "ok and failed split");
}

void test_metric_names() {
  using namespace perfbench;
  for (const char* good : {"setup_s", "engine.sericola.grid_ms", "p99-ms", "0x", "a"})
    check(valid_metric_name(good), std::string("valid name: ") + good);
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/name", "unit%",
                          "naïve"})
    check(!valid_metric_name(bad), std::string("invalid name: ") + bad);
  check(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
  check(valid_metric_name(std::string(64, 'a')), "64 characters accepted");

  MetricList list;
  list.add("latency_ms", 1.25, "ms");
  check(throws([&] { list.add("latency_ms", 2.0, "ms"); }), "repeated name rejected");
  check(throws([&] { list.add("bad name", 2.0, "ms"); }), "invalid name rejected");
  list.add("qps", 0.1, "1/s");
  const std::string line = result_json(true, 5, 0, list);
  check(line ==
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"qps\": "
            "{\"value\": 0.10000000000000001, \"unit\": \"1/s\"}}}",
        "result line: " + line);
}

void test_tracer() {
  using namespace perfbench;
  Tracer tracer;
  {
    Span outer(&tracer, "outer");
    { Span a(&tracer, "inner"); }
    { Span b(&tracer, "inner"); }
  }
  Span none(nullptr, "ignored");
  const std::vector<SpanRecord>& spans = tracer.spans();
  check(spans.size() == 3, "three spans recorded");
  check(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == 0,
        "parents link to the enclosing span");
  const double children = tracer.durations_ms("inner")[0] + tracer.durations_ms("inner")[1];
  const auto summary = tracer.summarize();
  check(summary.size() == 2 && summary[1].name == "inner" && summary[1].count == 2,
        "summary groups by name");
  check(std::abs(summary[0].self_ms - (tracer.durations_ms("outer")[0] - children)) < 1e-9,
        "self time = duration - children");
  check(std::abs(summary[1].self_ms - children) < 1e-9, "leaf self time = duration");
  const std::size_t open = tracer.open("x");
  tracer.open("y");
  check(throws([&] { tracer.close(open); }), "closing out of order throws");
}

}  // namespace

int main() {
  test_percentiles();
  test_closed_loop();
  test_metric_names();
  test_tracer();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
