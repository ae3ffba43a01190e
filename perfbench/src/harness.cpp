#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile must lie in (0, 100]");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()) / 100.0);
  const std::size_t index = std::max<std::size_t>(1, static_cast<std::size_t>(rank));
  return values[std::min(index, values.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  // p * n first: 99.9 / 100 * 10000 rounds above 9990, p * n / 100 does not.
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0);
  const std::size_t at = static_cast<std::size_t>(rank);
  return at >= n ? 0 : n - at;
}

double highest_supported_percentile(std::size_t n,
                                    const std::vector<double>& candidates,
                                    std::size_t min_beyond) {
  double best = 0.0;
  for (double p : candidates)
    if (samples_beyond(n, p) >= min_beyond) best = std::max(best, p);
  return best;
}

ClosedLoopLedger::ClosedLoopLedger(std::size_t limit) : limit_(limit) {
  if (limit == 0) throw std::invalid_argument("closed loop needs a limit");
}

void ClosedLoopLedger::submit() {
  if (in_flight_ >= limit_)
    throw std::logic_error("closed loop would exceed its in-flight limit");
  ++in_flight_;
  ++attempted_;
  max_in_flight_ = std::max(max_in_flight_, in_flight_);
}

void ClosedLoopLedger::complete(bool ok) {
  if (in_flight_ == 0)
    throw std::logic_error("closed loop completed a request never sent");
  --in_flight_;
  ++(ok ? ok_ : failed_);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricList::add(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("invalid metric name: '" + name + "'");
  if (has(name)) throw std::invalid_argument("metric added twice: " + name);
  items_.push_back({name, value, unit, note});
}

bool MetricList::has(const std::string& name) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(m.name) + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::size_t Tracer::open(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("span closed out of order");
  spans_[index].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name && s.end_ns >= s.start_ns)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  std::vector<Summary> out;
  std::map<std::string, std::size_t> slot;
  // Self times in one pass: charge each span's duration to its parent.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back({s.name, 0, 0.0, 0.0});
    Summary& sum = out[it->second];
    ++sum.count;
    sum.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    sum.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\": [";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i) out += ",\n";
    out += "{\"name\": \"" + json_escape(s.name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
           number(static_cast<double>(s.start_ns - origin) * 1e-3) +
           ", \"dur\": " + number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3) +
           ", \"args\": {\"parent\": " + std::to_string(s.parent) + "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
