#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"
#include "models/cluster.hpp"
#include "models/multiprocessor.hpp"
#include "models/synthetic.hpp"
#include "service/plan.hpp"
#include "util/rng.hpp"

namespace perfbench {

using csrl::BatchQuery;
using csrl::BatchResult;
using csrl::Checker;
using csrl::CheckOptions;
using csrl::Mrm;
using csrl::P3Engine;
using csrl::SplitMix64;
namespace svc = csrl::service;

void Tally::fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (errors.size() < 20) errors.push_back(why);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> thread_ids() {
  std::vector<int> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(std::stoi(entry.path().filename().string()));
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> pin_threads(const std::vector<int>& tids) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpus.size() <= tids.size(); --c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() <= tids.size()) return {};
  cpus.resize(tids.size());
  for (std::size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    if (sched_setaffinity(tids[i], sizeof one, &one) != 0) {
      for (std::size_t j = 0; j < i; ++j) sched_setaffinity(tids[j], sizeof allowed, &allowed);
      return {};
    }
  }
  return cpus;
}

namespace {

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) != 0)
      return false;
  return true;
}

std::string fmt(const char* pattern, double a, double b = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, pattern, a, b);
  return buf;
}

/// `base` scaled by at most +2% from the seed and rounded down to a
/// multiple of `unit`, so the printed bound is exact.  A seed perturbs the
/// bounds but keeps the work nearly the same.
double seeded_bound(SplitMix64& rng, double base, double unit) {
  return std::floor(base * (1.0 + 0.02 * rng.next_double()) / unit) * unit;
}

/// `top` and, below it, a seeded bound near `top * f` for each fraction f.
std::vector<double> seeded_axis(SplitMix64& rng, std::initializer_list<double> fractions,
                                double top, double unit) {
  std::vector<double> axis;
  for (double f : fractions) axis.push_back(seeded_bound(rng, top * f, unit));
  axis.push_back(top);
  std::sort(axis.begin(), axis.end());
  axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
  return axis;
}

}  // namespace

// ------------------------------------------------------------- cluster_*

CheckOptions cluster_options(P3Engine engine, std::size_t threads) {
  CheckOptions options;
  options.engine = engine;
  options.erlang_phases = kErlangPhases;
  options.discretisation_step = kDiscretisationStep;
  options.num_threads = threads;
  return options;
}

Mrm build_cluster(std::size_t side) {
  csrl::ClusterParams params;
  params.workstations_per_side = side;
  return csrl::build_cluster_mrm(params);
}

ClusterLattices cluster_lattices(std::uint64_t seed, std::size_t side) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  ClusterLattices out;
  for (BatchQuery* q : {&out.main, &out.coarse}) {
    q->phi = csrl::parse_formula("premium");
    q->psi = csrl::parse_formula("!premium");
  }
  // Sericola / Erlang: t <= 0.5 h and r below the reward the fully
  // operational cluster (2 * side workstations) earns in that time
  // (r = 40 at 48 per side), so the reward bound binds.
  const double t_top = 0.5;
  const double r_top = std::floor(80.0 / 96.0 * 2.0 * static_cast<double>(side) * t_top);
  out.main.times = seeded_axis(rng, {0.25, 0.5, 0.75}, t_top, 1.0 / 256.0);
  out.main.rewards = seeded_axis(rng, {0.25, 0.5, 0.75}, r_top, 0.25);
  // Discretisation: one step of d, at most 16 reward cells.
  const double d = kDiscretisationStep;
  out.coarse.times = {d};
  out.coarse.rewards = seeded_axis(rng, {0.25, 0.5, 0.75}, 16.0 * d, d);
  return out;
}

std::string point_formula(double t, double r) {
  return fmt("P=? [ premium U[0,%.17g]", t) + fmt("{0,%.17g} !premium ]", r);
}

std::vector<std::string> csl_suite(std::uint64_t seed) {
  SplitMix64 rng(seed * 0xbf58476d1ce4e5b9ULL + 2);
  const double f = seeded_bound(rng, 24.0, 0.125), lo = seeded_bound(rng, 24.0, 0.125),
               hi = seeded_bound(rng, 168.0, 0.125), r = seeded_bound(rng, 400.0, 0.125),
               c = seeded_bound(rng, 168.0, 0.125);
  return {"S=? [ premium ]",
          "S=? [ minimum ]",
          "P=? [ minimum U !minimum ]",
          fmt("P=? [ F[0,%.17g] premium ]", f),
          fmt("P=? [ premium U[%.17g,", lo) + fmt("%.17g] !minimum ]", hi),
          fmt("P=? [ minimum U{0,%.17g} !premium ]", r),
          fmt("R=? [ C<=%.17g ]", c),
          "R=? [ S ]"};
}

std::string RepStats::describe() const {
  return fmt("p%g of ", kRepPercentile) + std::to_string(ms.size()) + " reps (CPU time), " +
         fmt("median %.4g ms", median(ms));
}

LatticeBench::LatticeBench(const Mrm& model, ClusterLattices lattices)
    : model_(model), lattices_(std::move(lattices)) {
  jobs_ = {{&lattices_.main, cluster_options(P3Engine::kSericola)},
           {&lattices_.main, cluster_options(P3Engine::kErlang)},
           {&lattices_.coarse, cluster_options(P3Engine::kDiscretisation)}};
  first_.resize(jobs_.size());
  stats_.resize(jobs_.size());
}

void LatticeBench::warm_up(Tally& tally, Tracer* tracer) {
  for (std::size_t j = 0; j < jobs_.size(); ++j) rep(j, true, tally, tracer);
}

void LatticeBench::round(Tally& tally, Tracer* tracer) {
  for (std::size_t j = 0; j < jobs_.size(); ++j) rep(j, false, tally, tracer);
}

void LatticeBench::rep(std::size_t j, bool warm, Tally& tally, Tracer* tracer) {
  const Checker checker(model_, jobs_[j].options);
  const double t0 = cpu_seconds();
  BatchResult grid;
  {
    Span span(tracer, "checker/until_grid");
    grid = checker.until_grid(*jobs_[j].query);
  }
  const double ms = (cpu_seconds() - t0) * 1e3;
  if (warm) {
    first_[j] = std::move(grid);
    tally.pass();
    return;
  }
  stats_[j].ms.push_back(ms);
  if (bitwise_equal(grid.per_state, first_[j].per_state))
    tally.pass();
  else
    tally.fail("until_grid rep differs from the warm-up grid (" +
               csrl::engine_label(jobs_[j].options) + ")");
}

namespace {

double max_abs_diff(const BatchResult& a, const BatchResult& b) {
  if (a.per_state.size() != b.per_state.size())
    throw std::logic_error("lattices of different shape");
  double diff = 0.0;
  for (std::size_t g = 0; g < a.per_state.size(); ++g)
    for (std::size_t s = 0; s < a.per_state[g].size(); ++s)
      diff = std::max(diff, std::abs(a.per_state[g][s] - b.per_state[g][s]));
  return diff;
}

void check_close(const BatchResult& approx, const BatchResult& exact, double tolerance,
                 const std::string& engine, Tally& tally) {
  const double diff = max_abs_diff(approx, exact);
  std::printf("check %s vs Sericola: max |diff| %.3g over all states and cells "
              "(tolerance %.3g)\n", engine.c_str(), diff, tolerance);
  if (diff <= tolerance)
    tally.pass();
  else
    tally.fail(engine + " lattice is " + std::to_string(diff) +
               " from Sericola (tolerance " + std::to_string(tolerance) + ")");
}

}  // namespace

void LatticeBench::check_outputs(std::uint64_t seed, Tally& tally) const {
  // The point = 1 x 1 grid contract: a lattice cell equals its point query
  // bitwise.
  SplitMix64 rng(seed + 0x51ed);
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const BatchQuery& q = *jobs_[j].query;
    const std::size_t i = static_cast<std::size_t>(rng.next_below(q.times.size()));
    const std::size_t k = static_cast<std::size_t>(rng.next_below(q.rewards.size()));
    const std::string text = point_formula(q.times[i], q.rewards[k]);
    const double point =
        Checker(model_, jobs_[j].options).check(*csrl::parse_formula(text)).value;
    if (bitwise_equal(point, first_[j].value_at(i, k)))
      tally.pass();
    else
      tally.fail(csrl::engine_label(jobs_[j].options) + ": " + text +
                 " differs from its lattice cell");
  }
  check_close(first_[1], first_[0], kErlangTolerance, "pseudo-Erlang", tally);
  const BatchResult coarse_exact = Checker(model_, jobs_[0].options).until_grid(lattices_.coarse);
  check_close(first_[2], coarse_exact, kDiscretisationTolerance, "discretisation", tally);
}

SuiteBench::SuiteBench(const Mrm& model, const std::vector<std::string>& texts,
                       CheckOptions options)
    : model_(model), options_(std::move(options)) {
  for (const std::string& t : texts) suite_.push_back(csrl::parse_formula(t));
}

std::vector<double> SuiteBench::evaluate(Tracer* tracer) const {
  const Checker checker(model_, options_);
  std::vector<double> values;
  for (const csrl::FormulaPtr& f : suite_) {
    Span span(tracer, "checker/value_initially");
    values.push_back(checker.value_initially(*f));
  }
  return values;
}

void SuiteBench::warm_up(Tally& tally, Tracer* tracer) {
  first_ = evaluate(tracer);
  tally.pass();
}

void SuiteBench::rep(Tally& tally, Tracer* tracer) {
  const double t0 = cpu_seconds();
  const std::vector<double> values = evaluate(tracer);
  stats_.ms.push_back((cpu_seconds() - t0) * 1e3);
  bool same = values.size() == first_.size();
  for (std::size_t i = 0; same && i < values.size(); ++i)
    same = bitwise_equal(values[i], first_[i]);
  if (same)
    tally.pass();
  else
    tally.fail("CSL suite rep differs from the first rep");
}

// ------------------------------------------------------------ service_mix

ModelList service_models() {
  csrl::MultiprocessorParams mp;
  mp.processors = 32;
  return {std::make_shared<const Mrm>(csrl::multiprocessor_mrm(mp)),
          std::make_shared<const Mrm>(csrl::tandem_queue_mrm(10, 10, 2.0, 1.5, 1.2)),
          std::make_shared<const Mrm>(build_cluster(8)),
          std::make_shared<const Mrm>(csrl::build_adhoc_mrm()),
          std::make_shared<const Mrm>(csrl::independent_machines_mrm(15, 0.1, 1.0))};
}

svc::ServiceOptions service_options() {
  svc::ServiceOptions options;
  options.workers = kServiceWorkers;
  options.check.lump = true;
  options.check.num_threads = kPoolLanes;
  return options;
}

std::vector<MixQuery> service_mix(std::uint64_t seed) {
  // Per model: the until operands, the time scale and the largest reward
  // rate (which sizes the reward bounds; Sericola's cost grows with the
  // square of the uniformised horizon, so tau keeps each P3 query at a few
  // milliseconds), and whether every non-absorbing
  // phi-state earns reward (the duality behind P2 needs it).
  struct Family {
    const char* phi;
    const char* psi;
    double tau;
    double rate;
    bool p2;
  };
  const Family families[] = {
      {"operational", "down", 0.5, 32.0, true},
      {"!full2", "full2", 1.0, 20.0, false},
      {"premium", "!premium", 2.0, 16.0, true},
      {"Call_Idle | Doze", "Call_Initiated", 4.0, 25.0, true},
      {"!all_down", "all_down", 1.0, 15.0, true},
  };
  SplitMix64 rng(seed * 0x94d049bb133111ebULL + 3);
  std::vector<MixQuery> mix;
  const auto add = [&](std::size_t model, const std::string& text) {
    for (const MixQuery& q : mix)
      if (q.model == model && q.text == text) return;
    mix.push_back({model, text});
  };
  for (std::size_t m = 0; m < std::size(families); ++m) {
    const Family& f = families[m];
    const std::string phi = std::string("(") + f.phi + ")";
    const std::string psi = std::string("(") + f.psi + ")";
    const std::vector<double> times = seeded_axis(rng, {0.4, 0.7}, f.tau, 1.0 / 256.0);
    const double r_top = f.rate * f.tau;
    const std::vector<double> rewards = seeded_axis(rng, {0.3, 0.6}, r_top, 1.0 / 16.0);
    const auto until = [&](const char* bound, double t, double r) {
      return std::string("P") + bound + " [ " + phi + fmt(" U[0,%.17g]", t) +
             fmt("{0,%.17g} ", r) + psi + " ]";
    };
    for (double t : times)
      for (double r : rewards) add(m, until("=?", t, r));
    for (std::size_t i = 0; i < 3; ++i) add(m, until(">=0.5", times[i], rewards[i]));
    const double t1 = seeded_bound(rng, 0.35 * f.tau, 1.0 / 256.0);
    add(m, "S=? [ " + psi + " ]");
    add(m, "S=? [ " + phi + " ]");
    add(m, "P=? [ F" + fmt("[0,%.17g] ", t1) + psi + " ]");
    add(m, "P=? [ F" + fmt("[0,%.17g] ", f.tau) + psi + " ]");
    add(m, "P=? [ " + phi + " U " + psi + " ]");
    add(m, "P=? [ " + phi + fmt(" U[%.17g,", t1) + fmt("%.17g] ", f.tau) + psi + " ]");
    if (f.p2) add(m, "P=? [ " + phi + fmt(" U{0,%.17g} ", rewards[1]) + psi + " ]");
    add(m, fmt("R=? [ C<=%.17g ]", f.tau));
    add(m, phi + " & !" + psi);
    add(m, "P>0.5 [ F" + fmt("[0,%.17g] ", t1) + psi + " ]");
  }
  return mix;
}

std::vector<Reference> reference_answers(const ModelList& models,
                                         const std::vector<MixQuery>& mix,
                                         const CheckOptions& options) {
  std::vector<Reference> refs(mix.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    const Checker checker(*models[m], options);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      if (mix[i].model != m) continue;
      const svc::QueryPlan plan = svc::plan_query(mix[i].text);
      if (plan.kind == svc::PlanKind::kLattice && !plan.is_value_query) {
        refs[i].value = checker.value_initially(
            *csrl::Formula::probability_query(plan.formula->path()));
        refs[i].truth = checker.holds_initially(*plan.formula);
      } else {
        refs[i].value = checker.value_initially(*plan.formula);
        refs[i].truth = refs[i].value != 0.0;
      }
    }
  }
  return refs;
}

LoopBench::LoopBench(ServiceSetup& setup, std::uint64_t seed)
    : setup_(setup),
      mix_(service_mix(seed)),
      refs_(reference_answers(setup.models, mix_, service_options().check)),
      order_(mix_.size()) {
  SplitMix64 rng(seed * 0xd1b54a32d192ed03ULL + 4);
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  for (std::size_t i = order_.size(); i > 1; --i)
    std::swap(order_[i - 1], order_[static_cast<std::size_t>(rng.next_below(i))]);
}

void LoopBench::warm_up(Tally& tally) {
  std::vector<std::future<svc::QueryResult>> answers;
  for (const MixQuery& q : mix_)
    answers.push_back(setup_.service->submit(setup_.ids[q.model], q.text));
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const svc::QueryResult r = answers[i].get();
    if (r.status == svc::QueryStatus::kOk && bitwise_equal(r.value, refs_[i].value) &&
        r.truth == refs_[i].truth)
      tally.pass();
    else
      tally.fail("warm-up answer wrong: " + mix_[i].text + " (" + svc::to_string(r.status) +
                 " " + r.error + ")");
  }
}

void LoopBench::segment(double seconds, Tally& tally, Tracer* tracer) {
  struct Slot {
    std::future<svc::QueryResult> answer;
    std::size_t query = 0;
    double sent = 0.0;
    bool busy = false;
  };
  svc::CheckerService& service = *setup_.service;
  ClosedLoopLedger ledger(kInFlight);
  std::vector<Slot> slots(kInFlight);
  const svc::ServiceStats before = service.stats();
  const double start = now_seconds();
  std::uint64_t full_loop_answers = 0;
  bool sending = true;
  for (;;) {
    if (sending && now_seconds() - start >= seconds) {
      sending = false;
      segment_qps_.push_back(static_cast<double>(full_loop_answers) / (now_seconds() - start));
    }
    for (Slot& slot : slots) {
      if (!sending || slot.busy) continue;
      slot.query = order_[next_++ % order_.size()];
      const MixQuery& q = mix_[slot.query];
      slot.sent = now_seconds();
      {
        Span span(tracer, "service/submit");
        slot.answer = service.submit(setup_.ids[q.model], q.text);
      }
      ledger.submit();
      slot.busy = true;
    }
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.busy ||
          slot.answer.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        continue;
      const double arrived = now_seconds();
      const svc::QueryResult result = slot.answer.get();
      slot.busy = false;
      progressed = true;
      const Reference& ref = refs_[slot.query];
      const bool ok = result.status == svc::QueryStatus::kOk &&
                      bitwise_equal(result.value, ref.value) && result.truth == ref.truth;
      ledger.complete(ok);
      if (!ok) {
        tally.fail("service answer differs from a private checker: " + mix_[slot.query].text +
                   " status " + svc::to_string(result.status) +
                   fmt(" value %.17g vs %.17g", result.value, ref.value));
        continue;
      }
      tally.pass();
      ++ok_;
      if (sending) {
        ++full_loop_answers;
        latency_ms_.push_back((arrived - slot.sent) * 1e3);
      }
    }
    if (!sending && ledger.in_flight() == 0) break;
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  if (ledger.attempted() != ledger.ok() + ledger.failed())
    throw std::logic_error("closed loop lost a request");
  max_in_flight_ = std::max(max_in_flight_, ledger.max_in_flight());
  const svc::ServiceStats after = service.stats();
  service_.completed += after.completed - before.completed;
  service_.batches += after.batches - before.batches;
  service_.lattice_passes += after.lattice_passes - before.lattice_passes;
  service_.rejected += after.rejected - before.rejected;
  service_.failed += after.failed - before.failed;
}

}  // namespace perfbench
