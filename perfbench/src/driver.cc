// perfbench: the repository benchmark's driver.  It runs one of four fixed
// workloads through the public engine API and prints one JSON object on
// the last line of stdout; perfbench/run.py builds it, launches it and
// aggregates what it prints.
//
//   perfbench setup <workload> <seed> [N]
//       N set-ups (default 1): generate the trace and construct the engine,
//       which runs the planner.  Prints the host timings and the plan of
//       each set-up.
//   perfbench run <workload> <seed> [--plan TEXT] [--traced] [--loop-seconds S]
//                                 [--spans PATH]
//       The measured run: set-up on the plan a set-up process printed
//       (pinned through HetisConfig::plan, so this process makes no planner
//       call; without --plan it plans itself), one untraced event loop, then
//       the slo_rate_rps search.  With --traced the search is replaced by
//       more untraced loops, until S seconds of loops have run, and one
//       traced loop whose spans go to PATH.
//
// Every workload is an open loop in simulated time: arrivals are scheduled
// at their trace times, the run drains for kDrain simulated seconds after
// the last arrival, and every request is graded against kSlo.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/controller.h"
#include "engine/registry.h"
#include "harness/presets.h"
#include "hetis/hetis_engine.h"
#include "metrics.h"
#include "model/llm.h"
#include "workload/scenarios.h"

namespace {

using namespace hetis;
using Clock = std::chrono::steady_clock;

constexpr Seconds kDrain = 600.0;
// The spot_dc64 reclamation script is part of that workload's definition:
// every seed replays the same leaves and notices, so host cost compares
// across seeds; only the traffic follows --seed.
constexpr std::uint64_t kChurnSeed = 20251116;
constexpr double kSloTarget = 0.99;  // attainment the slo_rate_rps search must keep
const engine::SloSpec kSlo{2.0, 0.15};

struct Workload {
  const char* name;
  const char* engine;
  const char* model;
  const char* cluster;
  workload::Scenario scenario;
  double rate;             // req/s
  Seconds horizon;         // arrival window
  Seconds probe_horizon;   // arrival window of the slo_rate_rps probes
  bool spot_churn;         // spot_notice churn through control::Controller
};

// Why each workload exists is recorded in perfbench/NOTES.md.
const Workload kWorkloads[] = {
    {"chat_knee", "hetis", "Llama-13B", "paper", workload::Scenario::kPoisson, 16.0, 4000.0, 4000.0,
     false},
    {"longctx_kv", "hetis", "Llama-13B", "paper", workload::Scenario::kLongContext, 4.5, 15000.0,
     15000.0, false},
    // Near its knee a spot_dc64 probe over the full window costs ~25 s of
    // host time, so its probes replay the first 150 s of the workload.
    {"spot_dc64", "hetis", "Llama-70B", "dc64", workload::Scenario::kPoisson, 8.0, 600.0, 150.0,
     true},
    {"chat_hexgen", "hexgen", "Llama-13B", "paper", workload::Scenario::kPoisson, 8.0, 20000.0,
     20000.0, false},
};

const Workload& workload_by_name(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<workload::Request> make_trace(const Workload& w, std::uint64_t seed, double rate,
                                         Seconds horizon) {
  return workload::generate_scenario(workload::scenario_preset(w.scenario, rate, horizon, seed));
}

engine::EngineOptions engine_options(const Workload& w,
                                     const std::optional<parallel::ParallelPlan>& plan) {
  if (std::string(w.engine) == "hexgen") return engine::HexgenConfig{};
  engine::HetisConfig cfg;
  cfg.workload.decode_batch = 64;
  cfg.workload.mean_context = 512;
  // One search thread: the multi-threaded search shares the evaluator's
  // unsynchronized cost memos (ROADMAP P0) and kills a few percent of
  // set-ups at random, so a run's failure count would not repeat.  The
  // search and its plan are the same at any thread count.
  cfg.search.search_threads = 1;
  cfg.plan = plan;  // empty: engine::make runs the planner
  return cfg;
}

/// The engine's current plan (none for engines without a planner).
std::optional<parallel::ParallelPlan> plan_of(const engine::Engine& eng) {
  const auto* hetis_engine = dynamic_cast<const core::HetisEngine*>(&eng);
  if (hetis_engine == nullptr) return std::nullopt;
  return hetis_engine->plan();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Traced-run recorder ----------------------------------------------------

enum class SpanKind : std::uint8_t { kQueue, kPrefill, kDecode, kMigrate };

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kQueue: return "queue";
    case SpanKind::kPrefill: return "prefill";
    case SpanKind::kDecode: return "decode";
    case SpanKind::kMigrate: return "migrate";
  }
  return "?";
}

struct SimSpan {
  workload::RequestId id;
  SpanKind kind;
  Seconds start;
  Seconds end;
};

/// Benchmark-owned lifecycle observer: sim-time spans per request plus the
/// counts behind the per-layer metrics and the exactly-once check.
class Recorder final : public engine::RunObserver {
 public:
  explicit Recorder(std::size_t requests, bool keep_spans)
      : keep_spans_(keep_spans),
        arrival_(requests, -1),
        prefill_start_(requests, -1),
        prefill_done_(requests, -1),
        prefills_(requests, 0),
        finishes_(requests, 0) {}

  void on_arrival(const workload::Request& r) override { arrival_.at(slot(r.id)) = r.arrival; }
  void on_prefill_start(workload::RequestId id, Seconds t) override {
    const std::size_t i = slot(id);
    prefill_start_[i] = t;  // each attempt; a re-prefill is timed on its own
    if (prefills_[i]++ == 0) {
      queue_wait_.push_back(t - arrival_[i]);
      span(id, SpanKind::kQueue, arrival_[i], t);
    }
  }
  void on_prefill_done(workload::RequestId id, Seconds t) override {
    const std::size_t i = slot(id);
    prefill_done_[i] = t;
    prefill_time_.push_back(t - prefill_start_[i]);
    span(id, SpanKind::kPrefill, prefill_start_[i], t);
  }
  void on_token(workload::RequestId, Seconds t, std::int64_t) override {
    ++tokens_;
    if (steps_ == 0 || t != last_token_time_) {
      ++steps_;
      last_token_time_ = t;
    }
  }
  void on_finish(workload::RequestId id, Seconds t) override {
    const std::size_t i = slot(id);
    ++finishes_[i];
    span(id, SpanKind::kDecode, prefill_done_[i], t);
  }
  void on_migrate(workload::RequestId id, Seconds start, Seconds ready, int, int) override {
    migrate_time_.push_back(ready - start);
    span(id, SpanKind::kMigrate, start, ready);
  }

  /// "" when every request finished at most once.
  std::string check_finishes() const {
    for (std::size_t i = 0; i < finishes_.size(); ++i) {
      if (finishes_[i] > 1) {
        return "request " + std::to_string(i) + " finished " + std::to_string(finishes_[i]) +
               " times";
      }
    }
    return "";
  }
  std::size_t reprefilled() const {
    return static_cast<std::size_t>(
        std::count_if(prefills_.begin(), prefills_.end(), [](int n) { return n > 1; }));
  }

  const std::vector<double>& queue_wait() const { return queue_wait_; }
  const std::vector<double>& prefill_time() const { return prefill_time_; }
  const std::vector<double>& migrate_time() const { return migrate_time_; }
  double tokens_per_step() const { return steps_ == 0 ? 0.0 : double(tokens_) / double(steps_); }
  const std::vector<SimSpan>& spans() const { return spans_; }

 private:
  static std::size_t slot(workload::RequestId id) { return static_cast<std::size_t>(id); }
  void span(workload::RequestId id, SpanKind kind, Seconds start, Seconds end) {
    if (keep_spans_) spans_.push_back({id, kind, start, end});
  }

  bool keep_spans_;
  std::vector<Seconds> arrival_, prefill_start_, prefill_done_;
  std::vector<int> prefills_, finishes_;
  std::vector<double> queue_wait_, prefill_time_, migrate_time_;
  std::uint64_t tokens_ = 0, steps_ = 0;
  Seconds last_token_time_ = 0;
  std::vector<SimSpan> spans_;
};

/// Host-time span of the benchmark's own calls into the program.
struct HostSpan {
  std::string name;
  workload::RequestId id;
  double start_s;
  double end_s;
};

// --- One event loop ---------------------------------------------------------

struct LoopOptions {
  Recorder* recorder = nullptr;                  // installs an observer when set
  std::vector<HostSpan>* submit_spans = nullptr; // times each Engine::submit when set
  Clock::time_point epoch{};                     // origin of host spans
  bool sliced = false;                           // run_until in slices of simulated time
  bool stop_when_failed = false;                 // sliced, and stop once kSloTarget is lost
};

struct LoopResult {
  std::size_t events = 0;
  double wall_s = 0;
  double submit_s = 0;
  bool stopped_early = false;
  perfbench::Grade grade;
  // The collector's own count, printed as "finished" beside the records'
  // "unfinished" count, so that sent = finished + unfinished compares two
  // counts kept apart.
  std::size_t collector_finished = 0;
  std::string digest;
  std::vector<std::string> errors;

  // Sim-time end-to-end metrics.
  double ttft_p50 = 0, ttft_p99 = 0, tpot_p50 = 0, tpot_p99 = 0, norm_latency_mean = 0;
  std::size_t ttft_samples = 0, tpot_samples = 0;

  // Per-layer counts.
  int preemptions = 0;
  double usable_gb = 0;
  engine::PerfCounters perf;
  control::ControllerStats control;
  double device_seconds = 0;
};

/// Requests that can no longer meet kSlo at sim time `now`.
std::size_t definite_misses(const std::vector<engine::RequestRecord>& records, Seconds now) {
  std::size_t misses = 0;
  for (const auto& rec : records) {
    if (rec.finished()) {
      misses += engine::meets_slo(rec, kSlo) ? 0 : 1;
    } else if (rec.first_token >= 0) {
      misses += rec.ttft() > kSlo.ttft ? 1 : 0;
    } else {
      misses += now - rec.arrival > kSlo.ttft ? 1 : 0;
    }
  }
  return misses;
}

/// One open-loop run of `trace`, an arrival window of `horizon` seconds.
LoopResult run_loop(const Workload& w, Seconds horizon, const hw::Cluster& cluster,
                    engine::Engine& eng, const std::vector<workload::Request>& trace,
                    const LoopOptions& opt) {
  LoopResult res;
  sim::Simulation sim;
  std::optional<control::Controller> ctl;
  if (w.spot_churn) {
    control::ControlSpec cs;
    cs.churn = control::churn_preset(control::Churn::kSpotNotice, horizon, kChurnSeed);
    cs.horizon = horizon;
    cs.slo = kSlo;
    ctl.emplace(cs, cluster);
  }

  const auto t0 = Clock::now();
  eng.metrics().reserve(trace.size());
  eng.metrics().set_observer(opt.recorder);
  eng.start(sim);
  // Attached after start, as run_trace's on_start hook does; the controller
  // chains itself in front of the recorder.
  if (ctl) ctl->attach(sim, eng);
  for (const auto& r : trace) {
    if (opt.submit_spans != nullptr) {
      sim.schedule_at(r.arrival, [&eng, &sim, &r, &opt, &res] {
        const auto s = Clock::now();
        eng.submit(sim, r);
        const auto e = Clock::now();
        res.submit_s += std::chrono::duration<double>(e - s).count();
        opt.submit_spans->push_back(
            {"submit", r.id, std::chrono::duration<double>(s - opt.epoch).count(),
             std::chrono::duration<double>(e - opt.epoch).count()});
      });
    } else {
      sim.schedule_at(r.arrival, [&eng, &sim, &r] { eng.submit(sim, r); });
    }
  }
  const Seconds deadline = (trace.empty() ? 0.0 : trace.back().arrival) + kDrain;
  if (opt.sliced || opt.stop_when_failed) {
    // Probes run in slices so they can stop once the attainment target is
    // out of reach.  Slicing run_until must not change the event order; the
    // own-rate probe is sliced without stopping and must match the main run.
    const Seconds slice = std::max(1.0, deadline / 64.0);
    for (Seconds until = slice;; until = std::min(deadline, until + slice)) {
      res.events += sim.run_until(until);
      if (opt.stop_when_failed) {
        const std::size_t misses = definite_misses(eng.metrics().records(), sim.now());
        if (double(trace.size() - std::min(misses, trace.size())) / double(trace.size()) <
            kSloTarget) {
          res.stopped_early = true;
          break;
        }
      }
      if (until >= deadline) break;
    }
  } else {
    res.events = sim.run_until(deadline);
  }
  res.wall_s = seconds_since(t0);
  eng.metrics().set_observer(nullptr);

  const auto& m = eng.metrics();
  const auto& records = m.records();
  res.grade = perfbench::grade(records, trace.size(), kSlo);
  res.collector_finished = m.finished();
  res.digest = perfbench::run_digest(records, res.events);
  if (res.stopped_early) return res;

  // Correctness checks, from outside the program.
  if (m.arrived() != trace.size()) {
    res.errors.push_back("arrived " + std::to_string(m.arrived()) + " of " +
                         std::to_string(trace.size()) + " sent");
  }
  if (m.finished() != res.grade.finished) {
    res.errors.push_back("collector counts " + std::to_string(m.finished()) +
                         " finished, records show " + std::to_string(res.grade.finished));
  }
  if (std::string bad = perfbench::check_record_order(records); !bad.empty()) {
    res.errors.push_back(bad);
  }
  if (opt.recorder != nullptr) {
    if (std::string bad = opt.recorder->check_finishes(); !bad.empty()) res.errors.push_back(bad);
  }

  std::vector<double> ttft, tpot, norm;
  Seconds last_finish = 0;
  for (const auto& rec : records) {
    if (rec.first_token >= 0) ttft.push_back(rec.ttft());
    if (!rec.finished()) continue;
    last_finish = std::max(last_finish, rec.finish);
    norm.push_back(rec.norm_latency());
    if (rec.output_len > 1) tpot.push_back(rec.tpot());
  }
  res.ttft_samples = ttft.size();
  res.tpot_samples = tpot.size();
  res.ttft_p50 = perfbench::percentile(ttft, 50);
  res.ttft_p99 = perfbench::percentile(ttft, 99);
  res.tpot_p50 = perfbench::percentile(tpot, 50);
  res.tpot_p99 = perfbench::percentile(tpot, 99);
  double sum = 0;
  for (double v : norm) sum += v;
  res.norm_latency_mean = norm.empty() ? 0.0 : sum / double(norm.size());

  res.preemptions = m.total_preemptions();
  res.usable_gb = to_gb(eng.usable_kv_capacity());
  res.perf = eng.perf_counters();
  if (ctl) {
    res.control = ctl->stats();
    res.device_seconds = ctl->device_seconds(last_finish);
  }
  return res;
}

// --- Output -----------------------------------------------------------------

/// A number with all its digits.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal JSON object writer.
class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, fmt(v)); }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + engine::json_escape(v) + "\"");
  }
  Json& raw(const std::string& k, const std::string& v) {
    out_ << (first_ ? "" : ",") << '"' << k << "\":" << v;
    first_ = false;
    return *this;
  }
  std::string done() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string list(const std::vector<std::string>& items) {
  std::string s = "[";
  for (std::size_t i = 0; i < items.size(); ++i) s += (i ? "," : "") + items[i];
  return s + "]";
}

std::string errors_json(const std::vector<std::string>& errors) {
  std::vector<std::string> quoted;
  for (const auto& e : errors) quoted.push_back("\"" + engine::json_escape(e) + "\"");
  return list(quoted);
}

std::string grade_json(double rate, Seconds horizon, const LoopResult& r) {
  return Json()
      .num("rate", rate)
      .num("horizon", horizon)
      .num("sent", double(r.grade.sent))
      .num("finished", double(r.collector_finished))
      .num("unfinished", double(r.grade.unfinished))
      .num("attainment", r.grade.attainment())
      .raw("pass", r.grade.meets(kSloTarget) ? "true" : "false")
      .raw("stopped_early", r.stopped_early ? "true" : "false")
      .num("wall_s", r.wall_s)
      .str("digest", r.digest)
      .done();
}

// --- Modes ------------------------------------------------------------------

struct Setup {
  hw::Cluster cluster;
  model::ModelSpec model;
  std::vector<workload::Request> trace;
  std::unique_ptr<engine::Engine> engine;
  double generate_s = 0;
  double make_s = 0;
  int configs_evaluated = 0;
};

/// Generates the trace and constructs the engine; with `plan` empty the
/// engine runs the planner, otherwise it serves `plan`.
Setup set_up(const Workload& w, std::uint64_t seed,
             const std::optional<parallel::ParallelPlan>& plan) {
  Setup s{harness::cluster_by_name(w.cluster), model::model_by_name(w.model), {}, {}};
  auto t0 = Clock::now();
  s.trace = make_trace(w, seed, w.rate, w.horizon);
  s.generate_s = seconds_since(t0);
  t0 = Clock::now();
  s.engine = engine::make(w.engine, s.cluster, s.model, engine_options(w, plan));
  s.make_s = seconds_since(t0);
  if (const auto* rc = dynamic_cast<const engine::Reconfigurable*>(s.engine.get())) {
    if (const auto* diag = rc->last_search_diagnostics()) {
      s.configs_evaluated = diag->configurations_evaluated;
    }
  }
  return s;
}

/// Sets up `repeat` times in this process, printing one line per set-up as
/// soon as it is done, so the lines before a crash survive it.
int mode_setup(const Workload& w, std::uint64_t seed, int repeat) {
  for (int i = 0; i < repeat; ++i) {
    const Setup s = set_up(w, seed, std::nullopt);
    const auto plan = plan_of(*s.engine);
    std::printf("%s\n", Json()
                            .num("generate_s", s.generate_s)
                            .num("make_s", s.make_s)
                            .num("configs_evaluated", s.configs_evaluated)
                            .str("plan", plan ? perfbench::plan_to_text(*plan) : "")
                            .done()
                            .c_str());
    std::fflush(stdout);
  }
  return 0;
}

void write_spans(const std::string& path, const std::vector<HostSpan>& host,
                 const std::vector<SimSpan>& sim_spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "clock,name,id,start_s,end_s\n";
  char buf[160];
  for (const auto& s : host) {
    std::snprintf(buf, sizeof(buf), "host,%s,%lld,%.9f,%.9f\n", s.name.c_str(),
                  static_cast<long long>(s.id), s.start_s, s.end_s);
    out << buf;
  }
  for (const auto& s : sim_spans) {
    std::snprintf(buf, sizeof(buf), "sim,%s,%lld,%.9f,%.9f\n", to_string(s.kind),
                  static_cast<long long>(s.id), s.start, s.end);
    out << buf;
  }
}

int mode_run(const Workload& w, std::uint64_t seed, std::optional<parallel::ParallelPlan> plan,
             double loop_seconds, bool traced, const std::string& spans_path) {
  const auto epoch = Clock::now();
  std::vector<HostSpan> host_spans;
  Setup s = set_up(w, seed, plan);
  host_spans.push_back({"setup.generate", -1, 0.0, s.generate_s});
  host_spans.push_back({"setup.make", -1, s.generate_s, s.generate_s + s.make_s});
  if (!plan) plan = plan_of(*s.engine);
  auto fresh_engine = [&] {
    return engine::make(w.engine, s.cluster, s.model, engine_options(w, plan));
  };

  std::vector<std::string> errors;
  LoopResult main_run = run_loop(w, w.horizon, s.cluster, *s.engine, s.trace, {});
  for (const auto& e : main_run.errors) errors.push_back("main: " + e);
  // Host speed (traced runs only): repeat the untraced loop on the pinned
  // plan until loop_seconds of loops have run, at least kMinLoops times, and
  // take the median.  Every repetition must reproduce the main digest.
  constexpr int kMinLoops = 3, kMaxLoops = 15;
  std::vector<double> loop_walls{main_run.wall_s};
  double looped = main_run.wall_s;
  for (int i = 1; traced && i < kMaxLoops && (i < kMinLoops || looped < loop_seconds); ++i) {
    auto eng = fresh_engine();
    const LoopResult again = run_loop(w, w.horizon, s.cluster, *eng, s.trace, {});
    loop_walls.push_back(again.wall_s);
    looped += again.wall_s;
    if (again.digest != main_run.digest) {
      errors.push_back("loop " + std::to_string(i) + " digest " + again.digest +
                       " differs from the main run's " + main_run.digest);
    }
  }
  const double rss_mb = peak_rss_mb();
  const double loop_wall = perfbench::percentile(loop_walls, 50);
  std::vector<std::string> loop_wall_text;
  for (double v : loop_walls) loop_wall_text.push_back(fmt(v));

  Json out;
  out.str("workload", w.name)
      .num("seed", double(seed))
      .num("sent", double(main_run.grade.sent))
      .num("finished", double(main_run.collector_finished))
      .num("unfinished", double(main_run.grade.unfinished))
      .str("digest", main_run.digest)
      .num("events", double(main_run.events))
      .str("plan", plan ? perfbench::plan_to_text(*plan) : "")
      .num("generate_s", s.generate_s)
      .num("make_s", s.make_s)
      .num("configs_evaluated", s.configs_evaluated)
      .raw("loop_wall_s", list(loop_wall_text))
      .num("peak_rss_mb", rss_mb)
      .num("ttft_p50_s", main_run.ttft_p50)
      .num("ttft_p99_s", main_run.ttft_p99)
      .num("ttft_samples", double(main_run.ttft_samples))
      .num("tpot_p50_s", main_run.tpot_p50)
      .num("tpot_p99_s", main_run.tpot_p99)
      .num("tpot_samples", double(main_run.tpot_samples))
      .num("norm_latency_mean_s", main_run.norm_latency_mean)
      .num("slo_attainment", main_run.grade.attainment())
      .num("unfinished_frac", main_run.grade.unfinished_frac());

  const double sent = double(s.trace.size());
  if (traced) {
    Recorder rec(s.trace.size(), /*keep_spans=*/true);
    auto eng = fresh_engine();
    LoopOptions opt;
    opt.recorder = &rec;
    opt.submit_spans = &host_spans;
    opt.epoch = epoch;
    const double loop_start = seconds_since(epoch);
    const LoopResult tr = run_loop(w, w.horizon, s.cluster, *eng, s.trace, opt);
    host_spans.push_back({"loop", -1, loop_start, loop_start + tr.wall_s});
    for (const auto& e : tr.errors) errors.push_back("traced: " + e);
    if (tr.digest != main_run.digest) {
      errors.push_back("traced digest " + tr.digest + " differs from untraced " + main_run.digest);
    }
    const double lp_solves = double(tr.perf.lp_solves);
    out.num("workload.generate_s", s.generate_s)
        .num("planner.make_s", s.make_s)
        .num("planner.configs_evaluated", s.configs_evaluated)
        .num("sim.events", double(tr.events))
        .num("sim.events_per_req", double(tr.events) / sent)
        .num("sim_req_per_wall_s", sent / loop_wall)
        .num("sim.ns_per_event", loop_wall * 1e9 / double(main_run.events))
        .num("engine.submit_s", tr.submit_s)
        .num("engine.loop_s", tr.wall_s - tr.submit_s)
        .num("engine.queue_wait_p50_s", perfbench::percentile(rec.queue_wait(), 50))
        .num("engine.queue_wait_p99_s", perfbench::percentile(rec.queue_wait(), 99))
        .num("engine.prefill_p50_s", perfbench::percentile(rec.prefill_time(), 50))
        .num("engine.tokens_per_step", rec.tokens_per_step())
        .num("kvcache.preemptions", tr.preemptions)
        .num("kvcache.reprefill_frac", double(rec.reprefilled()) / sent)
        .num("kvcache.usable_gb", tr.usable_gb)
        .num("lp.solves_per_req", lp_solves / sent)
        .num("lp.warm_hit_ratio", lp_solves > 0 ? double(tr.perf.lp_warm_hits) / lp_solves : 0.0)
        .num("costmodel.hits_per_req", double(tr.perf.costmodel_hits) / sent)
        .num("hauler.migrations", double(rec.migrate_time().size()))
        .num("hauler.migrate_p50_s", perfbench::percentile(rec.migrate_time(), 50))
        .num("control.reconfigs",
             tr.control.forced_reconfigs + tr.control.elective_reconfigs)
        .num("control.preempt_notices", tr.control.preempt_notices)
        .num("control.device_seconds", tr.device_seconds)
        .num("trace.overhead_frac", tr.wall_s / loop_wall - 1.0);
    if (!spans_path.empty()) write_spans(spans_path, host_spans, rec.spans());
  } else {
    // slo_rate_rps: the highest arrival rate of this workload's traffic
    // shape and seed at which attainment stays >= kSloTarget with nothing
    // unfinished.  Probes serve the main run's plan, so the search makes
    // no planner calls.  The probe at the workload's own rate runs to the
    // end with a recorder installed and must reproduce the main digest.
    std::vector<std::string> probes;
    auto probe = [&](double rate, bool full) {
      const Seconds horizon = full ? w.horizon : w.probe_horizon;
      const auto trace = make_trace(w, seed, rate, horizon);
      auto eng = fresh_engine();
      Recorder rec(trace.size(), /*keep_spans=*/false);
      LoopOptions opt;
      opt.recorder = full ? &rec : nullptr;
      opt.sliced = true;
      opt.stop_when_failed = !full;
      const LoopResult r = run_loop(w, horizon, s.cluster, *eng, trace, opt);
      for (const auto& e : r.errors) errors.push_back("probe " + std::to_string(rate) + ": " + e);
      probes.push_back(grade_json(rate, horizon, r));
      return r;
    };
    const LoopResult own = probe(w.rate, /*full=*/true);
    if (own.digest != main_run.digest) {
      errors.push_back("probe at the workload's own rate has digest " + own.digest +
                       ", main run " + main_run.digest);
    }
    constexpr double kStep = 2.0;
    constexpr int kExpand = 2;
    constexpr int kHalvings = 5;  // resolution: about 3 % of the bracket's lower end
    double lo = w.rate, hi = w.rate;
    bool bracketed = false;
    auto ok = [&](double rate) { return probe(rate, false).grade.meets(kSloTarget); };
    const bool own_ok = w.probe_horizon == w.horizon ? own.grade.meets(kSloTarget) : ok(w.rate);
    if (own_ok) {
      for (int i = 0; i < kExpand && !bracketed; ++i) {
        hi = lo * kStep;
        if (ok(hi)) {
          lo = hi;
        } else {
          bracketed = true;
        }
      }
    } else {
      for (int i = 0; i < kExpand && !bracketed; ++i) {
        lo = hi / kStep;
        if (ok(lo)) {
          bracketed = true;
        } else {
          hi = lo;
        }
      }
    }
    if (!bracketed) errors.push_back("slo_rate_rps search found no bracket");
    const double slo_rate = perfbench::bisect_boundary(lo, hi, kHalvings, ok);
    out.num("slo_rate_rps", slo_rate).raw("probes", list(probes));
  }

  out.raw("errors", errors_json(errors));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench setup <workload> <seed> [N]\n"
               "       perfbench run <workload> <seed> [--plan TEXT] [--traced]\n"
               "                     [--loop-seconds S] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string mode = argv[1];
  try {
    const Workload& w = workload_by_name(argv[2]);
    const std::uint64_t seed = std::stoull(argv[3]);
    if (mode == "setup") {
      return mode_setup(w, seed, argc > 4 ? std::max(1, std::atoi(argv[4])) : 1);
    }
    if (mode != "run") return usage();
    double loop_seconds = 0;
    bool traced = false;
    std::string spans;
    std::optional<parallel::ParallelPlan> plan;
    for (int i = 4; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--traced") {
        traced = true;
      } else if (a == "--loop-seconds" && i + 1 < argc) {
        loop_seconds = std::atof(argv[++i]);
      } else if (a == "--plan" && i + 1 < argc) {
        plan = perfbench::plan_from_text(argv[++i]);
      } else if (a == "--spans" && i + 1 < argc) {
        spans = argv[++i];
      } else {
        return usage();
      }
    }
    return mode_run(w, seed, plan, loop_seconds, traced, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
