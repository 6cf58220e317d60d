// perfbench: the repo benchmark's binary.  One process runs one workload
// of core::PdhtSystem as a closed loop -- a single caller issuing
// RunRounds(1) back to back; the simulated offered load is fixed by the
// workload's f_qry, f_upd and churn -- and prints every metric of its
// mode, then a one-line JSON result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--git-commit <sha>] [--trace-out <path>]
//
// --trace 0 measures the end-to-end metrics with all tracing off.
// --trace 1 runs the same workload twice (untraced reference, then with
// the engine's phase timing and the benchmark's spans on) and probes each
// layer at the workload's sizes; spans go to --trace-out.  See README.md.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "core/pdht_system.h"
#include "layer_probes.h"
#include "metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using pdht::core::PdhtSystem;
using pdht::core::SystemConfig;

/// Rng tags of the two ExecuteQuery probe batches.
constexpr uint64_t kPrefixProbeTag = 0x707265666978ULL;  // "prefix"
constexpr uint64_t kWindowProbeTag = 0x77696e646f77ULL;  // "window"

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  bool smoke = false;
  std::string git_commit = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--git-commit") {
      a->git_commit = v;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::unique_ptr<PdhtSystem> Construct(const SystemConfig& config,
                                      double* seconds) {
  const std::string err = config.Validate();
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: invalid workload config: %s\n",
                 err.c_str());
    std::exit(2);
  }
  const auto t0 = Clock::now();
  auto sys = std::make_unique<PdhtSystem>(config);
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return sys;
}

/// Model-side metrics of one stretch of a run: pure functions of the
/// seed, compared bit for bit between runs.
struct ModelMetrics {
  double msgs_per_round = 0.0;
  double hit_rate = 0.0;
  double found_frac = 0.0;
  double rtt_p50_ms = 0.0;
  double rtt_p99_ms = 0.0;
  uint64_t rtt_n = 0;
  uint64_t index_keys = 0;
  uint64_t routing_fingerprint = 0;
  bool operator==(const ModelMetrics&) const = default;
};

std::string Describe(const ModelMetrics& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "msgs/round %.17g hit %.17g found %.17g rtt p50 %.17g p99 "
                "%.17g (n %llu) index %llu fingerprint %llx",
                m.msgs_per_round, m.hit_rate, m.found_frac, m.rtt_p50_ms,
                m.rtt_p99_ms, static_cast<unsigned long long>(m.rtt_n),
                static_cast<unsigned long long>(m.index_keys),
                static_cast<unsigned long long>(m.routing_fingerprint));
  return buf;
}

/// Model metrics over rounds [first, last) closed by probe batch `probe`.
ModelMetrics Measure(const PdhtSystem& sys, uint64_t first, uint64_t last,
                     uint64_t msgs, const QueryBatch& probe) {
  ModelMetrics m;
  m.msgs_per_round =
      static_cast<double>(msgs) / static_cast<double>(last - first);
  m.hit_rate = sys.engine().Series(PdhtSystem::kSeriesHitRate)
                   .MeanOver(first, last);
  m.found_frac = probe.n == 0 ? 0.0
                              : static_cast<double>(probe.found) /
                                    static_cast<double>(probe.n);
  m.rtt_n = sys.lookup_rtt_ms().count();
  if (m.rtt_n > 0) {
    m.rtt_p50_ms = sys.lookup_rtt_ms().Quantile(0.5);
    m.rtt_p99_ms = sys.lookup_rtt_ms().Quantile(0.99);
  }
  m.index_keys = sys.IndexedKeyCount();
  if (sys.dht_overlay() != nullptr) {
    m.routing_fingerprint = sys.dht_overlay()->RoutingFingerprint();
  }
  return m;
}

/// The determinism-check prefix: prefix_rounds rounds, then a probe batch.
ModelMetrics RunPrefix(PdhtSystem& sys, const Workload& w,
                       SpanRecorder& spans) {
  ScopedSpan span(spans, "prefix");
  const uint64_t m0 = sys.network().TotalMessages();
  sys.RunRounds(w.prefix_rounds);
  const uint64_t msgs = sys.network().TotalMessages() - m0;
  const QueryBatch probe =
      RunQueryBatch(sys, w, w.prefix_probes, kPrefixProbeTag, spans);
  return Measure(sys, 0, w.prefix_rounds, msgs, probe);
}

struct Window {
  uint64_t first_round = 0;
  uint64_t rounds = 0;
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  double wall_s = 0.0;
  uint64_t msgs = 0;
  uint64_t index_keys_start = 0;
  uint64_t index_keys_end = 0;
  uint64_t bad_rounds = 0;  ///< rounds failing the per-round checks.
  QueryBatch probe;         ///< post-window ExecuteQuery batch.
  ModelMetrics prefix;      ///< of the prefix (see RunPrefix).
  ModelMetrics model;       ///< of the window and its probe batch.
};

/// Prefix, warm-up, then the timed window of RunRounds(1) calls and the
/// post-window probe batch.
Window RunMain(PdhtSystem& sys, const Workload& w, SpanRecorder& spans) {
  Window win;
  win.prefix = RunPrefix(sys, w, spans);
  {
    ScopedSpan span(spans, "warmup");
    sys.RunRounds(w.warmup_rounds);
  }
  win.first_round = sys.engine().current_round();
  win.rounds = w.window_rounds;
  win.wall_ms.reserve(w.window_rounds);
  win.cpu_ms.reserve(w.window_rounds);
  win.index_keys_start = sys.IndexedKeyCount();
  const uint64_t m0 = sys.network().TotalMessages();
  {
    ScopedSpan span(spans, "window");
    const auto w0 = Clock::now();
    for (uint64_t r = 0; r < w.window_rounds; ++r) {
      const auto t0 = Clock::now();
      const double c0 = CpuMs();
      {
        ScopedSpan round(spans, "PdhtSystem::RunRounds(1)");
        sys.RunRounds(1);
      }
      win.cpu_ms.push_back(CpuMs() - c0);
      win.wall_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
    }
    win.wall_s = std::chrono::duration<double>(Clock::now() - w0).count();
  }
  win.msgs = sys.network().TotalMessages() - m0;
  win.index_keys_end = sys.IndexedKeyCount();
  // Per-round output checks: round hits <= round queries, and every round
  // moved messages.
  const auto& hit = sys.engine().Series(PdhtSystem::kSeriesHitRate).values();
  const auto& msg = sys.engine().Series(PdhtSystem::kSeriesMsgTotal).values();
  const uint64_t last = win.first_round + win.rounds;
  for (uint64_t r = win.first_round; r < last; ++r) {
    if (r >= hit.size() || r >= msg.size() || !(hit[r] >= 0.0) ||
        hit[r] > 1.0 || !(msg[r] > 0.0)) {
      ++win.bad_rounds;
    }
  }
  win.probe =
      RunQueryBatch(sys, w, w.window_probes, kWindowProbeTag, spans);
  win.model = Measure(sys, win.first_round, last, win.msgs, win.probe);
  return win;
}

void CheckOutputs(const PdhtSystem& sys, const Window& win,
                  Outcome* outcome) {
  outcome->attempted += win.rounds + win.probe.n;
  outcome->failed += win.bad_rounds;
  if (win.bad_rounds > 0) {
    outcome->check_failures.push_back(
        std::to_string(win.bad_rounds) +
        " rounds with hits > queries or no messages");
  }
  if (!(win.model.msgs_per_round > 0.0)) {
    outcome->check_failures.push_back("msgs_per_round is not positive");
  }
  if (sys.dht_overlay() != nullptr) {
    const std::string err = sys.dht_overlay()->CheckInvariants();
    if (!err.empty()) {
      outcome->check_failures.push_back("overlay CheckInvariants: " + err);
    }
  }
}

void ExpectSame(const char* what, const ModelMetrics& a,
                const ModelMetrics& b, Outcome* outcome) {
  if (a == b) return;
  outcome->check_failures.push_back(std::string(what) + ": " + Describe(a) +
                                    " vs " + Describe(b));
}

void Put(Results* r, const char* name, double value, uint64_t n) {
  (*r)[name] = Sampled{value, n};
}

void RunEndToEnd(const Workload& w, Results* r, Outcome* outcome) {
  SpanRecorder off(false);
  std::vector<double> setup_s;
  double secs = 0.0;

  // Same-seed re-run of the prefix.  On pinned-shard workloads it runs at
  // sim_threads 1, so one re-run proves both reproducibility and thread-
  // count invariance (construction itself is serial, so its time counts
  // toward setup_s like the configured constructions).
  SystemConfig rerun_config = w.config;
  if (w.pinned_shards) rerun_config.sim_threads = 1;
  ModelMetrics rerun;
  {
    auto sys = Construct(rerun_config, &secs);
    setup_s.push_back(secs);
    rerun = RunPrefix(*sys, w, off);
  }
  // Set-up samples only, between the re-run and the measured system.
  for (uint32_t i = 2; i < w.setup_reps; ++i) {
    Construct(w.config, &secs);
    setup_s.push_back(secs);
  }
  auto sys = Construct(w.config, &secs);
  setup_s.push_back(secs);

  const Window win = RunMain(*sys, w, off);
  ExpectSame(w.pinned_shards ? "prefix at sim_threads 1 vs configured"
                             : "prefix re-run with the same seed",
             rerun, win.prefix, outcome);
  CheckOutputs(*sys, win, outcome);

  const uint64_t n = win.rounds;
  Put(r, "setup_s", Median(setup_s), setup_s.size());
  Put(r, "round_ms_p50", Median(win.wall_ms), n);
  Put(r, "round_ms_p90", Quantile(win.wall_ms, 0.9), n);
  Put(r, "rounds_per_s", static_cast<double>(n) / win.wall_s, n);
  Put(r, "sim_msgs_per_host_s", static_cast<double>(win.msgs) / win.wall_s,
      n);
  Put(r, "cpu_ms_per_round", Median(win.cpu_ms), n);
  Put(r, "peak_rss_mb", PeakRssMb(), 1);
  Put(r, "msgs_per_round", win.model.msgs_per_round, n);
  Put(r, "hit_rate", win.model.hit_rate, n);
  Put(r, "query_found_frac", win.model.found_frac, win.probe.n);
  if (win.model.rtt_n > 0) {
    Put(r, "lookup_rtt_p50_ms", win.model.rtt_p50_ms, win.model.rtt_n);
    Put(r, "lookup_rtt_p99_ms", win.model.rtt_p99_ms, win.model.rtt_n);
  }
}

double SeriesMean(const PdhtSystem& sys, const std::string& name,
                  const Window& win) {
  if (!sys.engine().HasSeries(name)) return 0.0;
  return sys.engine().Series(name).MeanOver(win.first_round,
                                            win.first_round + win.rounds);
}

void RunTraced(const Workload& w, SpanRecorder& spans, Results* r,
               Outcome* outcome) {
  double secs = 0.0;
  // Untraced reference: phase timing and spans off.
  double untraced_p50 = 0.0;
  ModelMetrics untraced_model;
  {
    SpanRecorder off(false);
    auto sys = Construct(w.config, &secs);
    const Window win = RunMain(*sys, w, off);
    untraced_p50 = Median(win.wall_ms);
    untraced_model = win.model;
  }

  ScopedSpan root(spans, w.name.c_str());
  SystemConfig traced_config = w.config;
  traced_config.phase_timing = true;
  std::unique_ptr<PdhtSystem> sys;
  {
    ScopedSpan span(spans, "PdhtSystem::PdhtSystem");
    sys = Construct(traced_config, &secs);
  }
  const Window win = RunMain(*sys, w, spans);
  ExpectSame("window model metrics with phase timing on vs off",
             untraced_model, win.model, outcome);
  CheckOutputs(*sys, win, outcome);

  const uint64_t n = win.rounds;
  const double traced_p50 = Median(win.wall_ms);
  Put(r, "trace_overhead_frac",
      untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, n);
  struct PhaseMetric {
    const char* metric;
    const char* phase;
  };
  for (const PhaseMetric& p : {PhaseMetric{"sim.phase.churn_ms", "churn"},
                               PhaseMetric{"sim.phase.drain_ms", "drain"},
                               PhaseMetric{"overlay.phase.maint_ms", "maint"},
                               PhaseMetric{"core.phase.plan_ms", "plan"},
                               PhaseMetric{"core.phase.query_ms", "query"},
                               PhaseMetric{"core.phase.publish_ms", "publish"},
                               PhaseMetric{"core.phase.update_ms", "update"},
                               PhaseMetric{"core.phase.evict_ms", "evict"}}) {
    Put(r, p.metric,
        SeriesMean(*sys, pdht::sim::RoundEngine::PhaseSeriesName(p.phase),
                   win),
        n);
  }
  const double deferred =
      SeriesMean(*sys, PdhtSystem::kSeriesDeferredRate, win);
  Put(r, "net.deferred_per_round", deferred, n);
  Put(r, "net.timeouts_per_round",
      SeriesMean(*sys, PdhtSystem::kSeriesTimeoutRate, win), n);
  Put(r, "net.failovers_per_round",
      SeriesMean(*sys, PdhtSystem::kSeriesFailoverRate, win), n);
  Put(r, "net.lookup_rtt_p50_ms", win.model.rtt_p50_ms, win.model.rtt_n);
  Put(r, "net.lookup_rtt_p99_ms", win.model.rtt_p99_ms, win.model.rtt_n);
  Put(r, "core.index_keys_start", static_cast<double>(win.index_keys_start),
      1);
  Put(r, "core.index_keys_end", static_cast<double>(win.index_keys_end), 1);
  const QueryBatch& q = win.probe;
  const double qn = q.n == 0 ? 1.0 : static_cast<double>(q.n);
  Put(r, "core.query_us_p50", Median(q.call_us), q.n);
  Put(r, "core.query_msgs_mean", static_cast<double>(q.messages) / qn, q.n);
  Put(r, "core.query_index_frac", static_cast<double>(q.from_index) / qn,
      q.n);

  ProbeSystemLayers(*sys, w, spans, r);
  std::vector<pdht::net::PeerId> members;
  if (sys->dht_overlay() != nullptr) members = sys->dht_overlay()->members();
  sys.reset();  // the standalone probes rebuild at the same sizes
  ProbeStandaloneLayers(w, members, deferred, spans, r,
                        &outcome->check_failures);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--smoke] [--git-commit <sha>] "
                 "[--trace-out <path>]\n");
    return 2;
  }
  if (!OptimisedBuild()) {
    std::fprintf(stderr,
                 "perfbench: build type '%s' is not optimised (needs "
                 "-O2 and NDEBUG); refusing to report timings\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const auto workload =
      MakeWorkload(args.workload, args.seed, args.seconds, args.smoke,
                   args.trace);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  std::printf(
      "perfbench workload=%s seed=%llu trace=%d smoke=%d peers=%llu "
      "sim_threads=%u window_rounds=%llu commit=%s\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.smoke ? 1 : 0,
      static_cast<unsigned long long>(w.config.params.num_peers),
      w.config.sim_threads, static_cast<unsigned long long>(w.window_rounds),
      args.git_commit.c_str());
  std::fflush(stdout);

  SpanRecorder spans(args.trace);
  Results results;
  Outcome outcome;
  if (args.trace) {
    RunTraced(w, spans, &results, &outcome);
    spans.PrintSelfTimes(24);
    if (!args.trace_out.empty()) {
      if (spans.WriteJson(args.trace_out)) {
        std::printf("spans written to %s\n", args.trace_out.c_str());
      } else {
        outcome.check_failures.push_back("could not write spans to " +
                                         args.trace_out);
      }
    }
  } else {
    RunEndToEnd(w, &results, &outcome);
  }
  RunMeta meta{w.name, args.seed, args.trace, args.smoke, args.git_commit};
  return PrintReport(meta, results, outcome) ? 0 : 1;
}
