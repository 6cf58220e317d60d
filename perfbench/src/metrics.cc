#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s", "lower"},
      {"round_ms_p50", "ms", "lower"},
      {"round_ms_p90", "ms", "lower"},
      {"rounds_per_s", "1/s", "higher"},
      {"sim_msgs_per_host_s", "msgs/s", "higher"},
      {"cpu_ms_per_round", "ms", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"msgs_per_round", "msgs/round", "lower"},
      {"hit_rate", "fraction", "higher"},
      {"query_found_frac", "fraction", "higher"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"overlay.set_members_s", "s", "lower"},
      {"overlay.maint_plan_ms", "ms", "lower"},
      {"overlay.maint_exec_ms", "ms", "lower"},
      {"overlay.maint_finish_ms", "ms", "lower"},
      {"overlay.maint_tasks", "count", "lower"},
      {"overlay.msgs_maint_per_round", "msgs/round", "lower"},
      {"overlay.lookup_us_p50", "us", "lower"},
      {"overlay.lookup_hops_mean", "hops", "lower"},
      {"overlay.lookup_success_frac", "fraction", "higher"},
      {"overlay.phase.maint_ms", "ms", "lower"},
      {"core.query_us_p50", "us", "lower"},
      {"core.query_msgs_mean", "msgs", "lower"},
      {"core.query_index_frac", "fraction", "higher"},
      {"core.ttl_index.put_touch_ns", "ns", "lower"},
      {"core.ttl_index.evict_ns_per_key", "ns", "lower"},
      {"core.index_keys_start", "count", "higher"},
      {"core.index_keys_end", "count", "higher"},
      {"core.phase.plan_ms", "ms", "lower"},
      {"core.phase.query_ms", "ms", "lower"},
      {"core.phase.publish_ms", "ms", "lower"},
      {"core.phase.update_ms", "ms", "lower"},
      {"core.phase.evict_ms", "ms", "lower"},
      {"sim.shard_pool.barrier_us", "us", "lower"},
      {"sim.event_queue.ns_per_event", "ns", "lower"},
      {"sim.churn.advance_us", "us", "lower"},
      {"sim.churn.flips_per_round", "count", "lower"},
      {"sim.phase.churn_ms", "ms", "lower"},
      {"sim.phase.drain_ms", "ms", "lower"},
      {"net.deferred_per_round", "count", "lower"},
      {"net.timeouts_per_round", "count", "lower"},
      {"net.failovers_per_round", "count", "lower"},
      {"net.lookup_rtt_p50_ms", "ms", "lower"},
      {"net.lookup_rtt_p99_ms", "ms", "lower"},
      {"stats.snapshot_ms", "ms", "lower"},
      {"stats.counter_add_ns", "ns", "lower"},
      {"metadata.sample_key_ns", "ns", "lower"},
      {"trace_overhead_frac", "fraction", "lower"},
  };
  return kDefs;
}

const std::vector<MetricDef>& ExtraMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"lookup_rtt_p50_ms", "ms", "lower"},
      {"lookup_rtt_p99_ms", "ms", "lower"},
  };
  return kDefs;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2.0;
}

bool OptimisedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool PrintReport(const RunMeta& meta, const Results& results,
                 const Outcome& outcome) {
  const std::vector<MetricDef>& defs =
      meta.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::vector<std::string> failures = outcome.check_failures;
  std::vector<const MetricDef*> shown;
  for (const MetricDef& d : defs) {
    auto it = results.find(d.name);
    if (it == results.end() || !std::isfinite(it->second.value)) {
      failures.push_back(std::string("metric not measured: ") + d.name);
      continue;
    }
    shown.push_back(&d);
  }
  if (!meta.trace) {
    for (const MetricDef& d : ExtraMetrics()) {
      if (results.count(d.name) != 0) shown.push_back(&d);
    }
  }

  std::printf("\n%-34s %22s %-11s %-7s %s\n", "metric", "value", "unit",
              "better", "n");
  for (const MetricDef* d : shown) {
    const Sampled& s = results.at(d->name);
    std::printf("%-34s %22.6f %-11s %-7s %llu\n", d->name, s.value, d->unit,
                d->better, static_cast<unsigned long long>(s.n));
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  const bool correct = failures.empty();
  std::string detail = "{\"perfbench_detail\": {\"workload\": " +
                       JsonString(meta.workload) +
                       ", \"seed\": " + std::to_string(meta.seed) +
                       ", \"trace\": " + (meta.trace ? "true" : "false") +
                       ", \"smoke\": " + (meta.smoke ? "true" : "false") +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"optimised\": " +
                       (OptimisedBuild() ? "true" : "false") +
                       ", \"compiler\": " + JsonString(__VERSION__) +
                       ", \"git_commit\": " + JsonString(meta.git_commit) +
                       ", \"checks_failed\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    detail += (i ? ", " : "") + JsonString(failures[i]);
  }
  detail += "], \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    const Sampled& s = results.at(shown[i]->name);
    detail += (i ? ", " : "") + JsonString(shown[i]->name) +
              ": {\"value\": " + JsonNumber(s.value) +
              ", \"unit\": " + JsonString(shown[i]->unit) +
              ", \"better\": " + JsonString(shown[i]->better) +
              ", \"n\": " + std::to_string(s.n) + "}";
  }
  detail += "}}}";
  std::printf("%s\n", detail.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = results.find(d.name);
    if (it == results.end() || !std::isfinite(it->second.value)) continue;
    line += (first ? "" : ", ") + JsonString(d.name) +
            ": {\"value\": " + JsonNumber(it->second.value) +
            ", \"unit\": " + JsonString(d.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace perfbench
