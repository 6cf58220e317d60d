// Shared flags and output helpers for the bench/example binaries.
//
// Each binary prints (a) a header identifying the paper artifact it
// regenerates, (b) an aligned table with the same series the paper plots,
// and (c) optionally writes a CSV when --csv=<path> is passed.
//
// Every binary understands the shared flag set:
//   --csv=<path>     write the main table as CSV in addition to stdout
//   --threads=<n>    experiment-runner worker threads; 0/absent = one per
//                    hardware thread.  The PDHT_THREADS environment
//                    variable is the fallback when the flag is absent
//                    (CI pins it to 2).
//   --seeds=<n>      independent seeds per grid cell (default 4; results
//                    report mean [min, max] across seeds)
//   --rounds=<n>     simulated rounds per cell; 0/absent = the bench's
//                    default budget
//   --sim-threads=<list>  comma-separated in-simulation thread counts
//                    (e.g. "1,4") for the benches that measure the round
//                    engine's worker pool (bench_perf_roundloop); 1 runs
//                    every phase inline on the calling thread.  Default
//                    "1".
//   --phase-times    record the opt-in round.phase.*.ms series
//                    (SystemConfig::phase_timing) and print a per-phase
//                    wall-clock breakdown table; bench_perf_roundloop
//                    only, ignored by the rest
//   --full           paper-scale scenario where supported
//   --json=<path>    machine-readable baseline output, for the benches
//                    that emit one (bench_perf_roundloop, bench_latency);
//                    ignored by the rest
//
// Smoke mode: when --rounds undercuts the bench's default budget the run
// is marked as a smoke run -- shape checks are still evaluated and
// printed, but no longer fail the process, because they are calibrated
// at the full budget.  The CTest smoke targets (--rounds=50 --seeds=1)
// rely on this to catch crashes/regressions cheaply without flaking.

#ifndef PDHT_BENCH_BENCH_COMMON_H_
#define PDHT_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/pdht_system.h"
#include "stats/table_writer.h"

namespace pdht::bench {

/// The 1/50-scale simulation scenario (400 peers / 800 keys / stor 20 /
/// repl 10 / fQry 1/5 / fUpd 1/3600, partialTtl, churn off) shared by
/// the simulation benches so it is recalibrated in one place; each
/// bench overrides what it sweeps (fQry, churn, seed, ...) on top.
inline core::SystemConfig ScaledBaseConfig() {
  core::SystemConfig c;
  c.params.num_peers = 400;
  c.params.keys = 800;
  c.params.stor = 20;
  c.params.repl = 10;
  c.params.f_qry = 1.0 / 5.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.strategy = core::Strategy::kPartialTtl;
  c.churn.enabled = false;
  return c;
}

struct BenchFlags {
  std::string csv;
  std::string json;      ///< baseline output path; empty = bench default.
  unsigned threads = 0;  ///< 0 = auto (hardware_concurrency).
  uint32_t seeds = 4;
  uint64_t rounds = 0;  ///< 0 = bench default.
  /// In-simulation thread counts to measure (--sim-threads=1,4); each
  /// value is a separate measurement axis point, not a worker-pool size
  /// for the experiment runner (that is --threads).
  std::vector<uint32_t> sim_threads = {1};
  bool full = false;
  bool phase_times = false;  ///< per-phase wall-clock breakdown on.
  bool smoke = false;  ///< set by RoundsOrDefault on a reduced budget.

  /// The per-cell round budget: the explicit --rounds value, or `def`.
  /// Marks the run as a smoke run when the explicit budget is below the
  /// default the shape checks were calibrated at.
  uint64_t RoundsOrDefault(uint64_t def) {
    if (rounds == 0) return def;
    if (rounds < def) smoke = true;
    return rounds;
  }
};

inline BenchFlags ParseBenchFlags(int argc, char** argv) {
  BenchFlags f;
  if (const char* env = std::getenv("PDHT_THREADS")) {
    f.threads = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--csv=")) {
      f.csv = v;
    } else if (const char* v = value_of("--json=")) {
      f.json = v;
    } else if (const char* v = value_of("--threads=")) {
      f.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--seeds=")) {
      uint64_t seeds = std::strtoull(v, nullptr, 10);
      f.seeds = seeds == 0 ? 1u : static_cast<uint32_t>(seeds);
    } else if (const char* v = value_of("--rounds=")) {
      f.rounds = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--sim-threads=")) {
      f.sim_threads.clear();
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        unsigned long n = std::strtoul(p, &end, 10);
        if (end == p) break;  // malformed tail; keep what parsed
        f.sim_threads.push_back(n == 0 ? 1u : static_cast<uint32_t>(n));
        p = (*end == ',') ? end + 1 : end;
      }
      if (f.sim_threads.empty()) f.sim_threads = {1};
    } else if (arg == "--full") {
      f.full = true;
    } else if (arg == "--phase-times") {
      f.phase_times = true;
    } else {
      std::fprintf(stderr, "warning: ignoring unknown flag '%s'\n",
                   arg.c_str());
    }
  }
  return f;
}

inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

inline void EmitTable(const TableWriter& table, const std::string& csv_path) {
  std::printf("%s\n", table.ToText().c_str());
  if (!csv_path.empty()) {
    std::string error;
    if (table.WriteCsvFile(csv_path, &error)) {
      std::printf("csv written to %s\n", csv_path.c_str());
    } else {
      std::printf("FAILED to write csv: %s\n", error.c_str());
    }
  }
}

/// Exit status for a bench whose shape checks evaluated to `pass`:
/// failures are fatal only at the full round budget (see smoke mode
/// above).
inline int ShapeCheckExit(const BenchFlags& flags, bool pass) {
  if (!pass && flags.smoke) {
    std::printf("(smoke run at reduced --rounds budget: shape-check "
                "results are informational)\n");
    return 0;
  }
  return pass ? 0 : 1;
}

}  // namespace pdht::bench

#endif  // PDHT_BENCH_BENCH_COMMON_H_
