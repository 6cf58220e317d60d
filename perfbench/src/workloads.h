// The benchmark's three workloads, each a fully seeded SystemConfig plus
// the round budget it runs for.  README.md records why each
// workload exists and which layers it exercises or bypasses.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/pdht_system.h"

namespace perfbench {

// Seeding: the system seed (config.seed) is a constant of each workload,
// part of its definition: it fixes overlay ids, churn, topology and the
// round loop's query stream.  --seed (input_seed) draws the probe inputs:
// the keys of the ExecuteQuery batches and of the layer probes.  At 1M
// peers a ~100-round window is dominated by whether a few head keys were
// found by a bounded walk, a rare event, so a seeded round loop made
// hit_rate swing 0.14-0.33 between seeds; see README.md.
struct Workload {
  std::string name;
  pdht::core::SystemConfig config;
  uint64_t input_seed = 0;  ///< --seed.
  /// Pinned-shard workloads run the sharded engine with a fixed shard
  /// count, so a sim_threads = 1 re-run must reproduce them bit for bit.
  bool pinned_shards = false;
  uint64_t prefix_rounds = 0;  ///< rounds the determinism re-run covers.
  uint64_t warmup_rounds = 0;  ///< untimed rounds after the prefix.
  uint64_t window_rounds = 0;  ///< timed rounds, one RunRounds(1) each.
  uint64_t prefix_probes = 0;  ///< ExecuteQuery calls closing the prefix.
  uint64_t window_probes = 0;  ///< ExecuteQuery calls after the window.
  uint32_t setup_reps = 3;     ///< timed constructions per run.
  uint32_t maint_rounds = 3;   ///< overlay maintenance probe rounds.
  uint32_t lookup_probes = 0;  ///< standalone StructuredOverlay::Lookup calls.
};

/// Builds workload `name` with probe inputs drawn from `seed`.  The timed
/// window is max(100, seconds * a per-workload rate) rounds, halved for
/// the `traced` run -- a pure function of the arguments, so every
/// model-side metric is exact at a fixed seed.  `smoke` shrinks
/// populations and budgets for the self-test.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     double seconds, bool smoke,
                                     bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
