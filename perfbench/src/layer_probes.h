// Per-layer probes for the traced run: each times one module's public
// entry points (sim, overlay, core, net, stats, metadata) at the
// workload's sizes, from the benchmark's own code.

#ifndef PERFBENCH_LAYER_PROBES_H_
#define PERFBENCH_LAYER_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pdht_system.h"
#include "metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Outcome of a batch of PdhtSystem::ExecuteQuery calls on seeded keys.
struct QueryBatch {
  uint64_t n = 0;
  uint64_t found = 0;
  uint64_t from_index = 0;
  uint64_t messages = 0;        ///< index + unstructured messages.
  std::vector<double> call_us;  ///< host time per call.
};

/// Runs `n` ExecuteQuery calls with keys drawn at the system's popularity
/// by an Rng derived from (input seed, tag); one span per call when
/// tracing.
QueryBatch RunQueryBatch(pdht::core::PdhtSystem& sys, const Workload& w,
                         uint64_t n, uint64_t tag, SpanRecorder& spans);

/// Probes that need the live system: Snapshot, QueryWorkload::SampleKey
/// and TtlIndex at the workload's stor and key popularity.
void ProbeSystemLayers(pdht::core::PdhtSystem& sys, const Workload& w,
                       SpanRecorder& spans, Results* out);

/// Probes on standalone objects built at the workload's sizes: a
/// MakeOverlay overlay over `members` (SetMembers, maintenance, Lookup),
/// ShardPool, EventQueue (at `deferred_per_round` events), ChurnModel and
/// CounterRegistry.  Appends overlay invariant violations to `failures`.
void ProbeStandaloneLayers(const Workload& w,
                           const std::vector<pdht::net::PeerId>& members,
                           double deferred_per_round, SpanRecorder& spans,
                           Results* out, std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_PROBES_H_
