#include "exp/experiment.h"

#include <algorithm>
#include <exception>
#include <limits>

#include "util/hash.h"

namespace pdht::exp {

namespace {

/// Mixed-radix decode of a grid point into per-axis level indices, last
/// axis fastest.  Pure; shared by MakeCell and Aggregate so a grid
/// point's labels can be reconstructed even when every seed failed
/// before its cell was materialized.
std::vector<size_t> DecodeLevels(const std::vector<Axis>& axes,
                                 size_t grid_index) {
  std::vector<size_t> level_idx(axes.size(), 0);
  size_t rem = grid_index;
  for (size_t a = axes.size(); a-- > 0;) {
    size_t n = std::max<size_t>(1, axes[a].levels.size());
    level_idx[a] = rem % n;
    rem /= n;
  }
  return level_idx;
}

}  // namespace

size_t ExperimentSpec::GridSize() const {
  size_t n = 1;
  for (const Axis& a : axes) n *= a.levels.size();
  return n;
}

size_t ExperimentSpec::NumCells() const {
  return GridSize() * std::max<uint32_t>(1, seeds_per_cell);
}

Cell ExperimentSpec::MakeCell(size_t index) const {
  const uint32_t seeds = std::max<uint32_t>(1, seeds_per_cell);
  Cell cell;
  cell.index = index;
  cell.seed_index = static_cast<uint32_t>(index % seeds);
  cell.grid_index = index / seeds;
  cell.config = base;

  std::vector<size_t> level_idx = DecodeLevels(axes, cell.grid_index);
  cell.labels.reserve(axes.size());
  for (size_t a = 0; a < axes.size(); ++a) {
    // .at(): an empty axis means an empty grid (GridSize() == 0), so a
    // direct MakeCell on one is misuse -- throw rather than read OOB.
    const AxisLevel& level = axes[a].levels.at(level_idx[a]);
    cell.labels.push_back(level.label);
    if (level.apply) level.apply(cell.config);
  }
  cell.config.seed = DeriveCellSeed(base.seed, index);
  return cell;
}

uint64_t DeriveCellSeed(uint64_t base_seed, size_t cell_index) {
  return Mix64(HashCombine(base_seed, cell_index));
}

CellResult RunCell(const ExperimentSpec& spec, size_t index) {
  CellResult result;
  result.index = index;
  // The whole cell lifecycle stays inside the try: an apply-patch or
  // constructor that throws must land in result.error, not escape into
  // a worker thread (which would std::terminate the sweep).
  try {
    Cell cell = spec.MakeCell(index);
    result.grid_index = cell.grid_index;
    result.seed_index = cell.seed_index;
    result.labels = cell.labels;
    core::PdhtSystem sys(cell.config);
    if (spec.run) {
      spec.run(sys, cell);
    } else {
      sys.RunRounds(spec.rounds);
    }
    core::RunSnapshot snap = sys.Snapshot(spec.tail);
    result.metrics = std::move(snap.series_tail);
    result.metrics[kMetricIndexKeys] = static_cast<double>(snap.index_keys);
    result.metrics[kMetricKeyTtl] = snap.effective_key_ttl;
    result.metrics[kMetricDhtMembers] =
        static_cast<double>(snap.dht_members);
    // Latency metrics (lookup RTT quantiles, routing stretch) exist only
    // under a non-immediate delivery model; merging the map keeps
    // immediate-mode cells byte-identical to the pre-latency era.
    for (const auto& [key, value] : snap.latency) {
      result.metrics[key] = value;
    }
    if (spec.collect) spec.collect(sys, cell, result.metrics);
  } catch (const std::exception& e) {
    result.metrics.clear();
    result.error = e.what();
  } catch (...) {
    result.metrics.clear();
    result.error = "unknown exception";
  }
  return result;
}

std::vector<AggregateRow> Aggregate(const ExperimentSpec& spec,
                                    const std::vector<CellResult>& cells) {
  const size_t grid = spec.GridSize();
  std::vector<AggregateRow> rows(grid);
  for (size_t g = 0; g < grid; ++g) rows[g].grid_index = g;

  // Collect samples per (grid point, metric) in cell order.  Callers
  // pass ParallelRunner output, which is flat-index ordered, so the
  // mean's summation order is fixed regardless of thread schedule.
  std::vector<std::map<std::string, std::vector<double>>> samples(grid);
  for (const CellResult& c : cells) {
    if (c.grid_index >= grid) continue;
    AggregateRow& row = rows[c.grid_index];
    if (row.labels.empty()) row.labels = c.labels;
    if (!c.error.empty()) {
      row.errors.push_back(c.error);
      continue;
    }
    for (const auto& [key, value] : c.metrics) {
      samples[c.grid_index][key].push_back(value);
    }
  }
  for (size_t g = 0; g < grid; ++g) {
    // A grid point whose every seed failed before its cell materialized
    // (e.g. a throwing axis patch) never reported labels; reconstruct
    // them so downstream tables keep their arity.
    if (rows[g].labels.size() != spec.axes.size()) {
      std::vector<size_t> level_idx = DecodeLevels(spec.axes, g);
      rows[g].labels.clear();
      for (size_t a = 0; a < spec.axes.size(); ++a) {
        rows[g].labels.push_back(
            spec.axes[a].levels.empty() ? "?"
                                        : spec.axes[a].levels[level_idx[a]]
                                              .label);
      }
    }
    for (const auto& [key, values] : samples[g]) {
      AggregateStats s;
      s.n = static_cast<uint32_t>(values.size());
      s.min = values.front();
      s.max = values.front();
      double sum = 0.0;
      for (double v : values) {
        sum += v;
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
      }
      s.mean = sum / static_cast<double>(values.size());
      rows[g].metrics.emplace(key, s);
    }
  }
  return rows;
}

AggregateStats AggregateRow::Stat(const std::string& key) const {
  auto it = metrics.find(key);
  if (it != metrics.end()) return it->second;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {nan, nan, nan, 0};
}

std::string FormatStats(const AggregateStats& s, int precision) {
  std::string out = TableWriter::FormatDouble(s.mean, precision);
  if (s.n > 1) {
    out += " [" + TableWriter::FormatDouble(s.min, precision) + ", " +
           TableWriter::FormatDouble(s.max, precision) + "]";
  }
  return out;
}

TableWriter ToTable(
    const ExperimentSpec& spec, const std::vector<AggregateRow>& rows,
    const std::vector<std::pair<std::string, std::string>>& metric_columns,
    int precision) {
  std::vector<std::string> columns;
  for (const Axis& a : spec.axes) columns.push_back(a.name);
  for (const auto& [header, key] : metric_columns) {
    (void)key;
    columns.push_back(header);
  }
  TableWriter t(std::move(columns));
  for (const AggregateRow& row : rows) {
    std::vector<std::string> cells = row.labels;
    for (const auto& [header, key] : metric_columns) {
      (void)header;
      auto it = row.metrics.find(key);
      if (it != row.metrics.end()) {
        cells.push_back(FormatStats(it->second, precision));
      } else {
        cells.push_back(row.errors.empty() ? "-" : "ERROR");
      }
    }
    t.AddRow(std::move(cells));
  }
  return t;
}

}  // namespace pdht::exp
