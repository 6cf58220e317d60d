#include "model/scenario_params.h"

#include <cmath>
#include <sstream>

#include "net/message.h"
#include "stats/table_writer.h"

namespace pdht::model {

std::vector<double> ScenarioParams::PaperQueryFrequencies() {
  return {1.0 / 30, 1.0 / 60, 1.0 / 120, 1.0 / 300,
          1.0 / 600, 1.0 / 1800, 1.0 / 3600, 1.0 / 7200};
}

ScenarioParams ScenarioParams::WithQueryFrequency(double f) const {
  ScenarioParams p = *this;
  p.f_qry = f;
  return p;
}

std::string ScenarioParams::Validate() const {
  if (num_peers == 0) return "num_peers must be positive";
  // Peer ids are 32-bit and the all-ones id is the "no peer" sentinel.
  if (num_peers >= net::kInvalidPeer) return "num_peers must be < 2^32 - 1";
  if (keys == 0) return "keys must be positive";
  if (stor == 0) return "stor must be positive";
  if (repl == 0) return "repl must be positive";
  if (repl > num_peers) return "repl cannot exceed num_peers";
  // Each check is written so that NaN fails it (every comparison with NaN
  // is false), and infinities are rejected explicitly.
  if (!(std::isfinite(alpha) && alpha >= 0.0)) {
    return "alpha must be finite and non-negative";
  }
  if (!(std::isfinite(f_qry) && f_qry > 0.0)) {
    return "f_qry must be finite and positive";
  }
  if (!(std::isfinite(f_upd) && f_upd >= 0.0)) {
    return "f_upd must be finite and non-negative";
  }
  if (!(std::isfinite(env) && env >= 0.0)) {
    return "env must be finite and non-negative";
  }
  if (!(std::isfinite(dup) && dup >= 1.0)) {
    return "dup must be finite and >= 1 (each search sends >= 1 copy)";
  }
  if (!(std::isfinite(dup2) && dup2 >= 1.0)) {
    return "dup2 must be finite and >= 1";
  }
  if (key_space_arity < 2) return "key_space_arity must be >= 2";
  return "";
}

std::string ScenarioParams::ToTable() const {
  TableWriter t({"Description", "Param.", "Value"});
  auto num = [](double v) { return TableWriter::FormatDouble(v, 6); };
  t.AddRow({"Total number of peers", "numPeers", std::to_string(num_peers)});
  t.AddRow({"Number of unique keys", "keys", std::to_string(keys)});
  t.AddRow({"Storage capacity for indexing per peer", "stor",
            std::to_string(stor)});
  t.AddRow({"Replication factor", "repl", std::to_string(repl)});
  t.AddRow({"alpha of query Zipf distribution", "alpha", num(alpha)});
  t.AddRow({"Frequency of queries per peer per second", "fQry", num(f_qry)});
  t.AddRow({"Avg. update freq. per key", "fUpd", num(f_upd)});
  t.AddRow({"Route maintenance constant", "env", num(env)});
  t.AddRow({"Message duplication factor (unstructured)", "dup", num(dup)});
  t.AddRow({"Message duplication factor (replica net)", "dup2", num(dup2)});
  t.AddRow({"Key space arity (footnote 3)", "k",
            std::to_string(key_space_arity)});
  return t.ToText();
}

}  // namespace pdht::model
