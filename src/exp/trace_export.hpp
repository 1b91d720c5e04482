#pragma once

#include <cstddef>
#include <string>

#include "exp/runner.hpp"

namespace dlb::exp {

/// Deterministic per-cell trace filename: the canonical grid index plus a
/// sanitized human-readable spec (app, procs, strategy, seed).  Pure
/// function of the spec, so a sweep writes the same names at any --threads.
[[nodiscard]] std::string trace_file_name(const CellSpec& spec);

/// Writes one Chrome trace-event JSON file per cell of `sweep` into `dir`
/// (created if missing), each from the cell's recorder.  Cells run without
/// a recorder are skipped.  Returns the number of files written.
std::size_t write_cell_traces(const std::string& dir, const SweepResult& sweep);

}  // namespace dlb::exp
