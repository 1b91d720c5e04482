#include "exp/trace_export.hpp"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/protocol.hpp"
#include "obs/chrome_trace.hpp"

namespace dlb::exp {

namespace {

/// Keeps [a-zA-Z0-9.-] and folds every other run of characters to one '-',
/// so "mxm[R=400,C=400,R2=400]" becomes "mxm-R-400-C-400-R2-400".
std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool pending_dash = false;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '-') {
      if (pending_dash && !out.empty()) out += '-';
      pending_dash = false;
      out += c;
    } else {
      pending_dash = true;
    }
  }
  return out;
}

}  // namespace

std::string trace_file_name(const CellSpec& spec) {
  char index[16];
  std::snprintf(index, sizeof index, "%06zu", spec.index);
  return std::string("cell-") + index + "-" + sanitize(spec.app_name) + "-p" +
         std::to_string(spec.params.procs) + "-" +
         sanitize(core::strategy_label(spec.config.strategy)) + "-s" +
         std::to_string(spec.seed()) + ".json";
}

std::size_t write_cell_traces(const std::string& dir, const SweepResult& sweep) {
  std::filesystem::create_directories(dir);
  std::size_t written = 0;
  for (const auto& c : sweep.cells) {
    if (c.result.obs == nullptr) continue;
    const auto path = std::filesystem::path(dir) / trace_file_name(c.spec);
    std::ofstream os(path);
    if (!os) throw std::runtime_error("trace-out: cannot open " + path.string());
    obs::ChromeTraceOptions options;
    options.process_name = c.spec.app_name + " " +
                           core::strategy_name(c.spec.config.strategy) + " seed " +
                           std::to_string(c.spec.seed());
    options.procs = c.spec.params.procs;
    options.tag_namer = core::tag_name;
    obs::write_chrome_trace(os, *c.result.obs, options);
    ++written;
  }
  return written;
}

}  // namespace dlb::exp
