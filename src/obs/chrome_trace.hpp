#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "obs/recorder.hpp"

namespace dlb::obs {

struct ChromeTraceOptions {
  /// Shown as the process name in the trace viewer (e.g. the cell label
  /// "mxm[R=400,...] GDDLB seed=1000").
  std::string process_name = "dlb run";
  /// Number of workstation tracks; tracks referenced by events beyond this
  /// still get a lane, this only guarantees a minimum.
  int procs = 0;
  /// Optional pretty-printer for message tags (a profile tag -> "profile").
  /// Nameless tags render as "tag <n>".
  std::function<std::string(int)> tag_namer;
};

/// Writes a Chrome trace-event JSON document (the "JSON Array Format" both
/// chrome://tracing and Perfetto load) of one recording: one track (tid) per
/// workstation carrying the activity segments and the protocol phase spans,
/// flow arrows for every recorded message, instant markers, and counter
/// tracks for the samples.  Virtual nanoseconds map to trace microseconds
/// exactly (ts = ns/1000, three fractional digits), and every list is
/// emitted in a canonical order, so the bytes depend only on the run — not
/// on host threads or hash seeds.
void write_chrome_trace(std::ostream& os, const Recorder& recorder,
                        const ChromeTraceOptions& options = {});

}  // namespace dlb::obs
