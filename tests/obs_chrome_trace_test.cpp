#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <sstream>
#include <string>

#include "obs/recorder.hpp"

namespace {

using dlb::obs::ActivityKind;
using dlb::obs::ChromeTraceOptions;
using dlb::obs::InstantKind;
using dlb::obs::PhaseKind;
using dlb::obs::Recorder;
using dlb::obs::write_chrome_trace;
using dlb::sim::from_seconds;

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Minimal structural validation of the trace-event JSON Array Format:
/// balanced braces/brackets outside strings, no trailing comma, and the
/// document envelope write_chrome_trace promises.
void expect_valid_json_structure(const std::string& doc) {
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("],\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  char prev_token = '\0';
  for (const char c : doc) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        depth++;
        break;
      case '}':
      case ']':
        EXPECT_NE(prev_token, ',') << "trailing comma before " << c;
        depth--;
        ASSERT_GE(depth, 0);
        break;
      default:
        break;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev_token = c;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(ChromeTrace, EmptyInputsStillProduceValidDocument) {
  const Recorder rec;
  std::ostringstream os;
  write_chrome_trace(os, rec);
  const std::string doc = os.str();
  expect_valid_json_structure(doc);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
}

TEST(ChromeTrace, OneNamedTrackPerWorkstation) {
  ChromeTraceOptions options;
  options.procs = 3;
  const Recorder rec;
  std::ostringstream os;
  write_chrome_trace(os, rec, options);
  const std::string doc = os.str();
  expect_valid_json_structure(doc);
  for (int p = 0; p < 3; ++p) {
    EXPECT_NE(doc.find("\"workstation " + std::to_string(p) + "\""), std::string::npos) << p;
  }
  EXPECT_EQ(count_of(doc, "thread_name"), 3u);
  EXPECT_EQ(count_of(doc, "thread_sort_index"), 3u);
}

TEST(ChromeTrace, ActivityAndPhaseSlices) {
  Recorder rec(/*record_activity=*/true);
  rec.activity(0, ActivityKind::kCompute, 0, from_seconds(1.0));
  rec.phase(1, PhaseKind::kSync, from_seconds(0.25), from_seconds(0.5), 3);
  std::ostringstream os;
  write_chrome_trace(os, rec);
  const std::string doc = os.str();
  expect_valid_json_structure(doc);
  EXPECT_NE(doc.find("\"name\":\"compute\",\"cat\":\"activity\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"sync\",\"cat\":\"protocol\",\"args\":{\"detail\":3}"),
            std::string::npos);
  // Tracks referenced only by events still get a lane (procs defaulted 0).
  EXPECT_EQ(count_of(doc, "thread_name"), 2u);
}

TEST(ChromeTrace, TimestampsAreExactMicroseconds) {
  Recorder rec;
  rec.phase(0, PhaseKind::kProfile, 1234567, 2000001);  // ns
  std::ostringstream os;
  write_chrome_trace(os, rec);
  const std::string doc = os.str();
  // 1234567 ns = 1234.567 us; dur = 765434 ns = 765.434 us.  Exact decimal,
  // no floating point rounding.
  EXPECT_NE(doc.find("\"ts\":1234.567"), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":765.434"), std::string::npos);
}

TEST(ChromeTrace, MessageFlowsPairUpAndDropsBecomeMarkers) {
  Recorder rec;
  rec.message(0, 1, 101, 128, from_seconds(0.1), from_seconds(0.2), false);
  rec.message(1, 0, 103, 4096, from_seconds(0.3), from_seconds(0.4), true);
  ChromeTraceOptions options;
  options.tag_namer = [](int tag) { return tag == 101 ? std::string("profile") : std::string(); };
  std::ostringstream os;
  write_chrome_trace(os, rec, options);
  const std::string doc = os.str();
  expect_valid_json_structure(doc);
  // Delivered frame: one flow start + one flow finish with the same id.
  EXPECT_EQ(count_of(doc, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"f\",\"bp\":\"e\""), 1u);
  EXPECT_EQ(count_of(doc, "\"id\":1"), 2u);
  EXPECT_NE(doc.find("\"name\":\"profile\""), std::string::npos);
  // Dropped frame never arrives: no flow, a "drop:" instant on the sender,
  // and the nameless tag falls back to "tag N".
  EXPECT_NE(doc.find("\"name\":\"drop: tag 103\""), std::string::npos);
  EXPECT_EQ(doc.find("\"id\":2"), std::string::npos);
}

TEST(ChromeTrace, InstantsAndCounterSamples) {
  Recorder rec;
  rec.instant(2, InstantKind::kInterrupt, from_seconds(0.5), 7);
  rec.sample("engine.queue_depth", from_seconds(0.5), 12.0);
  std::ostringstream os;
  write_chrome_trace(os, rec);
  const std::string doc = os.str();
  expect_valid_json_structure(doc);
  EXPECT_NE(doc.find("\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"interrupt\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"engine.queue_depth\",\"args\":{\"value\":12}"),
            std::string::npos);
}

TEST(ChromeTrace, OutputIsDeterministic) {
  const auto render = [] {
    Recorder rec(/*record_activity=*/true);
    rec.activity(1, ActivityKind::kSync, from_seconds(0.5), from_seconds(0.75));
    rec.activity(0, ActivityKind::kCompute, 0, from_seconds(1.0));
    rec.phase(0, PhaseKind::kShipment, from_seconds(0.2), from_seconds(0.4), 64);
    rec.message(0, 1, 102, 256, from_seconds(0.1), from_seconds(0.15), false);
    rec.instant(1, InstantKind::kRejoin, from_seconds(0.6), 8);
    std::ostringstream os;
    write_chrome_trace(os, rec);
    return os.str();
  };
  EXPECT_EQ(render(), render());
}

TEST(ChromeTrace, ProcessNameIsEscaped) {
  ChromeTraceOptions options;
  options.process_name = "mxm \"quoted\" \\ run";
  const Recorder rec;
  std::ostringstream os;
  write_chrome_trace(os, rec, options);
  const std::string doc = os.str();
  expect_valid_json_structure(doc);
  EXPECT_NE(doc.find("mxm \\\"quoted\\\" \\\\ run"), std::string::npos);
}

}  // namespace
