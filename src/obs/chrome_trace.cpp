#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

namespace dlb::obs {

namespace {

/// Virtual ns -> trace-event microseconds, exact: integer part plus up to
/// three fractional digits (1 ns = 0.001 us), no floating point involved.
std::string ts_us(sim::SimTime ns) {
  std::string out = std::to_string(ns / 1000);
  const auto frac = ns % 1000;
  if (frac != 0) {
    char buf[8];
    std::snprintf(buf, sizeof buf, ".%03lld", static_cast<long long>(frac));
    out += buf;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double v) {
  std::ostringstream ss;
  ss << std::setprecision(17) << v;
  return ss.str();
}

/// One X slice, ready to sort: begin-sorted, longer-first at ties so the
/// viewer nests contained spans correctly.
struct Slice {
  int tid = 0;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  int order = 0;  // tie-break: activity (0) under protocol (1)
  std::string name;
  const char* cat = "";
  std::int64_t detail = 0;
  bool has_detail = false;
};

bool slice_before(const Slice& a, const Slice& b) {
  if (a.tid != b.tid) return a.tid < b.tid;
  if (a.begin != b.begin) return a.begin < b.begin;
  if (a.end != b.end) return a.end > b.end;  // longer first: outer slice first
  if (a.order != b.order) return a.order < b.order;
  return a.name < b.name;
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) { os_ << "{\"traceEvents\":[\n"; }

  void emit(const std::string& event) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << event;
  }

  void finish() { os_ << "\n],\"displayTimeUnit\":\"ms\"}\n"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace

void write_chrome_trace(std::ostream& os, const Recorder& recorder,
                        const ChromeTraceOptions& options) {
  const auto tag_name = [&options](int tag) {
    if (options.tag_namer) {
      const std::string named = options.tag_namer(tag);
      if (!named.empty()) return named;
    }
    return "tag " + std::to_string(tag);
  };

  // Collect slices first: their tracks also decide how many lanes to name.
  std::vector<Slice> slices;
  int tracks = options.procs;
  const auto see_track = [&tracks](int proc) { tracks = std::max(tracks, proc + 1); };

  for (const auto& a : recorder.activities()) {
    see_track(a.proc);
    slices.push_back({a.proc, a.begin, a.end, 0, activity_name(a.kind), "activity", 0, false});
  }
  for (const auto& p : recorder.phases()) {
    see_track(p.proc);
    slices.push_back({p.proc, p.begin, p.end, 1, phase_name(p.kind), "protocol", p.detail, true});
  }
  for (const auto& i : recorder.instants()) see_track(i.proc);
  for (const auto& m : recorder.messages()) {
    see_track(m.src);
    see_track(m.dst);
  }
  std::stable_sort(slices.begin(), slices.end(), slice_before);

  EventWriter out(os);
  std::ostringstream ev;
  const auto flush = [&out, &ev] {
    out.emit(ev.str());
    ev.str(std::string());
  };

  // Metadata: one process for the run, one named lane per workstation.
  ev << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
     << json_escape(options.process_name) << "\"}}";
  flush();
  for (int p = 0; p < tracks; ++p) {
    ev << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << p
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"workstation " << p << "\"}}";
    flush();
    ev << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << p
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << p << "}}";
    flush();
  }

  for (const auto& s : slices) {
    ev << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid << ",\"ts\":" << ts_us(s.begin)
       << ",\"dur\":" << ts_us(s.end - s.begin) << ",\"name\":\"" << json_escape(s.name)
       << "\",\"cat\":\"" << s.cat << '"';
    if (s.has_detail) ev << ",\"args\":{\"detail\":" << s.detail << '}';
    ev << '}';
    flush();
  }

  for (const auto& i : recorder.instants()) {
    ev << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << i.proc << ",\"ts\":" << ts_us(i.at)
       << ",\"name\":\"" << instant_name(i.kind) << "\",\"cat\":\"mark\",\"args\":{\"detail\":"
       << i.detail << "}}";
    flush();
  }

  // Message flow arrows: start on the sender's track at send time, finish
  // on the receiver's track at delivery.  A dropped frame never arrives,
  // so it renders as a drop marker at the would-be delivery time instead.
  std::uint64_t flow_id = 1;
  for (const auto& m : recorder.messages()) {
    const std::string name = json_escape(tag_name(m.tag));
    if (m.dropped) {
      ev << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << m.src
         << ",\"ts\":" << ts_us(m.sent) << ",\"name\":\"drop: " << name
         << "\",\"cat\":\"net\",\"args\":{\"bytes\":" << m.bytes << ",\"dst\":" << m.dst
         << "}}";
      flush();
      continue;
    }
    ev << "{\"ph\":\"s\",\"pid\":0,\"tid\":" << m.src << ",\"ts\":" << ts_us(m.sent)
       << ",\"id\":" << flow_id << ",\"name\":\"" << name
       << "\",\"cat\":\"net\",\"args\":{\"bytes\":" << m.bytes << "}}";
    flush();
    ev << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":" << m.dst
       << ",\"ts\":" << ts_us(m.delivered) << ",\"id\":" << flow_id << ",\"name\":\"" << name
       << "\",\"cat\":\"net\",\"args\":{\"bytes\":" << m.bytes << "}}";
    flush();
    ++flow_id;
  }

  for (const auto& s : recorder.samples()) {
    ev << "{\"ph\":\"C\",\"pid\":0,\"ts\":" << ts_us(s.at) << ",\"name\":\""
       << json_escape(s.series) << "\",\"args\":{\"value\":" << fmt_double(s.value) << "}}";
    flush();
  }

  out.finish();
}

}  // namespace dlb::obs
