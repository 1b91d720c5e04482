// Mechanical autofixer behind `dlblint --fix`.  Rules attach byte-span
// TextEdits to diagnostics they can repair without judgement (missing std
// includes, by-value coroutine params, dead allow markers); this pass
// collects them per file, drops overlaps, rewrites in place and re-lints
// until a round produces nothing — so running --fix twice is always a no-op.
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "dlblint/driver.hpp"

namespace dlb::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("dlblint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("dlblint: cannot write " + path);
  out << bytes;
}

}  // namespace

std::string apply_edits(const std::string& source, std::vector<TextEdit> edits) {
  std::sort(edits.begin(), edits.end());
  std::string out;
  out.reserve(source.size() + 64);
  std::size_t cursor = 0;
  for (const TextEdit& e : edits) {
    if (e.offset < cursor || e.offset > source.size() ||
        e.offset + e.length > source.size())
      continue;  // overlapping or out-of-range edit: first writer wins
    out.append(source, cursor, e.offset - cursor);
    out.append(e.replacement);
    cursor = e.offset + e.length;
  }
  out.append(source, cursor, std::string::npos);
  return out;
}

FixStats fix_files(const std::vector<Input>& inputs, const Options& options) {
  FixStats stats;
  std::map<std::string, std::string> disk_of;  // virtual -> disk path
  for (const Input& i : inputs) disk_of[i.virtual_path] = i.disk_path;
  // Each round can unlock the next (a removed marker shifts offsets, an
  // inserted include changes the token stream), so iterate to a fixpoint.
  // Four rounds is far beyond what any real chain needs; the bound only
  // guards against a hypothetical oscillating rule.
  for (int round = 0; round < 4; ++round) {
    std::map<std::string, std::vector<TextEdit>> per_file;
    for (const Diagnostic& d : lint_files(inputs, options)) {
      if (d.edits.empty()) continue;
      std::vector<TextEdit>& dst = per_file[d.file];
      dst.insert(dst.end(), d.edits.begin(), d.edits.end());
    }
    if (per_file.empty()) break;
    ++stats.passes;
    for (auto& [file, edits] : per_file) {
      const auto disk = disk_of.find(file);
      if (disk == disk_of.end()) continue;
      const std::string before = read_file(disk->second);
      // Dedup identical spans (two rules can ask for the same insertion).
      std::sort(edits.begin(), edits.end());
      edits.erase(std::unique(edits.begin(), edits.end(),
                              [](const TextEdit& a, const TextEdit& b) {
                                return a.offset == b.offset && a.length == b.length &&
                                       a.replacement == b.replacement;
                              }),
                  edits.end());
      const std::string after = apply_edits(before, edits);
      if (after == before) continue;
      write_file(disk->second, after);
      stats.edits_applied += edits.size();
      ++stats.files_changed;
    }
  }
  return stats;
}

}  // namespace dlb::lint
