#include "dlblint/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dlb::lint {
namespace {

bool known_rule(const std::string& id) {
  for (const Rule& r : all_rules()) {
    if (id == r.id) return true;
  }
  return false;
}

/// Applies suppressions to raw rule diagnostics and appends the
/// suppression-hygiene diagnostics (bare-allow / unknown-rule).  Both carry
/// a marker-removal autofix: an unjustified or unknown marker suppresses
/// nothing, so deleting it is behavior-preserving normalization.
std::vector<Diagnostic> apply_suppressions(const FileUnit& unit,
                                           std::vector<Diagnostic> raw) {
  const std::vector<Suppression> sups = parse_suppressions(unit);
  std::vector<Diagnostic> out;
  for (Diagnostic& d : raw) {
    bool suppressed = false;
    for (const Suppression& s : sups) {
      if (s.rule == d.rule && s.has_justification &&
          (d.line == s.line || d.line == s.line + 1)) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(std::move(d));
  }
  for (const Suppression& s : sups) {
    if (!known_rule(s.rule)) {
      Diagnostic d{unit.path, s.line, "unknown-rule",
                   "suppression names unknown rule '" + s.rule +
                       "'; run dlblint --list-rules for the catalogue"};
      d.edits.push_back({s.marker_offset, s.marker_length, ""});
      out.push_back(std::move(d));
    } else if (!s.has_justification) {
      Diagnostic d{unit.path, s.line, "bare-allow",
                   "dlblint:allow(" + s.rule +
                       ") without a justification; write why the waiver is sound"};
      d.edits.push_back({s.marker_offset, s.marker_length, ""});
      out.push_back(std::move(d));
    }
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("dlblint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

FileUnit make_unit(const std::string& source, const std::string& virtual_path) {
  FileUnit unit;
  unit.path = virtual_path;
  unit.all = lex(source);
  unit.sig = significant(unit.all);
  return unit;
}

bool rule_enabled(const Options& options, const char* id) {
  if (options.rules.empty()) return true;
  return std::find(options.rules.begin(), options.rules.end(), id) != options.rules.end();
}

std::vector<Diagnostic> run_rules(const FileUnit& unit, const Project& project,
                                  const Options& options) {
  std::vector<Diagnostic> raw;
  for (const Rule& rule : all_rules()) {
    if (rule_enabled(options, rule.id)) rule.fn(unit, project, raw);
  }
  std::vector<Diagnostic> out = apply_suppressions(unit, std::move(raw));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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

std::vector<Diagnostic> lint_source(const std::string& source, const std::string& virtual_path,
                                    const Project& project, const Options& options) {
  return run_rules(make_unit(source, virtual_path), project, options);
}

std::vector<Diagnostic> lint_files(const std::vector<Input>& inputs, const Options& options) {
  std::vector<FileUnit> units;
  units.reserve(inputs.size());
  for (const Input& input : inputs) {
    units.push_back(make_unit(read_file(input.disk_path), input.virtual_path));
  }
  Project project;
  project.index = build_index(units);

  std::vector<Diagnostic> all;
  for (const FileUnit& unit : units) {
    const std::vector<Diagnostic> d = run_rules(unit, project, options);
    all.insert(all.end(), d.begin(), d.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<Input> discover(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<Input> inputs;
  const std::vector<std::string> kTrees = {"src", "bench", "tests", "tools/dlblint"};
  for (const std::string& tree : kTrees) {
    const fs::path base = fs::path(root) / tree;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      const std::string rel = fs::relative(entry.path(), root).generic_string();
      if (rel.rfind("tests/lint_corpus/", 0) == 0) continue;  // intentional violations
      inputs.push_back({entry.path().string(), rel});
    }
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const Input& a, const Input& b) { return a.virtual_path < b.virtual_path; });
  return inputs;
}

std::vector<Suppression> collect_suppressions(const std::vector<Input>& inputs) {
  std::vector<Suppression> sups;
  for (const Input& input : inputs) {
    const FileUnit unit = make_unit(read_file(input.disk_path), input.virtual_path);
    std::vector<Suppression> s = parse_suppressions(unit);
    sups.insert(sups.end(), s.begin(), s.end());
  }
  std::sort(sups.begin(), sups.end(), [](const Suppression& a, const Suppression& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return sups;
}

std::string render_human(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  for (const Diagnostic& d : diags) {
    os << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message << "\n";
  }
  if (diags.empty()) {
    os << "dlblint: clean\n";
  } else {
    os << "dlblint: " << diags.size() << (diags.size() == 1 ? " finding\n" : " findings\n");
  }
  return os.str();
}

std::string render_json(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"count\": " << diags.size() << ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << json_escape(d.file) << "\", \"line\": " << d.line
       << ", \"rule\": \"" << json_escape(d.rule) << "\", \"message\": \""
       << json_escape(d.message) << "\"}";
  }
  os << (diags.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

std::string render_suppressions(const std::vector<Suppression>& sups) {
  std::ostringstream os;
  for (const Suppression& s : sups) {
    os << s.file << ":" << s.line << ": allow(" << s.rule << ") "
       << (s.has_justification ? s.justification : std::string("<no justification>")) << "\n";
  }
  os << "dlblint: " << sups.size() << (sups.size() == 1 ? " suppression\n" : " suppressions\n");
  return os.str();
}

}  // namespace dlb::lint
