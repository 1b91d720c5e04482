// dlblint — determinism & coroutine-safety static analysis for this repo.
//
//   dlblint --root=DIR [--json] [--sarif=FILE] [--rules=a,b]
//                                                  scan src/ bench/ tests/
//   dlblint [--as=VPATH] [--json] FILE...          lint explicit files
//   dlblint --fix --root=DIR                       apply mechanical autofixes
//   dlblint --list-rules | --list-suppressions --root=DIR
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.  Output is sorted
// by (file, line, rule, message) and depends on nothing but file contents,
// so repeated runs are byte-identical (the SARIF export included).
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dlblint/driver.hpp"

namespace {

int usage(const char* msg) {
  if (msg != nullptr) std::cerr << "dlblint: " << msg << "\n";
  std::cerr << "usage: dlblint --root=DIR [--json] [--sarif=FILE] [--rules=a,b]\n"
               "       dlblint [--as=VIRTUAL_PATH] [--json] [--rules=a,b] FILE...\n"
               "       dlblint --fix (--root=DIR | FILE...)\n"
               "       dlblint --list-rules\n"
               "       dlblint --list-suppressions (--root=DIR | FILE...)\n";
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string as_path;
  std::string sarif_path;
  bool json = false;
  bool fix = false;
  bool list_rules = false;
  bool list_suppressions = false;
  dlb::lint::Options options;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--list-suppressions") {
      list_suppressions = true;
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--as=", 0) == 0) {
      as_path = arg.substr(5);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg.rfind("--rules=", 0) == 0) {
      options.rules = split_csv(arg.substr(8));
    } else if (arg.rfind("--", 0) == 0) {
      return usage(("unknown option " + arg).c_str());
    } else {
      files.push_back(arg);
    }
  }

  if (list_rules) {
    for (const dlb::lint::Rule& r : dlb::lint::all_rules()) {
      std::cout << r.id << "  [" << r.family << "]  " << r.summary << "\n";
    }
    std::cout << "bare-allow  [hygiene]  dlblint:allow(...) must carry a justification\n"
                 "unknown-rule  [hygiene]  suppression must name a registered rule\n";
    return 0;
  }
  if (!root.empty() && !files.empty()) return usage("--root and explicit files are exclusive");
  if (root.empty() && files.empty()) return usage("nothing to lint");
  if (!as_path.empty() && files.size() != 1) return usage("--as requires exactly one file");

  std::vector<dlb::lint::Input> inputs;
  if (!root.empty()) {
    inputs = dlb::lint::discover(root);
  } else {
    for (const std::string& f : files) {
      inputs.push_back({f, as_path.empty() ? f : as_path});
    }
  }

  try {
    if (list_suppressions) {
      std::cout << dlb::lint::render_suppressions(dlb::lint::collect_suppressions(inputs));
      return 0;
    }
    if (fix) {
      const dlb::lint::FixStats stats = dlb::lint::fix_files(inputs, options);
      std::cout << "dlblint: applied " << stats.edits_applied << " edit"
                << (stats.edits_applied == 1 ? "" : "s") << " in " << stats.files_changed
                << " file" << (stats.files_changed == 1 ? "" : "s") << " over " << stats.passes
                << " pass" << (stats.passes == 1 ? "" : "es") << "\n";
      return 0;
    }
    const std::vector<dlb::lint::Diagnostic> diags = dlb::lint::lint_files(inputs, options);
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::cerr << "dlblint: cannot write " << sarif_path << "\n";
        return 2;
      }
      out << dlb::lint::render_sarif(diags);
    }
    std::cout << (json ? dlb::lint::render_json(diags) : dlb::lint::render_human(diags));
    return diags.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
