// bench_to_json — folds a google-benchmark JSON report into the committed
// throughput ledger (BENCH_sampler.json) and optionally gates on
// regressions against it.
//
//   bench_to_json --in <gbench.json> --out BENCH_sampler.json
//       [--label <run-label>] [--check [--max-drop 0.20]]
//
// The ledger is an object with a "runs" array; each run holds the label
// plus one {name, rows_per_sec, real_time_ms} entry per benchmark that
// reported items_per_second (rows/sec, via SetItemsProcessed). With
// --check, every benchmark of the NEW run is compared against the same
// name in the FIRST run of the ledger (the committed baseline): a drop of
// more than --max-drop (default 0.20, i.e. 20%) fails with exit code 1 so
// CI can gate on it. Parsing is a deliberately small scanner — both file
// shapes are machine-written with flat benchmark objects, so a full JSON
// library would be dead weight.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/status.h"
#include "flags.h"

namespace {

struct BenchRow {
  std::string name;
  double rows_per_sec = 0.0;
  double real_time_ms = 0.0;
};

struct Run {
  std::string label;
  std::vector<BenchRow> rows;
};

/// Value of the string key `"key":` inside [begin, end), or nullopt.
std::optional<std::string> FindStringKey(const std::string& text,
                                         std::size_t begin, std::size_t end,
                                         const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = text.find(needle, begin);
  if (pos == std::string::npos || pos >= end) return std::nullopt;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos || pos >= end) return std::nullopt;
  pos = text.find('"', pos);
  if (pos == std::string::npos || pos >= end) return std::nullopt;
  const std::size_t close = text.find('"', pos + 1);
  if (close == std::string::npos || close > end) return std::nullopt;
  return text.substr(pos + 1, close - pos - 1);
}

/// Value of the numeric key `"key":` inside [begin, end), or nullopt.
std::optional<double> FindNumberKey(const std::string& text,
                                    std::size_t begin, std::size_t end,
                                    const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = text.find(needle, begin);
  if (pos == std::string::npos || pos >= end) return std::nullopt;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos || pos >= end) return std::nullopt;
  ++pos;
  while (pos < end && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  char* parse_end = nullptr;
  const double value = std::strtod(text.c_str() + pos, &parse_end);
  if (parse_end == text.c_str() + pos) return std::nullopt;
  return value;
}

/// Extracts the flat objects of the top-level "benchmarks"/"runs"-style
/// array starting at `array_key`, calling `visit(begin, end)` with the
/// bounds of each depth-1 object (which may itself contain one nested
/// array of flat objects, e.g. a run's "benchmarks" list).
bool ForEachArrayObject(
    const std::string& text, const std::string& array_key,
    const std::function<void(std::size_t, std::size_t)>& visit) {
  const std::string needle = "\"" + array_key + "\"";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos = text.find('[', pos);
  if (pos == std::string::npos) return false;
  int depth = 0;
  std::size_t object_begin = 0;
  for (std::size_t i = pos + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{') {
      if (depth == 0) object_begin = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) visit(object_begin, i + 1);
    } else if (c == ']' && depth == 0) {
      return true;
    }
  }
  return true;
}

/// Parses a google-benchmark JSON report: keeps every benchmark entry that
/// reported items_per_second (aggregates like _mean/_stddev excluded —
/// their run_type is "aggregate").
std::vector<BenchRow> ParseGoogleBenchmark(const std::string& text) {
  std::vector<BenchRow> rows;
  ForEachArrayObject(text, "benchmarks", [&](std::size_t b, std::size_t e) {
    const auto name = FindStringKey(text, b, e, "name");
    const auto ips = FindNumberKey(text, b, e, "items_per_second");
    if (!name || !ips) return;
    const auto run_type = FindStringKey(text, b, e, "run_type");
    if (run_type && *run_type != "iteration") return;
    BenchRow row;
    row.name = *name;
    row.rows_per_sec = *ips;
    if (const auto rt = FindNumberKey(text, b, e, "real_time")) {
      row.real_time_ms = *rt;
      const auto unit = FindStringKey(text, b, e, "time_unit");
      if (unit && *unit == "ns") row.real_time_ms = *rt / 1e6;
      if (unit && *unit == "us") row.real_time_ms = *rt / 1e3;
      if (unit && *unit == "s") row.real_time_ms = *rt * 1e3;
    }
    rows.push_back(std::move(row));
  });
  return rows;
}

/// Parses a ledger previously written by this tool.
std::vector<Run> ParseLedger(const std::string& text) {
  std::vector<Run> runs;
  ForEachArrayObject(text, "runs", [&](std::size_t b, std::size_t e) {
    Run run;
    if (const auto label = FindStringKey(text, b, e, "label")) {
      run.label = *label;
    }
    const std::string slice = text.substr(b, e - b);
    ForEachArrayObject(slice, "benchmarks",
                       [&](std::size_t bb, std::size_t be) {
      const auto name = FindStringKey(slice, bb, be, "name");
      const auto rps = FindNumberKey(slice, bb, be, "rows_per_sec");
      if (!name || !rps) return;
      BenchRow row;
      row.name = *name;
      row.rows_per_sec = *rps;
      if (const auto rt = FindNumberKey(slice, bb, be, "real_time_ms")) {
        row.real_time_ms = *rt;
      }
      run.rows.push_back(std::move(row));
    });
    runs.push_back(std::move(run));
  });
  return runs;
}

std::string RenderLedger(const std::vector<Run>& runs) {
  std::ostringstream out;
  out.precision(15);
  out << "{\n  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    out << "    {\n      \"label\": \"" << runs[r].label
        << "\",\n      \"benchmarks\": [\n";
    const auto& rows = runs[r].rows;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "        {\"name\": \"" << rows[i].name
          << "\", \"rows_per_sec\": " << rows[i].rows_per_sec
          << ", \"real_time_ms\": " << rows[i].real_time_ms << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (r + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const BenchRow* FindRow(const Run& run, const std::string& name) {
  for (const auto& row : run.rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

int Usage() {
  std::cerr << "usage: bench_to_json --in <gbench.json> --out <ledger.json>"
               " [--label <str>] [--check] [--max-drop <frac>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path, out_path, label = "local";
  bool check = false;
  double max_drop = 0.20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--in" && i + 1 < argc) {
      in_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--max-drop") {
      const char* value = i + 1 < argc ? argv[++i] : nullptr;
      if (!dpcopula::tools::ParseNumericFlag(arg, value, &max_drop, 0.0,
                                             1.0)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (in_path.empty() || out_path.empty()) return Usage();

  const auto report = ReadFile(in_path);
  if (!report) {
    std::cerr << "bench_to_json: cannot read " << in_path << "\n";
    return 2;
  }
  Run fresh;
  fresh.label = label;
  fresh.rows = ParseGoogleBenchmark(*report);
  if (fresh.rows.empty()) {
    std::cerr << "bench_to_json: no benchmarks with items_per_second in "
              << in_path << "\n";
    return 2;
  }

  std::vector<Run> runs;
  if (const auto existing = ReadFile(out_path)) {
    runs = ParseLedger(*existing);
  }

  int failures = 0;
  if (check && !runs.empty()) {
    const Run& baseline = runs.front();
    for (const auto& row : fresh.rows) {
      const BenchRow* base = FindRow(baseline, row.name);
      if (base == nullptr || base->rows_per_sec <= 0.0) continue;
      const double drop = 1.0 - row.rows_per_sec / base->rows_per_sec;
      if (drop > max_drop) {
        std::cerr << "REGRESSION " << row.name << ": "
                  << row.rows_per_sec << " rows/s vs baseline "
                  << base->rows_per_sec << " (drop "
                  << static_cast<int>(std::lround(drop * 100.0)) << "% > "
                  << static_cast<int>(std::lround(max_drop * 100.0))
                  << "%)\n";
        ++failures;
      } else {
        std::cout << "ok " << row.name << ": " << row.rows_per_sec
                  << " rows/s (baseline " << base->rows_per_sec << ")\n";
      }
    }
  } else if (check) {
    std::cout << "bench_to_json: no baseline yet; ledger seeded, not "
                 "checked\n";
  }

  runs.push_back(std::move(fresh));
  const std::string rendered = RenderLedger(runs);
  const auto status = dpcopula::WriteFileAtomic(
      out_path, [&](std::ostream& out) -> dpcopula::Status {
        out << rendered;
        return dpcopula::Status::OK();
      });
  if (!status.ok()) {
    std::cerr << "bench_to_json: " << status.message() << "\n";
    return 2;
  }
  std::cout << "wrote " << out_path << " (" << runs.size() << " run"
            << (runs.size() == 1 ? "" : "s") << ")\n";
  return failures == 0 ? 0 : 1;
}
