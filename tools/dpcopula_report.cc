// dpcopula_report — merges observability artifacts into one markdown
// performance report, and maintains the committed bench ledgers.
//
//   dpcopula_report [--bench LEDGER.json]... [--run-report REPORT.json]...
//                   [--out PATH (default docs/PERF_REPORT.md)]
//   dpcopula_report ingest --in GBENCH.json --out LEDGER.json
//                   [--label L] [--check]
//
// A ledger is {"runs":[{label, benchmarks:[{name, rows_per_sec,
// real_time_ms}]}]}; its first run is the committed baseline. The report
// compares each ledger's last run with its first, flagging drops beyond
// 20%, and renders the per-stage percentile tables, profile gauges and
// budget audit of each --trace-json run report (version >= 2). It exits 1
// on unreadable or malformed input (a report built from half the artifacts
// is worse than none) and 3 when a ledger regressed.
//
// `ingest` appends a run: --label plus one row per benchmark of the
// google-benchmark JSON report --in that set items_per_second. With
// --check, a row more than 20% below the same name in the first run fails.
// Exits 0 ok, 1 regression, 2 usage, I/O or malformed input; an existing
// ledger that does not parse is left untouched, only a missing one seeded.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "common/atomic_file.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"

namespace {

using dpcopula::Result;
using dpcopula::Status;
using dpcopula::StatusCode;
using dpcopula::obs::JsonValue;

/// Reads a whole file; NotFound only when nothing exists at `path`.
Result<std::string> ReadFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec) {
    return Status::NotFound(path + ": no such file");
  }
  std::ifstream in(path, std::ios::binary);
  std::string text(std::istreambuf_iterator<char>(in), {});
  if (!in.is_open() || in.bad()) return Status::IOError("cannot read " + path);
  return text;
}

Result<JsonValue> LoadJson(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  Result<JsonValue> json = dpcopula::obs::ParseJson(*text);
  if (!json.ok()) {
    return Status::InvalidArgument(path + ": " + json.status().message());
  }
  return json;
}

// --- Formatting ----------------------------------------------------------

std::string FormatSeconds(double s) {
  char buf[48];
  if (s <= 0.0) {
    return "0";
  } else if (s < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", s * 1e9);
  } else if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  }
  return buf;
}

std::string FormatBytes(double b) {
  char buf[48];
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", b);
  }
  return buf;
}

std::string FormatCount(double v) {
  char buf[48];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

// --- Bench ledgers -------------------------------------------------------
//
// The only code that knows the ledger format: ingest appends runs and
// gates on the first, the report compares the last run with the first.

/// A rate more than this fraction below its baseline is a regression, for
/// the ingest gate and the report's flag alike.
constexpr double kRegressionThreshold = 0.20;

struct BenchRow {
  std::string name;
  double rows_per_sec = 0.0;
  double real_time_ms = 0.0;
};

struct Run {
  std::string label;
  std::vector<BenchRow> rows;
};

const BenchRow* FindRow(const Run& run, const std::string& name) {
  for (const BenchRow& row : run.rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

/// `row`'s relative rate change against `base`, or nullopt when there is
/// no positive baseline rate.
std::optional<double> Change(const BenchRow* base, const BenchRow& row) {
  if (base == nullptr || base->rows_per_sec <= 0.0) return std::nullopt;
  return row.rows_per_sec / base->rows_per_sec - 1.0;
}

bool IsRegression(double change) { return change < -kRegressionThreshold; }

/// Loads the ledger at `path`: a non-empty "runs" array whose every run
/// has a string label and a "benchmarks" array of complete rows. NotFound
/// only when there is no file.
Result<std::vector<Run>> LoadLedger(const std::string& path) {
  const Result<JsonValue> ledger = LoadJson(path);
  if (!ledger.ok()) return ledger.status();
  auto invalid = [&path](const char* what) {
    return Status::InvalidArgument(path + ": " + what);
  };
  const JsonValue* runs = ledger->Find("runs");
  if (runs == nullptr || !runs->is_array() || runs->array.empty()) {
    return invalid("ledger has no runs");
  }
  std::vector<Run> parsed;
  for (const JsonValue& run : runs->array) {
    const JsonValue* label = run.Find("label");
    const JsonValue* benches = run.Find("benchmarks");
    if (label == nullptr || !label->is_string() || benches == nullptr ||
        !benches->is_array()) {
      return invalid("ledger run lacks label or benchmarks");
    }
    Run& out = parsed.emplace_back();
    out.label = label->string;
    for (const JsonValue& bench : benches->array) {
      const JsonValue* name = bench.Find("name");
      const JsonValue* rate = bench.Find("rows_per_sec");
      const JsonValue* ms = bench.Find("real_time_ms");
      if (name == nullptr || !name->is_string() || rate == nullptr ||
          !rate->is_number() || ms == nullptr || !ms->is_number()) {
        return invalid("ledger row lacks name, rows_per_sec or real_time_ms");
      }
      out.rows.push_back({name->string, rate->number, ms->number});
    }
  }
  return parsed;
}

std::string RenderLedger(const std::vector<Run>& runs) {
  using dpcopula::obs::internal::AppendJsonString;
  auto number = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    return std::string(buf);
  };
  std::string out = "{\n  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    out += "    {\n      \"label\": ";
    AppendJsonString(&out, runs[r].label);
    out += ",\n      \"benchmarks\": [\n";
    const auto& rows = runs[r].rows;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out += "        {\"name\": ";
      AppendJsonString(&out, rows[i].name);
      out += ", \"rows_per_sec\": " + number(rows[i].rows_per_sec) +
             ", \"real_time_ms\": " + number(rows[i].real_time_ms) + "}" +
             (i + 1 < rows.size() ? "," : "") + "\n";
    }
    out += std::string("      ]\n    }") + (r + 1 < runs.size() ? "," : "") +
           "\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// The rows of a google-benchmark JSON report: every entry that reported
/// items_per_second, aggregates (_mean/_stddev, run_type "aggregate")
/// excluded.
std::vector<BenchRow> ParseGoogleBenchmark(const JsonValue& report) {
  std::vector<BenchRow> rows;
  const JsonValue* benches = report.Find("benchmarks");
  if (benches == nullptr) return rows;
  for (const JsonValue& bench : benches->array) {
    const JsonValue* name = bench.Find("name");
    const JsonValue* ips = bench.Find("items_per_second");
    const JsonValue* run_type = bench.Find("run_type");
    if (name == nullptr || !name->is_string() || ips == nullptr ||
        !ips->is_number()) {
      continue;
    }
    if (run_type != nullptr && run_type->string != "iteration") continue;
    BenchRow& row = rows.emplace_back();
    row.name = name->string;
    row.rows_per_sec = ips->number;
    if (const JsonValue* rt = bench.Find("real_time"); rt != nullptr) {
      const JsonValue* unit = bench.Find("time_unit");
      const std::string time_unit = unit != nullptr ? unit->string : "ms";
      row.real_time_ms = rt->NumberOr(0.0);
      if (time_unit == "ns") row.real_time_ms /= 1e6;
      if (time_unit == "us") row.real_time_ms /= 1e3;
      if (time_unit == "s") row.real_time_ms *= 1e3;
    }
  }
  return rows;
}

/// Renders one ledger's baseline-vs-current table.
void AppendBenchSection(const std::string& path, const std::vector<Run>& runs,
                        std::string* out, int* regressions) {
  const Run& baseline = runs.front();
  const Run& current = runs.back();
  const bool has_delta = runs.size() > 1;

  *out += "### `" + path + "`\n\n";
  *out += "Baseline `" + baseline.label + "` vs current `" + current.label +
          "` (" + std::to_string(runs.size()) + " runs recorded).\n\n";
  *out +=
      "| benchmark | baseline rows/s | current rows/s | delta | time (ms) "
      "|\n|---|---:|---:|---:|---:|\n";
  for (const BenchRow& row : current.rows) {
    const BenchRow* base = FindRow(baseline, row.name);
    const std::optional<double> change = Change(base, row);
    std::string delta = "n/a";
    if (has_delta && change) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * *change);
      delta = buf;
      if (IsRegression(*change)) {
        delta += " **REGRESSION**";
        ++*regressions;
      }
    }
    *out += "| `" + row.name + "` | " +
            (base != nullptr ? FormatCount(base->rows_per_sec)
                             : std::string("n/a")) +
            " | " + FormatCount(row.rows_per_sec) + " | " + delta + " | " +
            FormatCount(row.real_time_ms) + " |\n";
  }
  *out += "\n";
}

// --- Run reports ---------------------------------------------------------

bool AppendRunReportSection(const std::string& path, const JsonValue& report,
                            std::string* out) {
  const JsonValue* version = report.Find("version");
  const JsonValue* metrics = report.Find("metrics");
  if (version == nullptr || metrics == nullptr) {
    std::fprintf(stderr, "dpcopula_report: %s is not a run report\n",
                 path.c_str());
    return false;
  }
  if (version->NumberOr(0.0) < 2.0) {
    std::fprintf(stderr,
                 "dpcopula_report: %s is a version %g report; stage "
                 "percentiles need version >= 2\n",
                 path.c_str(), version->NumberOr(0.0));
    return false;
  }
  *out += "### `" + path + "`\n\n";

  // Per-stage breakdown from the profile.* histograms.
  const JsonValue* histograms = metrics->Find("histograms");
  bool any_stage = false;
  std::string stage_table =
      "| stage | count | total | p50 | p90 | p99 | p99.9 | max "
      "|\n|---|---:|---:|---:|---:|---:|---:|---:|\n";
  double stage_total_seconds = 0.0;
  if (histograms != nullptr &&
      histograms->is_object()) {
    for (const auto& [name, h] : histograms->object) {
      constexpr const char* kPrefix = "profile.";
      constexpr const char* kSuffix = "_seconds";
      if (name.rfind(kPrefix, 0) != 0) continue;
      const JsonValue* count = h.Find("count");
      if (count == nullptr || count->NumberOr(0.0) <= 0.0) continue;
      std::string stage = name.substr(std::strlen(kPrefix));
      const std::size_t suffix_at = stage.rfind(kSuffix);
      if (suffix_at != std::string::npos) stage.resize(suffix_at);
      const double sum = h.Find("sum_seconds") != nullptr
                             ? h.Find("sum_seconds")->NumberOr(0.0)
                             : 0.0;
      stage_total_seconds += sum;
      auto q = [&h](const char* key) {
        const JsonValue* v = h.Find(key);
        return FormatSeconds(v != nullptr ? v->NumberOr(0.0) : 0.0);
      };
      stage_table += "| " + stage + " | " + FormatCount(count->number) +
                     " | " + FormatSeconds(sum) + " | " + q("p50") + " | " +
                     q("p90") + " | " + q("p99") + " | " + q("p999") +
                     " | " + q("max_seconds") + " |\n";
      any_stage = true;
    }
  }
  if (any_stage) {
    *out += "Per-stage breakdown (scopes record inside workers, so totals "
            "approach CPU seconds at higher thread counts):\n\n";
    *out += stage_table;
    *out += "\nStage total: " + FormatSeconds(stage_total_seconds) + "\n\n";
  } else {
    *out += "No stage profile recorded (metrics were off).\n\n";
  }

  // Profile gauges: peak RSS + hardware counters.
  if (const JsonValue* gauges = metrics->Find("gauges");
      gauges != nullptr && gauges->is_object()) {
    const JsonValue* rss = gauges->Find("profile.peak_rss_bytes");
    if (rss != nullptr && rss->NumberOr(0.0) > 0.0) {
      *out += "Peak RSS: " + FormatBytes(rss->number) + ".\n";
    }
    const JsonValue* hw = gauges->Find("profile.hw_available");
    if (hw != nullptr) {
      if (hw->NumberOr(0.0) != 0.0) {
        auto g = [&gauges](const char* key) {
          const JsonValue* v = gauges->Find(key);
          return FormatCount(v != nullptr ? v->NumberOr(0.0) : 0.0);
        };
        *out += "Hardware counters: " + g("profile.hw_cycles") +
                " cycles, " + g("profile.hw_instructions") +
                " instructions, " + g("profile.hw_cache_misses") +
                " cache misses.\n";
      } else {
        *out += "Hardware counters unavailable (perf_event_open denied; "
                "common in containers).\n";
      }
    }
    *out += "\n";
  }

  // Dropped spans: from the trace section, plus the metrics counter when
  // it has been registered.
  if (const JsonValue* trace = report.Find("trace"); trace != nullptr) {
    const JsonValue* dropped = trace->Find("dropped_spans");
    const double n = dropped != nullptr ? dropped->NumberOr(0.0) : 0.0;
    if (n > 0.0) {
      *out += "**" + FormatCount(n) +
              " spans dropped** (tracer buffer cap hit; timings above are "
              "complete, the span tree is not).\n\n";
    }
  }

  // Budget audit (dpcopula runs only; eval reports have no budget).
  if (const JsonValue* budget = report.Find("budget"); budget != nullptr) {
    auto num = [&budget](const char* key) {
      const JsonValue* v = budget->Find(key);
      return v != nullptr ? v->NumberOr(0.0) : 0.0;
    };
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "Privacy budget: %.6g of %.6g spent across ",
                  num("spent"), num("total_epsilon"));
    *out += buf;
    const JsonValue* entries = budget->Find("entries");
    const std::size_t n =
        (entries != nullptr && entries->is_array())
            ? entries->array.size()
            : 0;
    *out += std::to_string(n) + " mechanism charges.\n\n";
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dpcopula_report [--bench LEDGER.json]... "
               "[--run-report REPORT.json]... [--out PATH]\n"
               "       dpcopula_report ingest --in GBENCH.json --out "
               "LEDGER.json [--label L] [--check]\n");
  return 2;
}

/// `dpcopula_report ingest ...`: argv[0] is "ingest".
int Ingest(int argc, char** argv) {
  std::string in_path, out_path, label = "local";
  bool check = false;
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
    } else {
      return Usage();
    }
  }
  if (in_path.empty() || out_path.empty()) return Usage();

  const Result<JsonValue> report = LoadJson(in_path);
  if (!report.ok()) {
    std::cerr << "dpcopula_report ingest: " << report.status().message()
              << "\n";
    return 2;
  }
  Run fresh{label, ParseGoogleBenchmark(*report)};
  if (fresh.rows.empty()) {
    std::cerr << "dpcopula_report ingest: no benchmarks with "
                 "items_per_second in "
              << in_path << "\n";
    return 2;
  }

  std::vector<Run> runs;
  Result<std::vector<Run>> existing = LoadLedger(out_path);
  if (existing.ok()) {
    runs = std::move(*existing);
  } else if (existing.status().code() != StatusCode::kNotFound) {
    std::cerr << "dpcopula_report ingest: " << existing.status().message()
              << "; left untouched\n";
    return 2;
  }

  int failures = 0;
  if (check && !runs.empty()) {
    const Run& baseline = runs.front();
    for (const BenchRow& row : fresh.rows) {
      const BenchRow* base = FindRow(baseline, row.name);
      const std::optional<double> change = Change(base, row);
      if (!change) continue;
      if (IsRegression(*change)) {
        std::cerr << "REGRESSION " << row.name << ": " << row.rows_per_sec
                  << " rows/s vs baseline " << base->rows_per_sec << " (drop "
                  << static_cast<int>(std::lround(-*change * 100.0))
                  << "% > "
                  << static_cast<int>(std::lround(kRegressionThreshold * 100))
                  << "%)\n";
        ++failures;
      } else {
        std::cout << "ok " << row.name << ": " << row.rows_per_sec
                  << " rows/s (baseline " << base->rows_per_sec << ")\n";
      }
    }
  } else if (check) {
    std::cout << "dpcopula_report ingest: no baseline yet; ledger seeded, "
                 "not checked\n";
  }

  runs.push_back(std::move(fresh));
  const std::string rendered = RenderLedger(runs);
  const Status status = dpcopula::WriteFileAtomic(
      out_path, [&](std::ostream& out) -> Status {
        out << rendered;
        return Status::OK();
      });
  if (!status.ok()) {
    std::cerr << "dpcopula_report ingest: " << status.message() << "\n";
    return 2;
  }
  std::cout << "wrote " << out_path << " (" << runs.size() << " run"
            << (runs.size() == 1 ? "" : "s") << ")\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "ingest") == 0) {
    return Ingest(argc - 1, argv + 1);
  }
  std::vector<std::string> bench_paths;
  std::vector<std::string> report_paths;
  std::string out_path = "docs/PERF_REPORT.md";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--bench" && i + 1 < argc) {
      bench_paths.push_back(argv[++i]);
    } else if (flag == "--run-report" && i + 1 < argc) {
      report_paths.push_back(argv[++i]);
    } else if (flag == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (bench_paths.empty() && report_paths.empty()) {
    std::fprintf(stderr,
                 "dpcopula_report: nothing to report (pass --bench and/or "
                 "--run-report)\n");
    return 2;
  }

  std::string out;
  out += "# Performance report\n\n";
  out += "Regenerated by `dpcopula_report`; do not edit by hand. Inputs: "
         "bench ledgers from `dpcopula_report ingest`, run reports from "
         "`dpcopula --trace-json --profile`.\n\n";

  int regressions = 0;
  if (!bench_paths.empty()) {
    out += "## Benchmarks\n\n";
    out += "First recorded run is the committed baseline; regressions "
           "beyond " +
           std::to_string(static_cast<int>(100 * kRegressionThreshold)) +
           "% are flagged.\n\n";
    for (const std::string& path : bench_paths) {
      const Result<std::vector<Run>> runs = LoadLedger(path);
      if (!runs.ok()) {
        std::fprintf(stderr, "dpcopula_report: %s\n",
                     runs.status().message().c_str());
        return 1;
      }
      AppendBenchSection(path, *runs, &out, &regressions);
    }
  }
  if (!report_paths.empty()) {
    out += "## Instrumented runs\n\n";
    for (const std::string& path : report_paths) {
      const Result<JsonValue> report = LoadJson(path);
      if (!report.ok()) {
        std::fprintf(stderr, "dpcopula_report: %s\n",
                     report.status().message().c_str());
        return 1;
      }
      if (!AppendRunReportSection(path, *report, &out)) return 1;
    }
  }
  if (regressions > 0) {
    out += "---\n\n**" + std::to_string(regressions) +
           " benchmark(s) regressed beyond the threshold.**\n";
  }

  const Status written = dpcopula::WriteFileAtomic(
      out_path, [&](std::ostream& f) -> Status {
        f << out;
        return Status::OK();
      });
  if (!written.ok()) {
    std::fprintf(stderr, "dpcopula_report: %s\n", written.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "dpcopula_report: wrote %s (%d regression(s))\n",
               out_path.c_str(), regressions);
  return regressions > 0 ? 3 : 0;
}
