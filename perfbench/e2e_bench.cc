// e2e_bench — the end-to-end benchmark of DPCopula (see perfbench/README.md).
//
//   e2e_bench run --workload NAME --seed N --seconds S --trace 0|1
//                 --workdir DIR [--commit SHA] [--source-digest HEX]
//                 [--spans PATH]
//
// `run` generates the workload's input from the seed, drives the system
// through the public calls the `dpcopula` and `dpcopula_serve` tools make,
// checks every output, prints a report and, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 replays the same work with a
// span around every call into a layer and reports the per-layer metrics.
//
// Work that must run in a fresh process is done by copies of this binary:
//   e2e_bench prepare --workload NAME --seed N --workdir DIR
//       writes the input CSV and prints "input <rows> <bytes>".
//   e2e_bench cold --workload NAME --seed N --workdir DIR --tag T
//       one pipeline run of release 0 in a fresh process; prints
//       "cold <wall_s> <peak_rss_bytes> <release digest>".
#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/range_estimator.h"
#include "common/cpuinfo.h"
#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "copula/sampler.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "core/model_io.h"
#include "data/census.h"
#include "data/csv.h"
#include "data/generator.h"
#include "dp/budget.h"
#include "hist/histogram.h"
#include "linalg/cholesky.h"
#include "linalg/psd_repair.h"
#include "marginals/marginal_method.h"
#include "marginals/postprocess.h"
#include "obs/json_writer.h"
#include "obs/profile.h"
#include "query/evaluator.h"
#include "query/experiment_config.h"
#include "query/metrics.h"
#include "query/workload.h"
#include "serve/ledger.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spans.h"
#include "stats/empirical_cdf.h"
#include "stats/normal.h"
#include "wire_client.h"

extern char** environ;

namespace {

namespace core = dpcopula::core;
namespace data = dpcopula::data;
namespace serve = dpcopula::serve;
using dpcopula::Result;
using dpcopula::Rng;
using dpcopula::Status;
using perfbench::SpanRecorder;
using perfbench::SpanScope;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of the whole process (every thread, user and system), in
// seconds. On a virtual machine it leaves out the time the hypervisor ran
// other guests on this guest's CPUs, which wall time includes.
double ProcessCpuSeconds() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

// Logs to stderr how long each phase of the benchmark itself took.
class PhaseLog {
 public:
  void Mark(const char* phase) {
    std::fprintf(stderr, "e2e_bench: %-24s %8.3f s\n", phase, Since(last_));
    last_ = Clock::now();
  }

 private:
  Clock::time_point last_ = Clock::now();
};

// Narrows the calling thread, and the threads it starts, to the first `n`
// CPUs it may run on, until destroyed; a no-op when that leaves every CPU
// or fewer than `n` are allowed. On a virtual machine a thread that blocks
// and wakes on an idle virtual CPU waits for the hypervisor to run that CPU
// again, which adds milliseconds at random; keeping the server's workers
// and its clients, which hand each request back and forth, on as many CPUs
// as there are workers keeps those CPUs busy. The batch pipeline never
// blocks between its steps and is not pinned: pinned to one fixed CPU it
// cannot move away from other work the scheduler puts there.
class CpuPin {
 public:
  explicit CpuPin(int n) {
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    int taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &pinned);
        ++taken;
      }
    }
    if (taken < n || taken == CPU_COUNT(&saved_)) return;
    active_ = ::sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
  }
  ~CpuPin() {
    if (active_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Workloads.

// Both workloads run the pipeline on one thread, so that its process CPU
// time is the pipeline's own. At four threads, the pool's wake-ups on idle
// virtual CPUs made the median wall time of census_hybrid's 0.1 s runs
// spread by 29% across ten seeds on a shared 4-vCPU host, against 10% at
// one thread. The release is byte-identical at every thread count.
constexpr int kPipelineThreads = 1;
// Independent releases whose query_re is averaged.
constexpr std::size_t kScoredReleases = 20;

struct Workload {
  std::string name;
  bool census = false;        // data::GenerateUsCensus; else Gaussian AR(1).
  std::size_t rows = 0;
  std::size_t columns = 0;    // Gaussian inputs only.
  std::int64_t domain = 0;    // Gaussian inputs only.
  double epsilon = 1.0;
  double budget_ratio_k = 8.0;
};

bool FindWorkload(const std::string& name, Workload* w) {
  const dpcopula::query::ExperimentConfig paper =
      dpcopula::query::ExperimentConfig::Paper();
  w->name = name;
  if (name == "table3") {
    w->rows = static_cast<std::size_t>(paper.num_tuples);
    w->columns = paper.num_dimensions;
    w->domain = paper.domain_size;
    w->epsilon = paper.epsilon;
    w->budget_ratio_k = paper.budget_ratio_k;
  } else if (name == "census_hybrid") {
    w->census = true;
    w->rows = 50000;
  } else {
    return false;
  }
  return true;
}

// Independent streams derived from the one --seed argument.
enum Salt : std::uint64_t {
  kInputSalt = 1,
  kSynthesisSalt = 2,
  kRequestSalt = 3,
  kProbeSalt = 4,
};

std::uint64_t Derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The synthesis seed of release `release`. Release 0 is the reference
// release every process can reproduce; the measured runs use releases 1,
// 2, ... so that query_re averages over independent releases.
std::uint64_t ReleaseSeed(std::uint64_t seed, int release) {
  return Derive(Derive(seed, kSynthesisSalt), static_cast<std::uint64_t>(release));
}

// The CLI's defaults (tools/dpcopula_cli.cc): hybrid on, Kendall, EFPA,
// Gaussian family, one thread count for every stage.
core::HybridOptions PipelineOptions(const Workload& w) {
  core::HybridOptions hybrid;
  hybrid.epsilon = w.epsilon;
  hybrid.inner.epsilon = w.epsilon;
  hybrid.inner.budget_ratio_k = w.budget_ratio_k;
  hybrid.inner.num_threads = kPipelineThreads;
  hybrid.num_threads = kPipelineThreads;
  return hybrid;
}

// ---------------------------------------------------------------------------
// Arguments, paths and small helpers.

struct Args {
  std::string mode;
  std::string workload;
  std::string workdir;
  std::string tag = "0";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans_path;  // Where a traced run writes its spans.
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--tag") {
      args->tag = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return (argc % 2) == 0 && !args->workload.empty() &&
         !args->workdir.empty() && args->seconds > 0.0;
}

std::string InputPath(const Args& a) { return a.workdir + "/input.csv"; }
// The served model, fitted from release seed 0.
std::string ModelPath(const Args& a) { return a.workdir + "/model.txt"; }

std::int64_t FileBytes(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::int64_t>(st.st_size);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// "<what> n=<count> p25=... p50=... p75=..." for the report.
std::string Spread(const char* what, const std::vector<double>& v) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s n=%zu p25=%.6g p50=%.6g p75=%.6g",
                what, v.size(), Quantile(v, 0.25), Quantile(v, 0.5),
                Quantile(v, 0.75));
  return line;
}

// Counts attempted and failed operations; a failed check is a failed
// operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  // A check on an operation already counted as attempted.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < 20) failures.push_back(f);
    }
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// ---------------------------------------------------------------------------
// Host and build fingerprint.

// The CPU's brand string, from CPUID.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  model.erase(model.find_last_not_of(' ') + 1);
  return model;
#else
  return "unknown";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out;
  dpcopula::obs::internal::AppendJsonString(&out, s);
  return out;
}

std::string EnvOrUnset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "unset" : v;
}

std::string Fingerprint(const Args& args) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"avx2_compiled\": "
      << (dpcopula::stats::NormalBatchAvx2Compiled() ? "true" : "false")
      << ", \"avx2_dispatch\": "
      << (dpcopula::stats::NormalBatchAvx2Active() ? "true" : "false")
      << ", \"cpu_avx2\": "
      << (dpcopula::common::CpuSupportsAvx2() ? "true" : "false")
      << ", \"DPCOPULA_OBS\": " << (PERFBENCH_OBS ? "\"ON\"" : "\"OFF\"")
      << ", \"DPCOPULA_FAILPOINTS\": "
      << (PERFBENCH_FAILPOINTS ? "\"ON\"" : "\"OFF\"")
      << ", \"DPCOPULA_SIMD\": " << (PERFBENCH_SIMD ? "\"ON\"" : "\"OFF\"")
      << ", \"env_DPCOPULA_SIMD\": " << JsonString(EnvOrUnset("DPCOPULA_SIMD"))
      << ", \"git_commit\": " << JsonString(args.commit)
      << ", \"source_digest\": " << JsonString(args.source_digest) << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Child processes: a fresh copy of this binary.

// This binary's path as it was started (argv[0]).
const char* g_self = nullptr;

// Runs this binary with `argv_tail` and returns its stdout. Fails when the
// child cannot start or exits with a non-zero code.
Result<std::string> RunSelf(const std::vector<std::string>& argv_tail) {
  std::vector<std::string> args{g_self};
  args.insert(args.end(), argv_tail.begin(), argv_tail.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return Status::IOError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  posix_spawn_file_actions_addclose(&actions, out_pipe[1]);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, g_self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  if (rc != 0) {
    ::close(out_pipe[0]);
    return Status::IOError("posix_spawn failed");
  }
  std::string output;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::read(out_pipe[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    output.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(out_pipe[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("child '" + argv_tail[0] + "' failed");
  }
  return output;
}

// ---------------------------------------------------------------------------
// Inputs.

Result<data::Table> GenerateInput(const Workload& w, std::uint64_t seed) {
  Rng rng(Derive(seed, kInputSalt));
  if (w.census) return data::GenerateUsCensus(w.rows, &rng);
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < w.columns; ++j) {
    specs.push_back(
        data::MarginSpec::Gaussian("a" + std::to_string(j), w.domain));
  }
  return data::GenerateGaussianDependent(
      specs, data::Ar1Correlation(w.columns, 0.5), w.rows, &rng);
}

int Prepare(const Args& args, const Workload& w) {
  Result<data::Table> table = GenerateInput(w, args.seed);
  if (!table.ok()) {
    std::fprintf(stderr, "generate: %s\n", table.status().ToString().c_str());
    return 1;
  }
  Status written = data::WriteCsv(*table, InputPath(args));
  if (!written.ok()) {
    std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("input %zu %" PRId64 "\n", table->num_rows(),
              FileBytes(InputPath(args)));
  return 0;
}

struct InputInfo {
  std::size_t rows = 0;
  std::int64_t bytes = 0;
};

Result<InputInfo> PrepareInChild(const Args& args) {
  Result<std::string> out =
      RunSelf({"prepare", "--workload", args.workload, "--seed",
               std::to_string(args.seed), "--workdir", args.workdir});
  if (!out.ok()) return out.status();
  InputInfo info;
  unsigned long long rows = 0;
  long long bytes = 0;
  if (std::sscanf(out->c_str(), "input %llu %lld", &rows, &bytes) != 2) {
    return Status::Internal("prepare printed no input line");
  }
  info.rows = rows;
  info.bytes = bytes;
  return info;
}

// ---------------------------------------------------------------------------
// Output checks.

// Every cell is an integer inside its attribute's domain.
bool CellsInDomain(const data::Table& table, const data::Schema& schema) {
  if (table.num_columns() != schema.num_attributes()) return false;
  for (std::size_t j = 0; j < table.num_columns(); ++j) {
    const double hi = static_cast<double>(schema.attribute(j).domain_size);
    for (double v : table.column(j)) {
      if (!(v >= 0.0 && v < hi) || v != std::floor(v)) return false;
    }
  }
  return true;
}

bool SameTable(const data::Table& a, const data::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (std::size_t j = 0; j < a.num_columns(); ++j) {
    if (a.column(j) != b.column(j)) return false;
  }
  return true;
}

// FNV-1a over the cells, to compare releases made in other processes.
std::uint64_t Digest(const data::Table& table) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t j = 0; j < table.num_columns(); ++j) {
    for (double v : table.column(j)) {
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &v, sizeof(v));
      for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
    }
  }
  return h;
}

bool BudgetExact(double spent, double total, double epsilon) {
  return std::abs(spent - total) <= 1e-9 && std::abs(total - epsilon) <= 1e-9;
}

// ---------------------------------------------------------------------------
// The batch pipeline: the CLI's default sequence.

struct PipelineRun {
  Status status;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // Process CPU time over the same interval.
  double synthesize_s = 0.0;  // The SynthesizeHybrid call alone.
  data::Table synthetic;
  data::Schema input_schema;
  double spent = 0.0;
  double total = 0.0;
  std::size_t charges = 0;
  std::int64_t partitions = 0;
  std::int64_t degraded = 0;
};

PipelineRun RunPipeline(const Workload& w, const std::string& input,
                        const std::string& output, std::uint64_t release_seed) {
  PipelineRun run;
  Rng rng(release_seed);
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  Result<data::Table> table = data::ReadCsv(input);
  if (!table.ok()) {
    run.status = table.status();
    return run;
  }
  const Clock::time_point synth_start = Clock::now();
  Result<core::HybridResult> result =
      core::SynthesizeHybrid(*table, PipelineOptions(w), &rng);
  run.synthesize_s = Since(synth_start);
  if (!result.ok()) {
    run.status = result.status();
    return run;
  }
  run.status = data::WriteCsv(result->synthetic, output);
  run.wall_s = Since(start);
  run.cpu_s = ProcessCpuSeconds() - cpu_start;
  run.input_schema = table->schema();
  run.spent = result->budget.spent();
  run.total = result->budget.total_epsilon();
  run.charges = result->budget.entries().size();
  run.partitions = result->num_partitions;
  run.degraded = result->degraded_partitions;
  run.synthetic = std::move(result->synthetic);
  return run;
}

// Checks one pipeline run's release: the charged budget equals epsilon,
// the row count is n (or, with hybrid partitions, n up to the partition
// count noise) and every cell lies in its domain. Returns "" when it
// passes.
std::string CheckPipelineRun(const Workload& w, const PipelineRun& run) {
  if (!run.status.ok()) return "pipeline: " + run.status.ToString();
  if (!BudgetExact(run.spent, run.total, w.epsilon)) {
    return "pipeline: charged epsilon != epsilon";
  }
  const double n = static_cast<double>(w.rows);
  const double rows = static_cast<double>(run.synthetic.num_rows());
  if (run.partitions <= 1) {
    if (run.synthetic.num_rows() != w.rows) return "pipeline: row count != n";
  } else {
    // Each partition's count carries Laplace noise of scale
    // 1 / (0.1 * epsilon); allow 50 scales per partition.
    const double slack = 50.0 * static_cast<double>(run.partitions) /
                         (PipelineOptions(w).partition_count_fraction *
                          w.epsilon);
    if (std::abs(rows - n) > slack) return "pipeline: noisy total off";
  }
  if (!CellsInDomain(run.synthetic, run.input_schema)) {
    return "pipeline: cell outside its domain";
  }
  return "";
}

int Cold(const Args& args, const Workload& w) {
  const std::string output = args.workdir + "/cold-" + args.tag + ".csv";
  PipelineRun run =
      RunPipeline(w, InputPath(args), output, ReleaseSeed(args.seed, 0));
  const std::string problem = CheckPipelineRun(w, run);
  std::remove(output.c_str());
  if (!problem.empty()) {
    std::fprintf(stderr, "cold run: %s\n", problem.c_str());
    return 1;
  }
  std::printf("cold %.9f %" PRId64 " %016" PRIx64 "\n", run.wall_s,
              dpcopula::obs::PeakRssBytes(), Digest(run.synthetic));
  return 0;
}

// ---------------------------------------------------------------------------
// query_re: mean relative error (paper §5.1) of 1000 seeded range-count
// queries, synthetic against input. Computed outside every timed region.
//
// The queries are cut into kQuerySlices slices that are answered on as many
// threads; query_re is the query-weighted mean of the slices' mean
// relative errors.
constexpr std::size_t kQueries = 1000;
constexpr std::size_t kQuerySlices = 4;

struct QueryHarness {
  std::vector<std::vector<dpcopula::query::RangeQuery>> slices;
  std::vector<std::vector<double>> truth;
  double sanity_bound = 1.0;
};

// Runs fn(slice) for every slice, one thread each; returns the first error.
Status ForEachSlice(const std::function<Status(std::size_t)>& fn) {
  std::vector<Status> statuses(kQuerySlices);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kQuerySlices; ++i) {
    threads.emplace_back([&, i] { statuses[i] = fn(i); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : statuses) DPC_RETURN_NOT_OK(st);
  return Status::OK();
}

// The query set is drawn over the workload's nominal domains from one fixed
// seed (the paper profile's), so every --seed value scores the same queries
// and query_re varies only with the input and the mechanism's noise.
Result<QueryHarness> BuildQueries(const Workload& w,
                                  const data::Table& input) {
  QueryHarness h;
  data::Schema domains = data::UsCensusSchema();
  if (!w.census) {
    std::vector<data::Attribute> attributes(w.columns);
    for (data::Attribute& a : attributes) a.domain_size = w.domain;
    domains = data::Schema(std::move(attributes));
  }
  Rng rng(dpcopula::query::ExperimentConfig::Paper().seed);
  const std::vector<dpcopula::query::RangeQuery> queries =
      dpcopula::query::RandomWorkload(domains, kQueries, &rng);
  h.slices.resize(kQuerySlices);
  h.truth.resize(kQuerySlices);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    h.slices[q * kQuerySlices / queries.size()].push_back(queries[q]);
  }
  DPC_RETURN_NOT_OK(ForEachSlice([&](std::size_t i) -> Status {
    DPC_ASSIGN_OR_RETURN(
        h.truth[i], dpcopula::query::ComputeTrueAnswers(input, h.slices[i]));
    return Status::OK();
  }));
  h.sanity_bound =
      w.census ? dpcopula::query::UsCensusSanityBound(
                     static_cast<std::int64_t>(input.num_rows()))
               : dpcopula::query::DefaultSanityBound();
  return h;
}

Result<double> QueryRelativeError(const QueryHarness& h,
                                  const data::Table& synthetic) {
  const dpcopula::baselines::TableEstimator estimator(synthetic, "synthetic");
  std::vector<double> weighted(kQuerySlices);
  DPC_RETURN_NOT_OK(ForEachSlice([&](std::size_t i) -> Status {
    DPC_ASSIGN_OR_RETURN(
        dpcopula::query::EvaluationResult result,
        dpcopula::query::EvaluateWorkloadWithTruth(
            h.truth[i], estimator, h.slices[i], h.sanity_bound));
    weighted[i] = result.mean_relative_error *
                  static_cast<double>(h.slices[i].size()) / kQueries;
    return Status::OK();
  }));
  double mean = 0.0;
  for (double v : weighted) mean += v;
  return mean;
}

// ---------------------------------------------------------------------------
// Serving: request helpers and reply checks.

constexpr char kModelName[] = "fitted";
constexpr char kTenant[] = "bench";
constexpr double kChargeEpsilon = 1e-6;

std::string SampleLine(double epsilon, std::uint64_t rows, std::uint64_t seed) {
  char line[192];
  std::snprintf(line, sizeof(line), "SAMPLE %s %s %.17g %" PRIu64 " %" PRIu64
                " csv", kModelName, kTenant, epsilon, rows, seed);
  return line;
}

// True when `reply` is "OK SAMPLE <rows> <cols> csv", a header line,
// exactly `rows` row lines and "END".
bool SampleReplyShapeOk(const std::string& reply, std::uint64_t rows,
                        std::size_t cols) {
  unsigned long long r = 0;
  unsigned long long c = 0;
  if (std::sscanf(reply.c_str(), "OK SAMPLE %llu %llu csv", &r, &c) != 2) {
    return false;
  }
  const auto lines = static_cast<std::uint64_t>(
      std::count(reply.begin(), reply.end(), '\n'));
  return r == rows && c == cols && lines == rows + 3;
}

// The client's own tallies, cross-checked against Server::GetStats().
struct ClientTally {
  std::uint64_t requests = 0;
  std::uint64_t samples_ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t budget_rejections = 0;
  std::uint64_t rejected_busy = 0;

  void Count(const std::string& reply) {
    ++requests;
    if (reply.rfind("OK SAMPLE", 0) == 0) {
      ++samples_ok;
    } else if (reply.rfind("ERR 429", 0) == 0) {
      ++budget_rejections;
    } else if (reply.rfind("ERR 503", 0) == 0) {
      // The accept thread answers a full queue before any request is read.
      --requests;
      ++rejected_busy;
    } else if (reply.rfind("ERR", 0) == 0) {
      ++errors;
    }
  }
  void Add(const ClientTally& o) {
    requests += o.requests;
    samples_ok += o.samples_ok;
    errors += o.errors;
    budget_rejections += o.budget_rejections;
    rejected_busy += o.rejected_busy;
  }
};

// The server's workers and the client connections share this many CPUs
// (see CpuPin), one per worker.
constexpr int kServeCpus = 2;

// The tenant ledger is kept in memory: with a ledger file every charging
// request waits for an fsync, whose latency on a shared virtual disk swings
// by an order of magnitude from minute to minute and would decide
// serve_p99_us and serve_qps. The traced run times TenantLedger::Charge
// on a ledger file instead (serve.ledger_charge_us).
serve::ServerOptions ServeOptions() {
  serve::ServerOptions options;
  options.num_workers = kServeCpus;
  options.sample_threads = 1;
  options.ledger.default_allowance = 1.0;
  return options;
}

struct StartedServer {
  std::unique_ptr<serve::Server> server;
  double setup_s = 0.0;
};

// Server::Create + AddModel until the first PING is answered.
Result<StartedServer> StartServer(const std::string& model_path,
                                  ClientTally* tally) {
  StartedServer started;
  const Clock::time_point start = Clock::now();
  DPC_ASSIGN_OR_RETURN(started.server, serve::Server::Create(ServeOptions()));
  DPC_RETURN_NOT_OK(started.server->AddModel(kModelName, model_path));
  perfbench::WireClient client;
  std::string reply;
  if (!client.Connect(started.server->port()) || !client.Call("PING", &reply)) {
    return Status::IOError("first PING failed");
  }
  started.setup_s = Since(start);
  tally->Count(reply);
  if (reply != "OK PONG\n") return Status::Internal("bad PING reply");
  return started;
}

// Compares Server::GetStats() with the client's tallies.
std::string CheckServerStats(const serve::Server& server,
                             const ClientTally& t) {
  const serve::Server::Stats s = server.GetStats();
  if (s.requests != t.requests || s.samples_ok != t.samples_ok ||
      s.errors != t.errors || s.budget_rejections != t.budget_rejections ||
      s.connections_rejected_busy != t.rejected_busy) {
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "server stats mismatch: server requests=%llu ok=%llu "
                  "errors=%llu 429=%llu busy=%llu, client %llu/%llu/%llu/"
                  "%llu/%llu",
                  static_cast<unsigned long long>(s.requests),
                  static_cast<unsigned long long>(s.samples_ok),
                  static_cast<unsigned long long>(s.errors),
                  static_cast<unsigned long long>(s.budget_rejections),
                  static_cast<unsigned long long>(s.connections_rejected_busy),
                  static_cast<unsigned long long>(t.requests),
                  static_cast<unsigned long long>(t.samples_ok),
                  static_cast<unsigned long long>(t.errors),
                  static_cast<unsigned long long>(t.budget_rejections),
                  static_cast<unsigned long long>(t.rejected_busy));
    return msg;
  }
  return "";
}

// Result of the closed-loop request stream.
enum RequestClass { kFree64, kFree4096, kCharged64, kNumClasses };
const char* const kClassNames[kNumClasses] = {"free_64", "free_4096",
                                              "charged_64"};

// One request of the closed loop.
struct Sample {
  double done_s;  // Completion, from the start of the loop.
  double us;      // Latency from send to the last byte of the reply.
  RequestClass cls;
  bool ok;
};

struct LoadResult {
  std::vector<Sample> samples;
  std::vector<double> window_cpu_s;  // Process CPU time of each 1-s window.
  std::uint64_t charged_ok = 0;
  double seconds = 0.0;
  ClientTally tally;
  Tally ops;
};

// Closed loop from two persistent connections for `seconds`. Per
// connection, a seeded stream: 3/4 free 64-row requests, 1/8 free
// 4096-row requests, 1/8 64-row requests charging kChargeEpsilon.
LoadResult ClosedLoop(int port, std::size_t columns, std::uint64_t seed,
                      double seconds) {
  constexpr int kConnections = 2;
  std::vector<LoadResult> per(kConnections);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& r = per[static_cast<std::size_t>(c)];
      perfbench::WireClient client;
      if (!client.Connect(port)) {
        r.ops.Op(false, "connect failed");
        return;
      }
      Rng rng(Derive(seed, kRequestSalt + static_cast<std::uint64_t>(c)));
      std::string reply;
      for (std::uint64_t i = 0; Since(start) < seconds; ++i) {
        const std::uint64_t pick = rng.NextUint64Below(8);
        const std::uint64_t rows = pick == 6 ? 4096 : 64;
        const double epsilon = pick == 7 ? kChargeEpsilon : 0.0;
        const std::uint64_t request_seed =
            (static_cast<std::uint64_t>(c + 1) << 40) + i;
        const Clock::time_point sent = Clock::now();
        const bool transport = client.Call(
            SampleLine(epsilon, rows, request_seed), &reply);
        const double us = Since(sent) * 1e6;
        if (!transport) {
          r.ops.Op(false, "transport failure");
          break;
        }
        r.tally.Count(reply);
        const bool ok = SampleReplyShapeOk(reply, rows, columns);
        r.samples.push_back({Since(start), us,
                             pick == 6   ? kFree4096
                             : pick == 7 ? kCharged64
                                         : kFree64,
                             ok});
        r.ops.Op(ok, ok ? "" : "reply: " + reply.substr(0, reply.find('\n')));
        if (ok && epsilon > 0.0) ++r.charged_ok;
      }
    });
  }
  // Meanwhile this thread samples the process's CPU time once a second.
  std::vector<double> window_cpu_s;
  {
    double last = ProcessCpuSeconds();
    for (int w = 1; Since(start) < seconds; ++w) {
      std::this_thread::sleep_until(start + std::chrono::seconds(w));
      const double now = ProcessCpuSeconds();
      window_cpu_s.push_back(now - last);
      last = now;
    }
  }
  for (std::thread& t : threads) t.join();
  LoadResult total;
  total.window_cpu_s = std::move(window_cpu_s);
  total.seconds = Since(start);
  for (LoadResult& r : per) {
    total.samples.insert(total.samples.end(), r.samples.begin(),
                         r.samples.end());
    total.charged_ok += r.charged_ok;
    total.tally.Add(r.tally);
    total.ops.attempted += r.ops.attempted;
    total.ops.failed += r.ops.failed;
    for (const std::string& f : r.ops.failures) total.ops.failures.push_back(f);
  }
  return total;
}

// Throughput and latency of each one-second window of the closed loop, and
// their medians over the windows the process had its CPUs for. Every window
// holds hundreds to thousands of requests, so its p99 has several to tens
// of samples beyond it.
//
// On a shared virtual machine the hypervisor now and then runs other guests
// on this guest's CPUs for a second or more. The server's threads are then
// runnable but not running: the window's requests wait, and the process's
// CPU time, which leaves that time out, falls. In a window where the
// process got less than kMinWindowCpuShare of the CPU time of its best
// windows (the 90th percentile), throughput and p99 measure the host, not
// the program; such windows are left out, unless that would leave fewer
// than a quarter of them.
constexpr double kMinWindowCpuShare = 0.9;

struct WindowStats {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t windows = 0;
  std::size_t kept = 0;
};

WindowStats MedianOverWindows(const LoadResult& load) {
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(load.seconds)));
  std::vector<std::vector<double>> latencies(n);
  std::vector<double> ok(n, 0.0);
  for (const Sample& sample : load.samples) {
    const std::size_t w =
        std::min(n - 1, static_cast<std::size_t>(sample.done_s));
    latencies[w].push_back(sample.us);
    if (sample.ok) ok[w] += 1.0;
  }
  const double min_cpu =
      kMinWindowCpuShare * Quantile(load.window_cpu_s, 0.9);
  std::vector<bool> keep(n, true);
  std::size_t kept = n;
  for (std::size_t w = 0; w < n && w < load.window_cpu_s.size(); ++w) {
    if (load.window_cpu_s[w] < min_cpu) {
      keep[w] = false;
      --kept;
    }
  }
  if (4 * kept < n) keep.assign(n, true);
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::size_t w = 0; w < n; ++w) {
    if (!keep[w]) continue;
    // The last window also holds the requests in flight at the deadline.
    const double length =
        w + 1 < n ? 1.0 : load.seconds - static_cast<double>(n - 1);
    qps.push_back(ok[w] / length);
    p50.push_back(Quantile(latencies[w], 0.50));
    p99.push_back(Quantile(latencies[w], 0.99));
  }
  return {Median(qps), Median(p50), Median(p99), n, qps.size()};
}

// The tenant's spent budget, read over the wire with BUDGET.
Result<double> TenantSpent(int port, ClientTally* tally) {
  perfbench::WireClient client;
  std::string reply;
  if (!client.Connect(port) ||
      !client.Call(std::string("BUDGET ") + kTenant, &reply)) {
    return Status::IOError("BUDGET failed");
  }
  tally->Count(reply);
  const std::size_t at = reply.find("spent=");
  if (at == std::string::npos) return Status::IOError("bad BUDGET reply");
  return std::strtod(reply.c_str() + at + 6, nullptr);
}

struct Outcome {
  Tally tally;
  std::vector<Metric> metrics;
  InputInfo input;
  std::vector<std::string> notes;  // Extra report lines.
};

// Runs the closed loop against `server` for `seconds`, then checks that the
// tenant's spent epsilon equals what the client charged and that the
// server's counters match the client's tallies (which `tally` must hold
// from the server's start). Returns the windowed figures.
WindowStats LoadAndCheck(const serve::Server& server, std::size_t columns,
                         std::uint64_t seed, double seconds,
                         ClientTally* tally, Outcome* out) {
  const LoadResult load = ClosedLoop(server.port(), columns, seed, seconds);
  for (int k = 0; k < kNumClasses; ++k) {
    std::vector<double> v;
    for (const Sample& sample : load.samples) {
      if (sample.cls == k) v.push_back(sample.us);
    }
    char note[160];
    std::snprintf(note, sizeof(note),
                  "requests %-10s n=%zu p50=%.0f us p99=%.0f us",
                  kClassNames[k], v.size(), Quantile(v, 0.5),
                  Quantile(v, 0.99));
    out->notes.push_back(note);
  }
  const WindowStats windows = MedianOverWindows(load);
  char kept[96];
  std::snprintf(kept, sizeof(kept), "serving windows kept %zu of %zu",
                windows.kept, windows.windows);
  out->notes.push_back(kept);
  tally->Add(load.tally);
  out->tally.Add(load.ops);
  double expected = 0.0;
  for (std::uint64_t i = 0; i < load.charged_ok; ++i) {
    expected += kChargeEpsilon;
  }
  Result<double> spent = TenantSpent(server.port(), tally);
  out->tally.Op(spent.ok() && std::abs(*spent - expected) <= 1e-12,
                "ledger spent != charged epsilon");
  const std::string mismatch = CheckServerStats(server, *tally);
  out->tally.Op(mismatch.empty(), mismatch);
  return windows;
}


// ---------------------------------------------------------------------------
// Traced runs: a span around every call into a layer's public function.

template <typename F>
auto Traced(SpanRecorder* rec, const char* layer, const char* name, int run,
            F&& fn) {
  SpanScope span(rec, layer, name, run);
  return fn();
}

// Self time per span name, per traced run, for one kind of root span.
using SelfTimes = std::vector<std::map<std::string, double>>;

double SumSelf(const std::map<std::string, double>& self) {
  double sum = 0.0;
  for (const auto& [name, seconds] : self) sum += seconds;
  return sum;
}

double MedianSelf(const SelfTimes& runs, const std::string& name) {
  std::vector<double> values;
  for (const auto& self : runs) {
    const auto it = self.find(name);
    values.push_back(it == self.end() ? 0.0 : it->second);
  }
  return Median(values);
}

// The replay of core::Synthesize's public-call sequence (Gaussian family,
// Kendall estimator, EFPA margins), as a traced run sees it.
struct Replay {
  Status status;
  data::Table synthetic;
  core::DpCopulaModel model;
  double spent = 0.0;
  double total = 0.0;
  std::size_t charges = 0;
  std::int64_t kendall_rows_used = 0;
  std::int64_t kendall_pairs = 0;
  std::int64_t domain_cells = 0;
  int root = -1;
};

// Replays core::Synthesize under a root span named `root_name`. Reads the
// input CSV under a span when `table` is null; writes the output CSV when
// `output` is non-empty.
Replay ReplaySynthesize(const Workload& w, const data::Table* table,
                        const std::string& input, const std::string& output,
                        std::uint64_t seed, SpanRecorder* rec, int run,
                        const char* root_name) {
  Replay r;
  SpanScope root(rec, "run", root_name, run);
  r.root = root.id();
  Rng rng(ReleaseSeed(seed, 0));
  data::Table loaded;
  if (table == nullptr) {
    Result<data::Table> read = Traced(rec, "data", "data.ReadCsv", run,
                                      [&] { return data::ReadCsv(input); });
    if (!read.ok()) {
      r.status = read.status();
      return r;
    }
    loaded = read.MoveValueUnsafe();
    table = &loaded;
  }
  const core::DpCopulaOptions options = PipelineOptions(w).inner;
  const Result<core::BudgetSplit> split =
      Traced(rec, "core", "core.ComputeBudgetSplit", run,
             [&] { return core::ComputeBudgetSplit(options); });
  if (!split.ok()) {
    r.status = split.status();
    return r;
  }
  dpcopula::dp::BudgetAccountant budget(options.epsilon, "dpcopula");
  const std::size_t m = table->num_columns();
  const double eps_per_margin = split->epsilon1 / static_cast<double>(m);
  std::vector<dpcopula::stats::EmpiricalCdf> cdfs;
  for (std::size_t j = 0; j < m; ++j) {
    const std::string what = "margin:" + table->schema().attribute(j).name;
    r.status = Traced(rec, "dp", "dp.BudgetAccountant::Charge", run, [&] {
      return budget.Charge(eps_per_margin, what, 1.0);
    });
    if (!r.status.ok()) return r;
    Result<dpcopula::hist::Histogram> h =
        Traced(rec, "hist", "hist.Histogram::FromColumn", run, [&] {
          return dpcopula::hist::Histogram::FromColumn(*table, j);
        });
    if (!h.ok()) {
      r.status = h.status();
      return r;
    }
    r.domain_cells += static_cast<std::int64_t>(h->num_cells());
    Result<std::vector<double>> noisy =
        Traced(rec, "marginals", "marginals.PublishMarginal", run, [&] {
          return dpcopula::marginals::PublishMarginal(
              options.marginal_method, h->data(), eps_per_margin, &rng);
        });
    if (!noisy.ok()) {
      r.status = noisy.status();
      return r;
    }
    std::vector<double> counts =
        Traced(rec, "marginals", "marginals.ProjectToNoisyTotal", run,
               [&] { return dpcopula::marginals::ProjectToNoisyTotal(*noisy); });
    Result<dpcopula::stats::EmpiricalCdf> cdf =
        Traced(rec, "stats", "stats.EmpiricalCdf::FromCounts", run, [&] {
          return dpcopula::stats::EmpiricalCdf::FromCounts(counts);
        });
    if (!cdf.ok()) {
      r.status = cdf.status();
      return r;
    }
    cdfs.push_back(cdf.MoveValueUnsafe());
    r.model.marginal_counts.push_back(std::move(counts));
  }
  r.status = Traced(rec, "dp", "dp.BudgetAccountant::Charge", run, [&] {
    return budget.Charge(split->epsilon2, "correlation:kendall");
  });
  if (!r.status.ok()) return r;
  dpcopula::copula::KendallEstimatorOptions kendall = options.kendall;
  kendall.num_threads = options.num_threads;
  Result<dpcopula::copula::KendallEstimate> estimate =
      Traced(rec, "copula", "copula.EstimateKendallCorrelation", run, [&] {
        return dpcopula::copula::EstimateKendallCorrelation(
            *table, split->epsilon2, &rng, kendall);
      });
  if (!estimate.ok()) {
    r.status = estimate.status();
    return r;
  }
  r.kendall_rows_used = estimate->rows_used;
  r.kendall_pairs = static_cast<std::int64_t>(m * (m - 1) / 2);
  dpcopula::linalg::PsdRepairOptions repair;
  repair.eigen_kernel = kendall.eigen_kernel;
  repair.num_threads = options.num_threads;
  Result<dpcopula::linalg::Matrix> correlation =
      Traced(rec, "linalg", "linalg.EnsureCorrelationMatrix", run, [&] {
        return dpcopula::linalg::EnsureCorrelationMatrix(
            estimate->correlation, repair);
      });
  if (!correlation.ok()) {
    r.status = correlation.status();
    return r;
  }
  Result<data::Table> synthetic =
      Traced(rec, "copula", "copula.SampleSyntheticData", run, [&] {
        return dpcopula::copula::SampleSyntheticData(
            table->schema(), cdfs, *correlation, table->num_rows(), &rng,
            options.num_threads);
      });
  if (!synthetic.ok()) {
    r.status = synthetic.status();
    return r;
  }
  if (!output.empty()) {
    r.status = Traced(rec, "data", "data.WriteCsv", run,
                      [&] { return data::WriteCsv(*synthetic, output); });
    if (!r.status.ok()) return r;
  }
  r.spent = budget.spent();
  r.total = budget.total_epsilon();
  r.charges = budget.entries().size();
  r.model.schema = table->schema();
  r.model.correlation = correlation.MoveValueUnsafe();
  r.model.fitted_rows = synthetic->num_rows();
  r.synthetic = synthetic.MoveValueUnsafe();
  return r;
}

// Times `fn` `reps` times, each call under its own span; returns the
// median call time in microseconds. `calls_per_span` > 1 divides each
// span among that many calls (for sub-microsecond functions).
template <typename F>
double MedianCallUs(SpanRecorder* rec, int run, const char* layer,
                    const char* name, int reps, int calls_per_span, F&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    int id = -1;
    {
      SpanScope span(rec, layer, name, run);
      id = span.id();
      for (int c = 0; c < calls_per_span; ++c) fn();
    }
    us.push_back(rec->DurationSeconds(id) * 1e6 / calls_per_span);
  }
  return Median(us);
}

// The per-request parts of serving `model`, timed outside the server: the
// InverseCdfTable and Cholesky factor the sampler builds per request,
// sampling and rendering 64 and 4096 rows, request parsing and an
// epsilon-charging ledger write. Ping round trips go to the server at
// `port`.
void ProbeServedModel(const core::DpCopulaModel& model, const Args& args,
                      int port, SpanRecorder* rec, int run, Tally* tally,
                      ClientTally* client_tally, std::vector<Metric>* out) {
  constexpr int kReps = 31;
  std::vector<dpcopula::stats::EmpiricalCdf> cdfs;
  for (const std::vector<double>& counts : model.marginal_counts) {
    Result<dpcopula::stats::EmpiricalCdf> cdf =
        dpcopula::stats::EmpiricalCdf::FromCounts(counts);
    tally->Op(cdf.ok(), "served CDF");
    if (!cdf.ok()) return;
    cdfs.push_back(cdf.MoveValueUnsafe());
  }
  SpanScope root(rec, "run", "probe", run);
  out->push_back({"stats.inverse_tables_us", "us",
                  MedianCallUs(rec, run, "stats", "stats.InverseCdfTable",
                               kReps, 1, [&] {
                                 std::vector<dpcopula::stats::InverseCdfTable>
                                     tables;
                                 tables.reserve(cdfs.size());
                                 for (const auto& cdf : cdfs) {
                                   tables.emplace_back(cdf);
                                 }
                               })});
  bool cholesky_ok = true;
  out->push_back({"linalg.cholesky_us", "us",
                  MedianCallUs(rec, run, "linalg", "linalg.CholeskyDecompose",
                               kReps, 1, [&] {
                                 cholesky_ok &= dpcopula::linalg::
                                     CholeskyDecompose(model.correlation)
                                         .ok();
                               })});
  tally->Op(cholesky_ok, "Cholesky of the served correlation");
  std::map<std::size_t, data::Table> sampled;
  for (const std::size_t rows : {std::size_t{64}, std::size_t{4096}}) {
    bool ok = true;
    Rng rng(Derive(args.seed, kProbeSalt));
    const std::string metric = "copula.sample_us_" + std::to_string(rows);
    out->push_back({metric, "us",
                    MedianCallUs(rec, run, "copula",
                                 "copula.SampleSyntheticData", kReps, 1, [&] {
                                   Result<data::Table> t =
                                       dpcopula::copula::SampleSyntheticData(
                                           model.schema, cdfs,
                                           model.correlation, rows, &rng, 1);
                                   ok &= t.ok() && t->num_rows() == rows;
                                   if (t.ok()) {
                                     sampled.insert_or_assign(
                                         rows, t.MoveValueUnsafe());
                                   }
                                 })});
    tally->Op(ok, "sample " + std::to_string(rows) + " rows");
    if (!ok) return;
  }
  for (const std::size_t rows : {std::size_t{64}, std::size_t{4096}}) {
    std::size_t bytes = 0;
    const std::string metric = "serve.render_us_" + std::to_string(rows);
    out->push_back(
        {metric, "us",
         MedianCallUs(rec, run, "serve", "serve.RenderSampleResponse", kReps,
                      1, [&] {
                        bytes = serve::RenderSampleResponse(sampled.at(rows),
                                                            false)
                                    .size();
                      })});
    tally->Op(bytes > 0, "render");
  }
  bool parsed = true;
  const std::string line = SampleLine(kChargeEpsilon, 64, 12345);
  out->push_back({"serve.parse_us", "us",
                  MedianCallUs(rec, run, "serve", "serve.ParseRequestLine",
                               kReps, 1000, [&] {
                                 parsed &=
                                     serve::ParseRequestLine(line).ok();
                               })});
  tally->Op(parsed, "parse request line");
  serve::TenantLedger::Options ledger_options;
  ledger_options.persist_path = args.workdir + "/probe-ledger.txt";
  Result<serve::TenantLedger> ledger =
      serve::TenantLedger::Open(ledger_options);
  tally->Op(ledger.ok(), "open probe ledger");
  if (!ledger.ok()) return;
  bool charged = true;
  out->push_back(
      {"serve.ledger_charge_us", "us",
       MedianCallUs(rec, run, "serve", "serve.TenantLedger::Charge", 15, 1,
                    [&] {
                      charged &= ledger->Charge("probe", kChargeEpsilon,
                                                "probe")
                                     .ok();
                    })});
  tally->Op(charged, "ledger charge");
  perfbench::WireClient client;
  bool pinged = client.Connect(port);
  std::string reply;
  out->push_back({"serve.ping_rtt_us", "us",
                  MedianCallUs(rec, run, "serve", "serve.PING", 101, 1, [&] {
                    pinged &= client.Call("PING", &reply);
                    if (pinged) client_tally->Count(reply);
                  })});
  tally->Op(pinged && reply == "OK PONG\n", "PING");
}

void AddServeCounters(const serve::Server& server, std::vector<Metric>* out) {
  const serve::Server::Stats s = server.GetStats();
  out->push_back({"serve.requests", "count", static_cast<double>(s.requests)});
  out->push_back({"serve.errors", "count", static_cast<double>(s.errors)});
  out->push_back({"serve.budget_rejections", "count",
                  static_cast<double>(s.budget_rejections)});
  out->push_back({"serve.rejected_busy", "count",
                  static_cast<double>(s.connections_rejected_busy)});
}

// Layer metrics of a replayed fit (`fit`) and of the runs that read and
// wrote CSV (`io`).
void AddFitAndIoMetrics(const SelfTimes& fit, const SelfTimes& io,
                        const Replay& replay, double input_bytes,
                        double output_bytes, std::vector<Metric>* out) {
  const double read_s = MedianSelf(io, "data.ReadCsv");
  const double write_s = MedianSelf(io, "data.WriteCsv");
  out->push_back({"data.csv_read_s", "s", read_s});
  out->push_back({"data.csv_write_s", "s", write_s});
  out->push_back({"data.csv_read_mb_per_s", "MB/s",
                  read_s > 0.0 ? input_bytes / read_s / 1e6 : 0.0});
  out->push_back({"data.csv_write_mb_per_s", "MB/s",
                  write_s > 0.0 ? output_bytes / write_s / 1e6 : 0.0});
  out->push_back({"marginals.publish_s", "s",
                  MedianSelf(fit, "marginals.PublishMarginal")});
  out->push_back({"marginals.domain_cells", "count",
                  static_cast<double>(replay.domain_cells)});
  out->push_back({"copula.kendall_s", "s",
                  MedianSelf(fit, "copula.EstimateKendallCorrelation")});
  out->push_back({"copula.kendall_rows_used", "count",
                  static_cast<double>(replay.kendall_rows_used)});
  out->push_back({"copula.kendall_pairs", "count",
                  static_cast<double>(replay.kendall_pairs)});
  const double sample_s = MedianSelf(fit, "copula.SampleSyntheticData");
  out->push_back({"copula.sample_s", "s", sample_s});
  out->push_back(
      {"copula.sample_rows_per_s", "1/s",
       sample_s > 0.0
           ? static_cast<double>(replay.synthetic.num_rows()) / sample_s
           : 0.0});
  out->push_back({"linalg.psd_repair_s", "s",
                  MedianSelf(fit, "linalg.EnsureCorrelationMatrix")});
}

// ---------------------------------------------------------------------------
// The four run modes.

constexpr int kColdRuns = 5;
constexpr std::size_t kMinRuns = 3;
// Share of --seconds a batch workload spends serving its model. The window
// medians of a closed loop much shorter than ten seconds rest on too few
// windows to be steady.
constexpr double kBatchServeShare = 0.6;

// Server starts per run; a start takes about 2 ms, much of it the first
// PING's round trip, whose wake-ups on idle virtual CPUs vary by a factor
// of two.
constexpr int kServerStarts = 15;

struct Served {
  WindowStats windows;
  double setup_s = 0.0;  // Median server start.
};

// Fits the model `input` yields (`dpcopula --no-hybrid --model-out`,
// release 0) and starts a server on it kServerStarts times; the last one
// answers a replay probe (the same model, rows and seed twice must give
// the same bytes) and the closed loop.
Result<Served> ServeFittedModel(const Args& args, const Workload& w,
                                const data::Table& input, double seconds,
                                Outcome* out) {
  Rng rng(ReleaseSeed(args.seed, 0));
  DPC_ASSIGN_OR_RETURN(core::SynthesisResult fit,
                       core::Synthesize(input, PipelineOptions(w).inner, &rng));
  DPC_RETURN_NOT_OK(core::SaveModel(
      core::ModelFromSynthesis(input.schema(), fit), ModelPath(args)));
  const CpuPin pin(kServeCpus);
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  ClientTally tally;
  for (int i = 0; i < kServerStarts; ++i) {
    if (server) server->Shutdown();
    tally = ClientTally();
    DPC_ASSIGN_OR_RETURN(StartedServer started,
                         StartServer(ModelPath(args), &tally));
    setup_s.push_back(started.setup_s);
    server = std::move(started.server);
  }

  const std::size_t cols = input.num_columns();
  perfbench::WireClient client;
  std::string first;
  std::string second;
  const std::string probe =
      SampleLine(0.0, 4096, Derive(args.seed, kProbeSalt));
  const bool sent = client.Connect(server->port()) &&
                    client.Call(probe, &first) && client.Call(probe, &second);
  client.Close();
  tally.Count(first);
  tally.Count(second);
  out->tally.Op(sent && first == second &&
                    SampleReplyShapeOk(first, 4096, cols),
                "replay probe returned different bytes");

  Served served;
  served.setup_s = Median(setup_s);
  served.windows = LoadAndCheck(*server, cols, args.seed, seconds, &tally, out);
  server->Shutdown();
  return served;
}

// Set-up time, peak RSS and release digest of kColdRuns fresh processes.
struct ColdRuns {
  std::vector<double> setup_s;
  std::vector<double> rss;
  std::vector<std::uint64_t> digests;
};

ColdRuns RunColdProcesses(const Args& args, Outcome* out) {
  ColdRuns runs;
  for (int i = 0; i < kColdRuns; ++i) {
    Result<std::string> cold =
        RunSelf({"cold", "--workload", args.workload, "--seed",
                 std::to_string(args.seed), "--workdir", args.workdir,
                 "--tag", std::to_string(i)});
    double setup = 0.0;
    long long peak = 0;
    unsigned long long digest = 0;
    const bool ok = cold.ok() && std::sscanf(cold->c_str(), "cold %lf %lld %llx",
                                             &setup, &peak, &digest) == 3;
    out->tally.Op(ok, "cold pipeline run failed");
    if (ok) {
      runs.setup_s.push_back(setup);
      runs.rss.push_back(static_cast<double>(peak));
      runs.digests.push_back(digest);
    }
  }
  return runs;
}

// Batch workloads, end to end: cold set-up runs in fresh processes, a
// reference run, then back-to-back warm pipeline runs until they add up to
// --seconds. Each run is checked; query_re averages the first
// kScoredReleases releases, scored between runs. Then the model the input
// yields is served (ServeFittedModel).
int RunBatch(const Args& args, const Workload& w, Outcome* out) {
  PhaseLog phases;
  Result<InputInfo> info = PrepareInChild(args);
  if (!info.ok()) return 1;
  out->input = *info;
  phases.Mark("prepare");
  const ColdRuns cold = RunColdProcesses(args, out);
  phases.Mark("cold runs");
  Result<data::Table> input = data::ReadCsv(InputPath(args));
  if (!input.ok()) return 1;
  Result<QueryHarness> queries = BuildQueries(w, *input);
  if (!queries.ok()) return 1;
  phases.Mark("query truth");

  // Reference run: release 0, which the cold processes also made.
  const std::string output = args.workdir + "/output.csv";
  const PipelineRun ref =
      RunPipeline(w, InputPath(args), output, ReleaseSeed(args.seed, 0));
  const std::string problem = CheckPipelineRun(w, ref);
  out->tally.Op(problem.empty(), problem);
  if (!problem.empty()) return 1;
  for (std::uint64_t digest : cold.digests) {
    out->tally.Check(digest == Digest(ref.synthetic),
                     "release 0 differs between processes");
  }
  Result<data::Table> back =
      data::ReadCsvWithSchema(output, ref.input_schema);
  out->tally.Check(back.ok() && SameTable(*back, ref.synthetic),
                   "written CSV does not read back to the same table");
  std::vector<double> query_re;
  auto score = [&](const data::Table& release) {
    Result<double> re = QueryRelativeError(*queries, release);
    out->tally.Check(re.ok(), "query_re");
    if (re.ok()) query_re.push_back(*re);
  };
  score(ref.synthetic);
  phases.Mark("reference run");

  std::vector<double> walls;
  std::vector<double> cpus;
  double measured = 0.0;
  for (int release = 1;
       walls.size() < kMinRuns || measured < args.seconds ||
       query_re.size() < kScoredReleases;
       ++release) {
    const PipelineRun run = RunPipeline(w, InputPath(args), output,
                                        ReleaseSeed(args.seed, release));
    const std::string p = CheckPipelineRun(w, run);
    out->tally.Op(p.empty(), p);
    if (!run.status.ok()) break;
    walls.push_back(run.wall_s);
    cpus.push_back(run.cpu_s);
    measured += run.wall_s;
    if (query_re.size() < kScoredReleases) score(run.synthetic);
  }
  phases.Mark("measured runs");
  out->notes.push_back(Spread("warm runs: wall_s", walls));
  out->notes.push_back(Spread("warm runs: cpu_s", cpus));
  Result<Served> served = ServeFittedModel(
      args, w, *input, kBatchServeShare * args.seconds, out);
  out->tally.Op(served.ok(), "serving the fitted model");
  if (!served.ok()) return 1;
  phases.Mark("serving");
  double mean_re = 0.0;
  for (double re : query_re) mean_re += re / static_cast<double>(query_re.size());
  out->metrics = {
      {"cpu_s", "s", Median(cpus)},
      {"setup_s", "s", Median(cold.setup_s) + served->setup_s},
      {"peak_rss_mb", "MB", Median(cold.rss) / 1e6},
      {"query_re", "ratio", mean_re},
      {"serve_qps", "1/s", served->windows.qps},
      {"serve_p50_us", "us", served->windows.p50_us},
      {"serve_p99_us", "us", served->windows.p99_us},
  };
  return 0;
}

// Batch workloads, traced: untraced pipeline runs alternate with traced
// ones. table3 replays core::Synthesize's public calls (which is
// what SynthesizeHybrid runs on them); census_hybrid traces the three
// calls of its pipeline and replays a plain fit of the same input for the
// layers SynthesizeHybrid hides.
int TraceBatch(const Args& args, const Workload& w, SpanRecorder* rec,
               Outcome* out) {
  Result<InputInfo> info = PrepareInChild(args);
  if (!info.ok()) return 1;
  out->input = *info;
  const std::string output = args.workdir + "/output.csv";
  const std::string traced_output = args.workdir + "/traced.csv";
  const PipelineRun ref = RunPipeline(w, InputPath(args), output,
                                   ReleaseSeed(args.seed, 0));
  const std::string problem = CheckPipelineRun(w, ref);
  out->tally.Op(problem.empty(), problem);
  if (!problem.empty()) return 1;
  Result<data::Table> input = data::ReadCsv(InputPath(args));
  if (!input.ok()) return 1;

  std::vector<double> untraced_s;
  std::vector<double> synthesize_s;
  std::vector<double> traced_s;
  std::vector<double> unattributed_s;
  SelfTimes pipeline_self;
  SelfTimes fit_self;
  Replay fit;
  const Clock::time_point start = Clock::now();
  for (int run = 1; run <= 2 || Since(start) < args.seconds; ++run) {
    const PipelineRun u = RunPipeline(w, InputPath(args), output,
                                   ReleaseSeed(args.seed, 0));
    std::string p = CheckPipelineRun(w, u);
    if (p.empty() && !SameTable(u.synthetic, ref.synthetic)) {
      p = "pipeline: release differs from the reference run's at one seed";
    }
    out->tally.Op(p.empty(), p);
    untraced_s.push_back(u.wall_s);
    synthesize_s.push_back(u.synthesize_s);

    int root = -1;
    if (w.census) {
          SpanScope span(rec, "run", "pipeline", run);
      root = span.id();
      Rng rng(ReleaseSeed(args.seed, 0));
      Result<data::Table> table =
          Traced(rec, "data", "data.ReadCsv", run,
                 [&] { return data::ReadCsv(InputPath(args)); });
      if (!table.ok()) return 1;
      Result<core::HybridResult> result =
          Traced(rec, "core", "core.SynthesizeHybrid", run, [&] {
            return core::SynthesizeHybrid(*table, PipelineOptions(w), &rng);
          });
      const bool ok = result.ok() &&
                      Traced(rec, "data", "data.WriteCsv", run, [&] {
                        return data::WriteCsv(result->synthetic,
                                              traced_output);
                      }).ok();
      out->tally.Op(ok && SameTable(result->synthetic, ref.synthetic),
                    "traced pipeline release differs");
    } else {
      fit = ReplaySynthesize(w, nullptr, InputPath(args), traced_output,
                             args.seed, rec, run, "pipeline");
      root = fit.root;
    }
    traced_s.push_back(rec->DurationSeconds(root));
    pipeline_self.push_back(rec->SelfByName(run, root));
    unattributed_s.push_back(u.wall_s - SumSelf(pipeline_self.back()));
    if (w.census) {
      fit = ReplaySynthesize(w, &*input, "", "", args.seed, rec, run,
                             "model_fit");
      fit_self.push_back(rec->SelfByName(run, fit.root));
    } else {
      fit_self.push_back(pipeline_self.back());
      out->tally.Check(SameTable(fit.synthetic, ref.synthetic),
                       "replayed release differs from the pipeline's");
    }
    out->tally.Op(fit.status.ok() && BudgetExact(fit.spent, fit.total,
                                                 w.epsilon),
                  "replay: charged epsilon != epsilon");
    if (!fit.status.ok()) return 1;
  }

  std::vector<Metric>& m = out->metrics;
  AddFitAndIoMetrics(fit_self, pipeline_self, fit,
                     static_cast<double>(info->bytes),
                     static_cast<double>(FileBytes(output)), &m);
  m.push_back({"core.hybrid_s", "s", Median(synthesize_s)});
  m.push_back({"core.hybrid_partitions", "count",
               static_cast<double>(ref.partitions)});
  m.push_back({"core.hybrid_degraded", "count",
               static_cast<double>(ref.degraded)});
  m.push_back({"dp.charges", "count", static_cast<double>(ref.charges)});
  m.push_back({"dp.epsilon_spent", "eps", ref.spent});

  // The fitted model, served by a probe server.
  const std::string model_path = args.workdir + "/probe-model.txt";
  if (!core::SaveModel(fit.model, model_path).ok()) return 1;
  const CpuPin pin(kServeCpus);
  ClientTally tally;
  Result<StartedServer> started = StartServer(model_path, &tally);
  out->tally.Op(started.ok(), "probe server set-up");
  if (!started.ok()) return 1;
  ProbeServedModel(fit.model, args, started->server->port(), rec, 0,
                   &out->tally, &tally, &m);
  const std::string mismatch = CheckServerStats(*started->server, tally);
  out->tally.Op(mismatch.empty(), mismatch);
  AddServeCounters(*started->server, &m);
  started->server->Shutdown();

  m.push_back({"trace.unattributed_s", "s", Median(unattributed_s)});
  m.push_back(
      {"trace.overhead_s", "s", Median(traced_s) - Median(untraced_s)});
  return 0;
}

void PrintResult(const Args& args, const Outcome& out) {
  std::printf("workload %s seed %" PRIu64 " trace %d seconds %g\n",
              args.workload.c_str(), args.seed, args.trace, args.seconds);
  std::printf("fingerprint %s\n", Fingerprint(args).c_str());
  std::printf("input rows %zu bytes %" PRId64 "\n", out.input.rows,
              out.input.bytes);
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("metric %-28s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : out.tally.failures) {
    std::printf("failure %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.tally.failed == 0 ? "true" : "false", out.tally.attempted,
              out.tally.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  g_self = argv[0];
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) || !FindWorkload(args.workload, &w)) {
    std::fprintf(stderr,
                 "usage: e2e_bench run|prepare|cold --workload "
                 "table3|census_hybrid --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  if (args.mode == "prepare") return Prepare(args, w);
  if (args.mode == "cold") return Cold(args, w);
  if (args.mode != "run") return 2;

  Outcome out;
  SpanRecorder rec;
  int rc = 0;
  if (args.trace == 0) {
    rc = RunBatch(args, w, &out);
  } else {
    rc = TraceBatch(args, w, &rec, &out);
    if (rc == 0 && !args.spans_path.empty() && !rec.WriteJson(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
    }
  }
  for (const std::string& f : out.tally.failures) {
    std::fprintf(stderr, "failure: %s\n", f.c_str());
  }
  if (rc != 0) {
    std::fprintf(stderr, "e2e_bench: %s run aborted\n", args.workload.c_str());
    return rc;
  }
  std::fflush(stderr);
  PrintResult(args, out);
  return 0;
}
