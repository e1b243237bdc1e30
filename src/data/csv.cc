#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <system_error>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace dpcopula::data {

namespace {

/// Size of the read buffer and of the write chunk. The reader grows its
/// buffer only for a line longer than this.
constexpr std::size_t kIoChunkBytes = 64 * 1024;

/// Longest cell WriteCsv emits: a separator plus "-9223372036854775808".
constexpr std::size_t kMaxCellChars = 21;

}  // namespace

Status WriteCsv(const Table& table, const std::string& path) {
  obs::Scope stage(obs::Stage::kCsvWrite);
  return WriteFileAtomic(path, [&](std::ostream& out) -> Status {
    const auto& schema = table.schema();
    std::string header;
    for (std::size_t j = 0; j < schema.num_attributes(); ++j) {
      if (j) header += ',';
      header += schema.attribute(j).name;
    }
    header += '\n';
    out.write(header.data(), static_cast<std::streamsize>(header.size()));

    std::vector<char> chunk(kIoChunkBytes);
    char* const chunk_end = chunk.data() + chunk.size();
    char* pos = chunk.data();
    auto flush = [&] {
      out.write(chunk.data(), pos - chunk.data());
      pos = chunk.data();
    };
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      for (std::size_t j = 0; j < table.num_columns(); ++j) {
        if (chunk_end - pos < static_cast<std::ptrdiff_t>(kMaxCellChars)) {
          flush();
        }
        if (j) *pos++ = ',';
        pos = std::to_chars(pos, chunk_end,
                            static_cast<long long>(
                                std::llround(table.column(j)[r])))
                  .ptr;
      }
      if (pos == chunk_end) flush();
      *pos++ = '\n';
    }
    flush();
    if (!out) return Status::IOError("write failed: " + path);
    return Status::OK();
  });
}

namespace {

/// Why one data row failed to parse. Reasons are structural — they never
/// depend on what the offending cells contained.
enum class RowDefect {
  kNone,
  kTooManyCells,
  kTooFewCells,
  kNonNumeric,
  kNonFinite,
  kInjected,
};

const char* RowDefectName(RowDefect defect) {
  switch (defect) {
    case RowDefect::kNone: return "none";
    case RowDefect::kTooManyCells: return "too many cells";
    case RowDefect::kTooFewCells: return "too few cells";
    case RowDefect::kNonNumeric: return "non-numeric cell";
    case RowDefect::kNonFinite: return "non-finite cell";
    case RowDefect::kInjected: return "injected fault (csv.read.row)";
  }
  return "unknown";
}

/// Hands out the lines of a file one at a time through a single
/// kIoChunkBytes buffer: a partial last line is carried to the front
/// before the next fill, so memory stays bounded by the longest line.
class LineReader {
 public:
  explicit LineReader(std::FILE* file) : file_(file), buf_(kIoChunkBytes) {}

  /// The next line, without its '\n' and without one trailing '\r' (so
  /// CRLF files read like LF files). The view is valid until the next
  /// call. False at end of file or on a read error (see error()).
  bool Next(std::string_view* line) {
    for (;;) {
      const char* start = buf_.data() + begin_;
      const std::size_t avail = end_ - begin_;
      const auto* newline =
          static_cast<const char*>(std::memchr(start, '\n', avail));
      std::size_t length = 0;
      if (newline != nullptr) {
        length = static_cast<std::size_t>(newline - start);
        begin_ += length + 1;
      } else if (eof_) {
        if (avail == 0) return false;
        length = avail;
        begin_ = end_;
      } else {
        Fill();
        continue;
      }
      if (length > 0 && start[length - 1] == '\r') --length;
      *line = std::string_view(start, length);
      return true;
    }
  }

  bool error() const { return error_; }

 private:
  void Fill() {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    const std::size_t got =
        std::fread(buf_.data() + end_, 1, buf_.size() - end_, file_);
    end_ += got;
    if (got == 0) {
      eof_ = true;
      error_ = std::ferror(file_) != 0;
    }
  }

  std::FILE* file_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
  bool error_ = false;
};

/// Parses one cell; the whole token must be a number. Leading or trailing
/// blanks, a '+' sign, hex prefixes and trailing text are rejected. An
/// out-of-range literal takes strtod's value (+-HUGE_VAL, or the underflow
/// result), which the tolerant readers then count as non-finite.
bool ParseCell(const char* first, const char* last, double* value) {
  const auto [ptr, ec] = std::from_chars(first, last, *value);
  if (ec == std::errc::invalid_argument || ptr != last) return false;
  if (ec == std::errc::result_out_of_range) {
    *value = std::strtod(std::string(first, last).c_str(), nullptr);
  }
  return true;
}

/// Parses one data row into `cells` (resized to the column count). Cells
/// are the exact comma-separated fields of the line, so "1,2," has three.
/// `check_non_finite` is off for the legacy strict readers, which accept
/// NaN and inf cells.
RowDefect ParseRow(std::string_view line, std::size_t num_columns,
                   std::size_t row_index, bool check_non_finite,
                   std::vector<double>* cells) {
  if (DPC_FAILPOINT_AT("csv.read.row", row_index)) {
    return RowDefect::kInjected;
  }
  const char* cell = line.data();
  const char* const end = cell + line.size();
  std::size_t j = 0;
  RowDefect defect = RowDefect::kNone;
  for (;;) {
    const auto* comma = static_cast<const char*>(
        std::memchr(cell, ',', static_cast<std::size_t>(end - cell)));
    const char* cell_end = comma != nullptr ? comma : end;
    if (j >= num_columns) return RowDefect::kTooManyCells;
    double v = 0.0;
    if (!ParseCell(cell, cell_end, &v)) return RowDefect::kNonNumeric;
    if (check_non_finite && !std::isfinite(v)) {
      defect = RowDefect::kNonFinite;  // Keep scanning for arity defects.
    }
    (*cells)[j++] = v;
    if (comma == nullptr) break;
    cell = comma + 1;
  }
  if (j != num_columns) return RowDefect::kTooFewCells;
  return defect;
}

Result<CsvReadResult> ReadCsvImpl(const std::string& path,
                                  const Schema* schema,
                                  const ReadCsvOptions& options,
                                  bool check_non_finite) {
  obs::Scope stage(obs::Stage::kCsvRead);
  static obs::Counter* const quarantined_counter =
      obs::MetricsRegistry::Global().GetCounter("csv.rows_quarantined");

  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) return Status::IOError("cannot open for read: " + path);
  if (DPC_FAILPOINT("csv.read.open")) {
    return failpoint::InjectedFault("csv.read.open");
  }
  LineReader reader(file.get());

  std::string_view line;
  if (!reader.Next(&line)) {
    if (reader.error()) return Status::IOError("read failed: " + path);
    return Status::IOError("empty file: " + path);
  }
  if (line.empty()) return Status::IOError("no header columns: " + path);
  std::vector<std::string> names;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = line.find(',', pos);
    names.emplace_back(line.substr(pos, comma - pos));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }

  CsvReadStats stats;
  std::vector<std::vector<double>> cols(names.size());
  std::vector<double> cells(names.size());
  std::size_t line_no = 1;
  while (reader.Next(&line)) {
    ++line_no;
    if (line.empty()) continue;
    const RowDefect defect =
        ParseRow(line, names.size(), /*row_index=*/line_no - 2,
                 check_non_finite, &cells);
    if (defect == RowDefect::kNone) {
      for (std::size_t j = 0; j < names.size(); ++j) {
        cols[j].push_back(cells[j]);
      }
      ++stats.rows_kept;
      continue;
    }
    ++stats.bad_rows;
    if (stats.first_bad_line == 0) stats.first_bad_line = line_no;
    switch (defect) {
      case RowDefect::kNone: break;
      case RowDefect::kTooManyCells: ++stats.bad_too_many_cells; break;
      case RowDefect::kTooFewCells: ++stats.bad_too_few_cells; break;
      case RowDefect::kNonNumeric: ++stats.bad_non_numeric; break;
      case RowDefect::kNonFinite: ++stats.bad_non_finite; break;
      case RowDefect::kInjected: ++stats.bad_injected; break;
    }
    if (stats.bad_rows > options.max_bad_rows) {
      return Status::IOError(
          std::string(RowDefectName(defect)) + " at line " +
          std::to_string(line_no) + " (" + std::to_string(stats.bad_rows) +
          " bad rows exceeds max_bad_rows=" +
          std::to_string(options.max_bad_rows) + ")");
    }
    quarantined_counter->Increment();
  }
  if (reader.error()) return Status::IOError("read failed: " + path);
  if (stats.bad_rows > 0) {
    obs::Log(obs::LogLevel::kWarn, "csv.rows_quarantined")
        .Field("path", path)
        .Field("bad_rows", stats.bad_rows)
        .Field("rows_kept", stats.rows_kept)
        .Field("first_bad_line", stats.first_bad_line);
  }

  Schema result_schema;
  if (schema != nullptr) {
    if (schema->num_attributes() != names.size()) {
      return Status::InvalidArgument("schema arity does not match CSV header");
    }
    result_schema = *schema;
  } else {
    std::vector<Attribute> attrs;
    for (std::size_t j = 0; j < names.size(); ++j) {
      double mx = 0.0;
      for (double v : cols[j]) mx = std::max(mx, v);
      // The strict readers keep inf cells; casting one (or any value past
      // int64) to a domain size would be undefined.
      if (!(mx < 0x1p62)) {
        return Status::InvalidArgument(
            "cannot infer a domain for column " + std::to_string(j) +
            ": value out of range");
      }
      attrs.push_back({names[j], static_cast<std::int64_t>(mx) + 1});
    }
    result_schema = Schema(std::move(attrs));
  }

  const std::size_t n = cols[0].size();
  Table table = Table::Zeros(result_schema, n);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    if (cols[j].size() != n) {
      return Status::Internal("ragged column lengths");
    }
    table.mutable_column(j) = std::move(cols[j]);
  }
  CsvReadResult result;
  result.table = std::move(table);
  result.stats = stats;
  return result;
}

/// Legacy strict error shape: the per-defect message without the
/// max_bad_rows suffix, as the pre-tolerant reader produced.
Result<Table> StrictRead(const std::string& path, const Schema* schema) {
  auto result = ReadCsvImpl(path, schema, ReadCsvOptions{},
                            /*check_non_finite=*/false);
  if (!result.ok()) return result.status();
  return std::move(result->table);
}

}  // namespace

Result<Table> ReadCsv(const std::string& path) {
  return StrictRead(path, nullptr);
}

Result<Table> ReadCsvWithSchema(const std::string& path,
                                const Schema& schema) {
  return StrictRead(path, &schema);
}

Result<CsvReadResult> ReadCsvTolerant(const std::string& path,
                                      const ReadCsvOptions& options) {
  return ReadCsvImpl(path, nullptr, options, /*check_non_finite=*/true);
}

Result<CsvReadResult> ReadCsvTolerantWithSchema(
    const std::string& path, const Schema& schema,
    const ReadCsvOptions& options) {
  return ReadCsvImpl(path, &schema, options, /*check_non_finite=*/true);
}

}  // namespace dpcopula::data
