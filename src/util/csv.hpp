// Minimal CSV reading/writing for traces, profiles, and experiment dumps.
//
// Deliberately small: comma separator and optional '#' comment lines. The
// writer quotes a cell that contains a comma, a quote or a line break (RFC
// 4180; a multi-axis sweep names its rows `base[k1=v1,k2=v2]`). The reader
// splits on every comma and does not unquote: it reads traces, catalogs and
// profiles, whose cells never need quotes. Parsing is strict — malformed
// numeric fields raise std::runtime_error with line context, because silent
// trace corruption would invalidate experiments.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace bml {

/// One parsed CSV table: optional header + rows of string cells.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws std::out_of_range when missing.
  [[nodiscard]] std::size_t column(const std::string& name) const;
};

/// Splits one CSV line on commas and trims surrounding whitespace per cell.
[[nodiscard]] std::vector<std::string> split_csv_line(const std::string& line);

/// Parses CSV text. When `has_header` is true the first non-comment line
/// becomes `header`. Empty and '#'-comment lines are skipped.
[[nodiscard]] CsvTable parse_csv(const std::string& text, bool has_header);

/// Reads and parses a CSV file; throws std::runtime_error if unreadable.
[[nodiscard]] CsvTable read_csv_file(const std::filesystem::path& path,
                                     bool has_header);

/// Strict string->double conversion; throws std::runtime_error with the
/// offending text on failure (NaN/inf text is rejected as well).
[[nodiscard]] double parse_double(const std::string& s);

/// Strict string->int64 conversion; throws std::runtime_error on failure.
[[nodiscard]] std::int64_t parse_int(const std::string& s);

/// Incremental CSV writer.
class CsvWriter {
 public:
  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> cells);
  /// Numeric convenience: formats with enough precision to round-trip.
  void add_row(const std::vector<double>& cells);

  /// The header and rows, one line each, cells quoted as RFC 4180 asks.
  [[nodiscard]] std::string to_string() const;
  void write_file(const std::filesystem::path& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bml
