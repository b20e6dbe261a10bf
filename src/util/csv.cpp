#include "util/csv.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bml {

namespace {

std::string trim(const std::string& s) {
  auto begin = s.begin();
  auto end = s.end();
  while (begin != end && std::isspace(static_cast<unsigned char>(*begin)))
    ++begin;
  while (end != begin && std::isspace(static_cast<unsigned char>(*(end - 1))))
    --end;
  return std::string(begin, end);
}

/// RFC 4180: a cell holding a comma, a quote or a line break is written
/// quoted, with each inner quote doubled; any other cell is written as is.
void write_cell(std::ostream& os, const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) {
    os << cell;
    return;
  }
  os << '"';
  for (const char c : cell) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

std::size_t CsvTable::column(const std::string& name) const {
  const auto it = std::find(header.begin(), header.end(), name);
  if (it == header.end())
    throw std::out_of_range("CsvTable: no column named '" + name + "'");
  return static_cast<std::size_t>(it - header.begin());
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(trim(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  cells.push_back(trim(current));
  return cells;
}

CsvTable parse_csv(const std::string& text, bool has_header) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  bool header_pending = has_header;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    auto cells = split_csv_line(t);
    if (header_pending) {
      table.header = std::move(cells);
      header_pending = false;
    } else {
      table.rows.push_back(std::move(cells));
    }
  }
  return table;
}

CsvTable read_csv_file(const std::filesystem::path& path, bool has_header) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("read_csv_file: cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_csv(buffer.str(), has_header);
}

double parse_double(const std::string& s) {
  const std::string t = s;
  double value = 0.0;
  const char* begin = t.data();
  const char* end = t.data() + t.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value))
    throw std::runtime_error("parse_double: bad numeric field '" + s + "'");
  return value;
}

std::int64_t parse_int(const std::string& s) {
  std::int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end)
    throw std::runtime_error("parse_int: bad integer field '" + s + "'");
  return value;
}

void CsvWriter::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void CsvWriter::add_row(const std::vector<double>& cells) {
  std::vector<std::string> out;
  out.reserve(cells.size());
  for (double v : cells) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    out.push_back(os.str());
  }
  add_row(std::move(out));
}

std::string CsvWriter::to_string() const {
  std::ostringstream os;
  auto emit = [&os](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << ',';
      write_cell(os, cells[i]);
    }
    os << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void CsvWriter::write_file(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("CsvWriter: cannot open " + path.string());
  out << to_string();
}

}  // namespace bml
