#include "io/csv.hpp"

#include <fstream>
#include <ostream>

#include "core/assert.hpp"

namespace pfair {

namespace {

void append_escaped(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void append_line(std::string& out, const std::vector<std::string>& cols) {
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_escaped(out, cols[i]);
  }
  out.push_back('\n');
}

}  // namespace

std::string csv_escape(const std::string& field) {
  std::string out;
  append_escaped(out, field);
  return out;
}

CsvWriter& CsvWriter::header(const std::vector<std::string>& cols) {
  header_.clear();
  if (!cols.empty()) append_line(header_, cols);
  width_ = cols.size();
  return *this;
}

CsvWriter& CsvWriter::row(const std::vector<std::string>& cols) {
  check_width(cols.size());
  append_line(text_, cols);
  ++rows_;
  return *this;
}

void CsvWriter::check_width(std::size_t cols) const {
  if (width_ != 0) {
    PFAIR_REQUIRE(cols == width_, "CSV row width " << cols
                                                   << " != header width "
                                                   << width_);
  }
}

void CsvWriter::put(std::string_view field) { append_escaped(text_, field); }

void CsvWriter::write(std::ostream& os) const {
  os.write(header_.data(), static_cast<std::streamsize>(header_.size()));
  os.write(text_.data(), static_cast<std::streamsize>(text_.size()));
}

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream f(path);
  PFAIR_REQUIRE(f.good(), "cannot open " << path << " for writing");
  write(f);
  f.flush();
  PFAIR_REQUIRE(f.good(), "write to " << path << " failed");
}

}  // namespace pfair
