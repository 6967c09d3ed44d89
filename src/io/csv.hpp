// Minimal CSV writing (RFC-4180 quoting) for experiment data exports.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace pfair {

/// Quotes a field if it contains a comma, quote or newline.
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Accumulates rows as one flat, already-escaped text buffer and writes
/// them to a stream or file.  Once a header is set, every row must have
/// its width.
class CsvWriter {
 public:
  CsvWriter& header(const std::vector<std::string>& cols);
  CsvWriter& row(const std::vector<std::string>& cols);

  /// Appends one row of typed cells: integers go in through to_chars,
  /// strings are quoted only when they need it.  Nothing is allocated
  /// beyond the text buffer's growth.
  template <class... Cells>
  CsvWriter& append_row(const Cells&... cells) {
    check_width(sizeof...(Cells));
    bool first = true;
    ((first ? void(first = false) : text_.push_back(','), put(cells)), ...);
    text_.push_back('\n');
    ++rows_;
    return *this;
  }

  void write(std::ostream& os) const;
  /// Writes to `path`, throwing ContractViolation on I/O failure.
  void write_file(const std::string& path) const;

  [[nodiscard]] std::size_t rows() const { return rows_; }

 private:
  void check_width(std::size_t cols) const;
  void put(std::string_view field);
  template <std::integral I>
    requires(!std::same_as<I, bool>)
  void put(I v) {
    char buf[24];
    text_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }

  std::string header_;  // escaped header line, '\n'-terminated; or empty
  std::size_t width_ = 0;  // header width; 0 = unchecked
  std::string text_;    // escaped rows, each '\n'-terminated
  std::size_t rows_ = 0;
};

}  // namespace pfair
