// Plain-text table and CSV rendering for the bench harness.
//
// Every bench binary prints the rows/series of one table or figure from the
// paper. TextTable renders an aligned ASCII table; CsvWriter emits the same
// data machine-readably (one figure series per block).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace pqs::util {

// An aligned, pipe-separated text table. Cells are strings; numeric helpers
// format with fixed precision. Column widths are computed at render time.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  // Starts a new row. Subsequent cell() calls append to it.
  TextTable& row();
  TextTable& cell(std::string_view text);
  TextTable& cell(long long value);
  TextTable& cell(unsigned long long value);
  TextTable& cell(long value);
  TextTable& cell(int value);
  TextTable& cell(std::size_t value);
  // Fixed-point with `precision` fractional digits.
  TextTable& cell(double value, int precision = 3);
  // Scientific notation (for probabilities spanning many decades).
  TextTable& cell_sci(double value, int precision = 3);

  // Renders with a header rule. `indent` spaces prefix every line.
  std::string render(int indent = 0) const;
  void print(std::ostream& os, int indent = 0) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Minimal CSV emission: header row then data rows; values quoted only when
// needed. Used by benches so figures can be re-plotted externally.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  CsvWriter& row(const std::vector<std::string>& cells);
  std::string str() const;

 private:
  static std::string escape(const std::string& s);
  std::string out_;
  std::size_t columns_;
};

// Formats a double in fixed precision (helper shared with benches).
std::string fixed(double value, int precision);
// Formats a double in scientific notation.
std::string sci(double value, int precision = 3);

// Prints a section banner used by bench binaries, e.g.
//   ==== Table 2: Properties of Various Quorum Systems ====
void banner(std::ostream& os, std::string_view title);

}  // namespace pqs::util
