#include "common/table_printer.h"

#include <algorithm>
#include <cctype>

namespace vqe {
namespace {

bool LooksNumeric(const std::string& s) {
  if (s.empty()) return false;
  bool digit_seen = false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit_seen = true;
    } else if (c != '.' && c != '-' && c != '+' && c != 'e' && c != 'E' &&
               c != '%' && c != ',') {
      return false;
    }
  }
  return digit_seen;
}

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto emit_row = [&](const std::vector<std::string>& row, bool align_num) {
    os << "|";
    for (size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : header_[c];
      const size_t pad = widths[c] - cell.size();
      os << ' ';
      if (align_num && LooksNumeric(cell)) {
        os << std::string(pad, ' ') << cell;
      } else {
        os << cell << std::string(pad, ' ');
      }
      os << " |";
    }
    os << '\n';
  };

  emit_row(header_, /*align_num=*/false);
  os << "|";
  for (size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row, /*align_num=*/true);
}

}  // namespace vqe
