// Aligned plain-text table printing for the benchmark harness, so every
// bench binary emits the paper's tables/figure series in a uniform format.

#ifndef VQE_COMMON_TABLE_PRINTER_H_
#define VQE_COMMON_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace vqe {

/// Collects rows of string cells and renders them with column alignment.
///
/// Usage:
///   TablePrinter t({"Dataset", "s_sum", "mean"});
///   t.AddRow({"V_nusc", "123.4", "0.81"});
///   t.Print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a data row. Rows shorter than the header are padded with "".
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with a header rule. Numeric-looking cells are
  /// right-aligned; everything else is left-aligned.
  void Print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vqe

#endif  // VQE_COMMON_TABLE_PRINTER_H_
