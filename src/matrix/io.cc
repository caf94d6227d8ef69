#include "src/matrix/io.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace triclust {

void AppendDenseRow(const double* values, size_t n, std::string* line) {
  for (size_t j = 0; j < n; ++j) {
    if (j > 0) line->push_back(' ');
    AppendDouble17g(values[j], line);
  }
  line->push_back('\n');
}

void WriteDenseMatrix(const DenseMatrix& matrix, std::ostream* os) {
  TRICLUST_CHECK(os != nullptr);
  std::string line = std::to_string(matrix.rows()) + " " +
                     std::to_string(matrix.cols()) + "\n";
  os->write(line.data(), static_cast<std::streamsize>(line.size()));
  for (size_t i = 0; i < matrix.rows(); ++i) {
    line.clear();
    AppendDenseRow(matrix.Row(i), matrix.cols(), &line);
    os->write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

Result<DenseMatrix> ReadDenseMatrix(std::istream* is) {
  TRICLUST_CHECK(is != nullptr);
  std::string header;
  if (!std::getline(*is, header)) {
    return Status::ParseError("missing matrix header");
  }
  const auto dims = SplitWhitespace(header);
  size_t rows = 0;
  size_t cols = 0;
  if (dims.size() != 2 || !ParseSizeT(dims[0], &rows) ||
      !ParseSizeT(dims[1], &cols)) {
    return Status::ParseError("malformed matrix header: " + header);
  }
  if (cols != 0 && rows > std::numeric_limits<size_t>::max() / cols) {
    return Status::ParseError("matrix header overflows: " + header);
  }
  // The header is untrusted: storage grows with the rows actually read,
  // so a huge declared row count costs nothing until its rows exist.
  std::vector<double> values;
  std::string line;
  for (size_t i = 0; i < rows; ++i) {
    if (!std::getline(*is, line)) {
      return Status::ParseError("matrix truncated at row " +
                                std::to_string(i));
    }
    const auto fields = SplitWhitespace(line);
    if (fields.size() != cols) {
      return Status::ParseError("row " + std::to_string(i) + " has " +
                                std::to_string(fields.size()) +
                                " fields, want " + std::to_string(cols));
    }
    for (size_t j = 0; j < cols; ++j) {
      double value = 0.0;
      if (!ParseDouble(fields[j], &value)) {
        return Status::ParseError("bad value at (" + std::to_string(i) +
                                  "," + std::to_string(j) + ")");
      }
      values.push_back(value);
    }
  }
  return DenseMatrix(rows, cols, std::move(values));
}

}  // namespace triclust
