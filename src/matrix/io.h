#ifndef TRICLUST_SRC_MATRIX_IO_H_
#define TRICLUST_SRC_MATRIX_IO_H_

#include <istream>
#include <ostream>
#include <string>

#include "src/matrix/dense_matrix.h"
#include "src/util/status.h"

namespace triclust {

/// Text (de)serialization of dense matrices, used by the online solver's
/// checkpointing and available for exporting factor matrices. Format: one
/// header line `rows cols`, then one row per line, each value formatted
/// as printf("%.17g") would (17 significant digits round-trip every
/// double exactly; docs/FORMATS.md §2).
///
/// Writing is on the serving path — every campaign is checkpointed once
/// per served day — so values go through AppendDouble17g
/// (src/util/string_util.h), the to_chars formatter that is byte-identical
/// to %.17g, and each row reaches the stream in one write.
void WriteDenseMatrix(const DenseMatrix& matrix, std::ostream* os);

/// Appends the `n` values as one text row of the format above — values
/// separated by single spaces, terminated by '\n' — to `line`. Shared by
/// every writer of the checkpoint format so their bytes cannot drift.
void AppendDenseRow(const double* values, size_t n, std::string* line);

/// Reads a matrix written by WriteDenseMatrix. Returns ParseError on
/// malformed input, including a header whose rows·cols overflows; storage
/// grows only with rows actually present, so a lying header cannot force
/// a huge allocation.
Result<DenseMatrix> ReadDenseMatrix(std::istream* is);

}  // namespace triclust

#endif  // TRICLUST_SRC_MATRIX_IO_H_
