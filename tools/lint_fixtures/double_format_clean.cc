// Golden clean fixture for the double-format rule: the helper, other
// precisions, mentions of %.17g in comments, and a waived deliberate
// exception.
#include <cstdio>
#include <string>

#include "src/util/string_util.h"

namespace triclust {

// Byte-identical to printf("%.17g") — a comment may name the format.
std::string FastCell(double value) {
  std::string out;
  AppendDouble17g(value, &out);
  return out;
}

/* Block comments may name it too:
   "%.17g". */
std::string ShortCell(double value) { return StrFormat("%.6g", value); }

std::string WaivedCell(double value) {
  // lint-allow(double-format): exercising the waiver syntax in the self-test
  return StrFormat("%.17g", value);
}

}  // namespace triclust
