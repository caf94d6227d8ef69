// Golden violation for the double-format rule: a serializer that formats
// doubles through printf-style "%.17g" (one vsnprintf per value) instead
// of AppendDouble17g. Every construct below must be flagged.
#include <cstdio>
#include <string>

#include "src/util/string_util.h"

namespace triclust {

std::string SlowCell(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string SlowRow(double a, double b) {
  return StrFormat("%.17g %.17g\n", a, b);
}

}  // namespace triclust
