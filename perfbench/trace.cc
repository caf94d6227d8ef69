#include "perfbench/trace.h"

#include <algorithm>
#include <fstream>
#include <limits>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  // Spans close in LIFO order on the one caller thread.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> Tracer::TotalsUnder(int root) const {
  std::map<std::string, double> totals;
  if (root < 0) return totals;
  // Children are recorded after their parent; walk each later span's
  // parent chain until it reaches the root or leaves the root's subtree.
  // A root that is still open covers every span recorded so far.
  const bool open = std::find(open_.begin(), open_.end(), root) != open_.end();
  const int64_t root_end = open ? std::numeric_limits<int64_t>::max()
                                : spans_[static_cast<size_t>(root)].end_ns;
  for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
    if (spans_[i].start_ns > root_end) break;
    int p = spans_[i].parent;
    while (p > root) p = spans_[static_cast<size_t>(p)].parent;
    if (p == root) totals[spans_[i].name] += spans_[i].ms();
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  // Compact form: span names are interned into "names", and each span is
  // [name index, start ns, end ns, parent span index or -1].
  std::map<std::string, size_t> name_ids;
  std::vector<const std::string*> names;
  for (const SpanRecord& s : spans_) {
    if (name_ids.emplace(s.name, names.size()).second) {
      names.push_back(&s.name);
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"format\": \"perfbench-spans/1\",\n\"fields\": [\"name\", "
         "\"start_ns\", \"end_ns\", \"parent\"],\n\"names\": [";
  for (size_t i = 0; i < names.size(); ++i) {
    out << (i ? ", " : "") << '"' << *names[i] << '"';
  }
  out << "],\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "[" << name_ids[s.name] << "," << s.start_ns << "," << s.end_ns
        << "," << s.parent << "]" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
