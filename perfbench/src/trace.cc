#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

int Tracer::Begin(const char* name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, Now(), -1, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now();
}

int Tracer::Add(const char* name, double start, double end, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start, end, parent});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  // Child intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = std::max(0.0, s.end - s.start);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    Summary& sum = out[s.name];
    sum.count += 1;
    sum.total_s += dur;
    sum.self_s += std::max(0.0, dur - covered);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& extra_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{");
  if (!extra_json.empty()) std::fprintf(f, "%s,\n", extra_json.c_str());
  std::fprintf(f, "\"self_times\": {");
  bool first = true;
  for (const auto& [name, s] : Summarize()) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %lld, \"total_s\": %.9g, "
                 "\"self_s\": %.9g}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(s.count), s.total_s, s.self_s);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  [%zu, \"%s\", %.9f, %.9f, %d]", i ? "," : "", i,
                 s.name, s.start, s.end, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
