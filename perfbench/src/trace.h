// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent) on one steady clock whose epoch
// is taken at static initialization, i.e. at process start. Spans are
// kept in memory and written once, when the run ends; nothing is
// recorded when the tracer is disabled, so untraced runs pay one
// branch per span site. The recorder is single-threaded: every span is
// opened and closed on the benchmark's driving thread, and spans the
// program reports through its own stats (queue wait, execution) are
// added with explicit bounds.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// \brief Seconds since process start (steady clock).
double Now();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// \brief Opens a span. `name` must be a string literal (spans keep
  /// the pointer). Returns the span id, or -1 when disabled.
  int Begin(const char* name, int parent = -1);
  /// \brief Closes a span opened by Begin (no-op for id -1).
  void End(int id);
  /// \brief Records a span with caller-measured bounds.
  int Add(const char* name, double start, double end, int parent = -1);

  /// \brief Per-name totals: count, summed duration and summed self
  /// time (duration minus the part covered by child spans).
  struct Summary {
    int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Summary> Summarize() const;

  /// \brief Writes the spans, the per-name summary and `extra_json`
  /// (a JSON object body without braces, may be empty) to `path`.
  bool WriteJson(const std::string& path, const std::string& extra_json) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// \brief Scope guard around Tracer::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
