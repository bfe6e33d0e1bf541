// Shared pieces of the planner benchmark: run arguments, the metric report
// printed as the last stdout line, order statistics, and the in-memory span
// log that the traced runs record around calls into the library.

#ifndef PLANBENCH_BENCH_H_
#define PLANBENCH_BENCH_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace planbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans (JSON lines); empty = not written.
  std::string spans_out;
};

// One run's outcome. `metrics` keeps insertion order so the JSON line reads
// in the order the workload reports.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  // First failed output check, printed to stderr (empty when correct).
  std::string failure;

  void Add(const std::string& name, double value, const std::string& unit);
  // Records a failed output check; the run stays reportable but incorrect.
  void Fail(const std::string& what);
  std::string ToJsonLine() const;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Order statistics over a copy of `values` (empty input gives 0).
double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Moves the calling thread to the next CPU it may run on, round-robin, and
// restores the thread's CPU set when destroyed. On a shared host one CPU at
// a time is at times slowed by a neighbour for minutes; a single-threaded run
// that stayed on it would be slow as a whole. Timed operations spread over
// every CPU let a run's median see the same mix of CPUs every time.
//
// A disabled rotation leaves the thread where it is.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// One span: a timed call at a layer boundary. `parent` is the index of the
// enclosing span in the same log (-1 for a root); spans of one request share
// `request`.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  int64_t request = -1;
};

// Spans stay in memory and are written out when the run ends. Not
// thread-safe: each recording thread owns one log, merged with Append().
class SpanLog {
 public:
  int64_t Begin(const char* name, int64_t parent = -1, int64_t request = -1);
  void End(int64_t id);
  void Append(const SpanLog& other);

  // Durations (seconds) of every span called `name`.
  std::vector<double> Durations(const char* name) const;
  // Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Times one call into the library as a span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1,
             int64_t request = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

// The workloads. Each fills `report` and returns false only when the run
// could not be carried out at all (the caller then prints no result).
bool RunSearchWorkload(const Args& args, Report& report);
bool RunServeWorkload(const Args& args, Report& report);

// The layer probes of the traced runs. Every workload's traced run reports
// every per-layer metric: its own layers from its main load, the others
// from a smaller probe on the same kind of input (a search workload's model
// served by a daemon; the search a serve_mix miss runs). `primary` is set
// for the probe that carries the workload's main load; only it reports
// trace.overhead_frac.
bool TraceSearchLayers(const std::string& workload, uint64_t seed,
                       double seconds, bool primary, Report& report,
                       SpanLog& spans);
bool TraceServeLayers(const std::string& workload, uint64_t seed,
                      double seconds, bool primary, Report& report,
                      SpanLog& spans);

}  // namespace planbench

#endif  // PLANBENCH_BENCH_H_
