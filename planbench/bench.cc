#include "planbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace planbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  if (correct) {
    failure = what;
  }
  correct = false;
}

namespace {

void AppendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void AppendString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
}

}  // namespace

std::string Report::ToJsonLine() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendString(out, metrics[i].name);
    out += ":{\"value\":";
    AppendNumber(out, metrics[i].value);
    out += ",\"unit\":";
    AppendString(out, metrics[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation(bool enabled) {
  CPU_ZERO(&allowed_);
  if (enabled && sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) {
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
}

void CpuRotation::Next() {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  ++next_;
  sched_setaffinity(0, sizeof(one), &one);
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start = NowSeconds();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end = NowSeconds();
}

void SpanLog::Append(const SpanLog& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) {
      span.parent += offset;
    }
    spans_.push_back(span);
  }
}

std::vector<double> SpanLog::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(span.end - span.start);
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%lld,\"request\":%lld}\n",
                  i, s.name, s.start, s.end, static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace planbench
