// Shared helpers of the benchmark driver: the run record (checks,
// metrics, notes), the benchmark-owned span tracer, order statistics,
// and a scraper for the serve protocol's METRICS dump.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one run reports: the correctness tally, the metrics the
/// benchmark contract names, and free-form notes (workload-specific
/// numbers and input sizes) that are printed but not compared.
struct Record {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few messages
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> notes;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  template <typename T>
  void Note(const std::string& name, T value) {
    std::ostringstream out;
    out.precision(6);
    out << value;
    notes[name] = out.str();
  }

  std::string ToJson() const {
    std::ostringstream out;
    out.precision(10);
    out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i) {
      out << (i ? ", " : "") << Quote(failures[i]);
    }
    out << "], \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : metrics) {
      out << (first ? "" : ", ") << Quote(name) << ": {\"value\": "
          << (std::isfinite(vu.first) ? vu.first : -1.0)
          << ", \"unit\": " << Quote(vu.second) << "}";
      first = false;
    }
    out << "}, \"notes\": {";
    first = true;
    for (const auto& [name, value] : notes) {
      out << (first ? "" : ", ") << Quote(name) << ": " << Quote(value);
      first = false;
    }
    out << "}}";
    return out.str();
  }

  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return q + "\"";
  }
};

/// Nearest-rank percentile (q in [0, 100]) of `v`; 0 when empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 50.0);
}

/// The highest of p99.9/p99/p95/p90 that has at least ten samples above
/// it, as "p99=<value>" style text; "n/a" when even p90 has fewer.
inline std::string TailText(const std::vector<double>& v, double scale,
                            const char* unit) {
  for (double q : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(v.size()) * (100.0 - q) / 100.0 >= 10.0) {
      std::ostringstream out;
      out.precision(6);
      out << "p" << q << "=" << Percentile(v, q) * scale << unit
          << " (n=" << v.size() << ")";
      return out.str();
    }
  }
  return "n/a (n=" + std::to_string(v.size()) + ")";
}

/// Benchmark-owned span recorder: name, start, end and parent of each
/// call the driver makes into a layer's public functions. Spans stay in
/// memory and are written out at the end. A disabled tracer records
/// nothing and costs one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  bool on = false;

  int Begin(const char* name) {
    if (!on) return -1;
    spans_.push_back({name, NowNs(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }
  size_t size() const { return spans_.size(); }

  /// Self seconds (duration minus the part covered by child spans) per
  /// span name, over spans [from, size()).
  std::map<std::string, double> SelfSeconds(size_t from = 0) const {
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      self[i] += d;
      if (s.parent >= static_cast<int>(from)) {
        self[static_cast<size_t>(s.parent)] -= d;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = from; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i];
    }
    return out;
  }

  /// Writes the spans as a JSON array; false on I/O failure.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~SpanScope() { tracer_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Sums of the sample lines of a Prometheus text dump (the METRICS
/// verb's reply) whose metric name starts with `prefix` and whose label
/// set contains every `needle` (e.g. `stage="relearn"`). Quantile lines
/// are skipped, so a `_sum`/`_count` prefix sums across shards.
inline double ScrapeSum(const std::string& dump, const std::string& prefix,
                        const std::vector<std::string>& needles = {}) {
  double total = 0.0;
  std::istringstream in(dump);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const char next = key.size() > prefix.size() ? key[prefix.size()] : ' ';
    if (next != '{' && next != ' ') continue;
    if (key.find("quantile=") != std::string::npos) continue;
    bool match = true;
    for (const std::string& needle : needles) {
      match = match && key.find(needle) != std::string::npos;
    }
    if (match) total += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return total;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
