#pragma once
// Shared plumbing for the perfbench workloads: clocks, order statistics,
// the benchmark-side span recorder, the metric report and its JSON line,
// byte-exact matrix comparison, and process memory readings.
//
// Everything here sits OUTSIDE the library: the workloads only call the
// library's public functions and time those calls from the outside.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sparse/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

// ------------------------------------------------------------------ spans

/// Benchmark-side trace: one span per public call the workload makes.
/// Each span has a name, start, end and parent; the spans of one serving
/// request share its ticket id. Spans are kept in memory and written out
/// once, at the end of the run.
class Spans {
 public:
  static constexpr std::int32_t kNoParent = -1;

  void set_on(bool on) { on_ = on; }

  /// Open a span starting now (or at `t0_ns`); returns its index, or
  /// kNoParent when recording is off.
  std::int32_t open(const char* name, std::uint64_t id,
                    std::int32_t parent = kNoParent, std::int64_t t0_ns = 0) {
    if (!on_) return kNoParent;
    spans_.push_back({name, id, parent, t0_ns ? t0_ns : now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void set_id(std::int32_t idx, std::uint64_t id) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].id = id;
  }
  void close(std::int32_t idx, std::int64_t t1_ns = 0) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].t1 = t1_ns ? t1_ns : now_ns();
  }

  /// Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> d;
    for (const auto& s : spans_) {
      if (name == s.name) d.push_back(s.seconds());
    }
    return d;
  }

  struct Span {
    const char* name;
    std::uint64_t id;
    std::int32_t parent;
    std::int64_t t0, t1;
    double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
  };
  const std::vector<Span>& all() const { return spans_; }

  /// Chrome trace-event JSON, one complete event per span (ticket id as
  /// "tid", so each request renders as its own row).
  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.id
         << ",\"ts\":" << static_cast<double>(s.t0 - base) * 1e-3
         << ",\"dur\":" << static_cast<double>(s.t1 - s.t0) * 1e-3
         << ",\"args\":{\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class SpanScope {
 public:
  SpanScope(Spans& s, const char* name, std::uint64_t id = 0,
            std::int32_t parent = Spans::kNoParent)
      : s_(s), idx_(s.open(name, id, parent)) {}
  ~SpanScope() { s_.close(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::int32_t index() const { return idx_; }

 private:
  Spans& s_;
  std::int32_t idx_;
};

// ----------------------------------------------------------------- report

/// The run's outcome: named metrics with units, plus the correctness
/// tallies. `json_line()` is the run's last line of output.
struct Report {
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + refused + wrong answers
  std::vector<std::string> notes;  ///< first few failure descriptions

  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, unit, value});
  }
  void fail(const std::string& why) {
    ++failed;
    if (notes.size() < 8) notes.push_back(why);
  }
  bool correct() const { return failed == 0 && attempted > 0; }

  static std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }

  std::string json_line(const std::vector<std::string>& keys) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& k : keys) {
      for (const auto& m : metrics) {
        if (m.name != k) continue;
        os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
           << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
      }
    }
    os << "}}";
    return os.str();
  }
};

// ------------------------------------------------------------ comparisons

/// Byte-exact equality of two matrices' logical contents: same shape and,
/// row by row over the non-empty rows, identical row ids, column ids and
/// value bytes (memcmp). Storage format does not matter.
template <typename T>
bool same_bytes(const hyperspace::sparse::Matrix<T>& a,
                const hyperspace::sparse::Matrix<T>& b) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols() || a.nnz() != b.nnz()) {
    return false;
  }
  const auto va = a.view();
  const auto vb = b.view();
  std::size_t ia = 0, ib = 0;
  for (;;) {
    while (ia < va.row_ids.size() && va.row_cols(ia).empty()) ++ia;
    while (ib < vb.row_ids.size() && vb.row_cols(ib).empty()) ++ib;
    const bool ea = ia == va.row_ids.size(), eb = ib == vb.row_ids.size();
    if (ea || eb) return ea && eb;
    if (va.row_ids[ia] != vb.row_ids[ib]) return false;
    const auto ca = va.row_cols(ia), cb = vb.row_cols(ib);
    const auto xa = va.row_vals(ia), xb = vb.row_vals(ib);
    if (ca.size() != cb.size() ||
        std::memcmp(ca.data(), cb.data(), ca.size_bytes()) != 0 ||
        std::memcmp(xa.data(), xb.data(), xa.size_bytes()) != 0) {
      return false;
    }
    ++ia;
    ++ib;
  }
}

// ----------------------------------------------------------------- memory

/// A /proc/self/status field in kB (VmHWM = peak RSS, VmRSS = current).
inline double status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr);
    }
  }
  return 0.0;
}

inline double peak_rss_mb() { return status_kb("VmHWM") / 1024.0; }
inline double rss_kb() { return status_kb("VmRSS"); }

// ------------------------------------------------------------------- args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

}  // namespace perfbench
