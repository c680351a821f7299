// Shared helpers of perfbench: order statistics, the in-memory
// span trace, mapping checks and the flat JSON metric writer.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Mean of `v` without its lowest and highest fifth (at least one value each
// side from five values on); 0 if empty. Unlike the median it moves smoothly
// when a machine that alternates between two speeds spends more or less of
// the run in one of them.
inline double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 5;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// The tail latency of `v`: the highest of p99.9/p99/p95/p90 that still has
// at least 10 samples beyond it (nearest rank), else the maximum. Reports
// how many samples lie beyond the chosen rank in *beyond and the percentile
// in *percentile (100 for the maximum).
inline double Tail(std::vector<double> v, int* beyond, double* percentile) {
  *beyond = 0;
  *percentile = 100.0;
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (double q : {0.999, 0.99, 0.95, 0.90}) {
    const size_t rank = static_cast<size_t>(std::ceil(q * n));  // 1-based.
    if (rank >= 1 && v.size() - rank >= 10) {
      *beyond = static_cast<int>(v.size() - rank);
      *percentile = 100.0 * q;
      return v[rank - 1];
    }
  }
  return v.back();
}

// FNV-1a over the mapping, the digest the thread-invariance and
// served-vs-in-process checks compare.
inline uint64_t MappingDigest(const std::vector<int>& mapping) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(mapping.size());
  for (int m : mapping) mix(static_cast<uint64_t>(static_cast<int64_t>(m)));
  return h;
}

// Empty when `mapping` is a valid alignment of an n1-node graph onto an
// n2-node graph: one entry per g1 node, every entry in [0, n2) or -1 when
// `allow_unmatched`, and no target used twice when `injective`. Otherwise
// a one-line reason.
inline std::string CheckMapping(const std::vector<int>& mapping, int n1,
                                int n2, bool injective, bool allow_unmatched) {
  if (static_cast<int>(mapping.size()) != n1) {
    return "mapping has " + std::to_string(mapping.size()) +
           " entries for " + std::to_string(n1) + " nodes";
  }
  std::vector<char> used(static_cast<size_t>(std::max(n2, 0)), 0);
  for (int u = 0; u < n1; ++u) {
    const int v = mapping[u];
    if (v == -1 && allow_unmatched) continue;
    if (v < 0 || v >= n2) {
      return "node " + std::to_string(u) + " maps out of range to " +
             std::to_string(v);
    }
    if (injective && used[v]++) {
      return "target " + std::to_string(v) + " matched twice";
    }
  }
  return "";
}

// Node correctness against the ground truth: the fraction of g1 nodes
// mapped to their true counterpart (truth[u] = node of g2).
inline double NodeCorrectness(const std::vector<int>& mapping,
                              const std::vector<int>& truth) {
  if (truth.empty()) return 0.0;
  int64_t hits = 0;
  const size_t n = std::min(mapping.size(), truth.size());
  for (size_t u = 0; u < n; ++u) hits += (mapping[u] == truth[u]);
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

// In-memory span trace. A Scope records (name, start, end, parent, id)
// around one public call when tracing is on and costs one branch when it is
// off. Spans are kept until the run ends and written out by WriteJson.
class Trace {
 public:
  struct Span {
    std::string name;
    std::string id;  // Pair/request id the call belongs to.
    double start = 0.0, end = 0.0;  // Seconds since the trace origin.
    int parent = -1;
  };

  explicit Trace(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }
  double Now() const { return SecondsSince(origin_); }

  class Scope {
   public:
    Scope(Trace* trace, const char* name, const std::string& id)
        : trace_(trace != nullptr && trace->on_ ? trace : nullptr) {
      if (trace_ == nullptr) return;
      index_ = static_cast<int>(trace_->spans_.size());
      trace_->spans_.push_back(
          {name, id, trace_->Now(), 0.0, trace_->current_});
      trace_->current_ = index_;
    }
    ~Scope() {
      if (trace_ == nullptr) return;
      trace_->spans_[index_].end = trace_->Now();
      trace_->current_ = trace_->spans_[index_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  // Records a finished span timed elsewhere, such as a served request timed
  // on a client thread.
  void Add(const std::string& name, const std::string& id, double start,
           double end) {
    if (on_) spans_.push_back({name, id, start, end, -1});
  }

  // Self time per span name: each span's duration minus its children's.
  std::map<std::string, double> SelfSeconds() const {
    std::map<std::string, double> self;
    for (const Span& s : spans_) self[s.name] += s.end - s.start;
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[spans_[s.parent].name] -= s.end - s.start;
    }
    return self;
  }

  // Seconds of [t0, t1] covered by at least one span whose name is in
  // `names` (the union of intervals, so concurrent spans count once).
  double Covered(const std::vector<std::string>& names, double t0,
                 double t1) const {
    std::vector<std::pair<double, double>> iv;
    for (const Span& s : spans_) {
      if (std::find(names.begin(), names.end(), s.name) == names.end()) {
        continue;
      }
      const double a = std::max(s.start, t0), b = std::min(s.end, t1);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    return covered;
  }

  bool WriteJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":\"%s\",\"start\":%.9f,"
                   "\"end\":%.9f,\"parent\":%d}%s\n",
                   s.name.c_str(), s.id.c_str(), s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// Ordered (name -> value, unit) metrics of one run.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }

  // {"name": {"value": v, "unit": "u"}, ...} with full precision.
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(items_[i].value) ? items_[i].value : 0.0);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
