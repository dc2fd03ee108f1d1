// The benchmark's own spans: name, start, end and the span that caused
// it, recorded around each call the benchmark makes into a library layer.
// Spans stay in memory until write_json() at the end of the run. Only the
// main thread opens spans, so there is no locking.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;  // -1 = a root span
    double start_ms = 0.0;
    double end_ms = 0.0;
    double duration_ms() const { return end_ms - start_ms; }
  };

  /// RAII span; nests under whichever span is open on construction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  /// Self time per span name: each span's duration minus the part its
  /// child spans cover, summed over every span with that name.
  std::map<std::string, double> self_ms() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[s.parent] += s.duration_ms();
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.duration_ms() - child_ms[s.id];
    return out;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"spans\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_ms\": %.6f, \"end_ms\": %.6f}%s\n",
                   s.id, s.parent, s.name.c_str(), s.start_ms, s.end_ms,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  }

  int open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ms = now_ms();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id) {
    spans_[id].end_ms = now_ms();
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
