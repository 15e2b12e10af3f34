#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced run.
//
// A span wraps one call into a layer's public function (Materialize,
// EngineSession::Advance, EncodeSnapshot, ...) or one phase of the run
// (round, setup, check). Spans nest on the single client thread: the span
// open when another begins is its parent. They stay in memory and are
// written once, at exit, as Chrome trace-event JSON (load the file in
// chrome://tracing or ui.perfetto.dev). perfbench/run.py computes self
// time from the file.
//
// Every Span measures its own duration whether or not the tracer records
// it, so untraced runs time the same calls with the same clock reads; the
// traced run pays only for appending records.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace internal {
inline int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
}  // namespace internal

// CPU time used by the whole process (all its threads) and by the calling
// thread. Time the machine takes away from the program - another process
// on the core, or the hypervisor's steal - is not counted, so these read
// the program's own work even on a busy shared host.
inline int64_t ProcessCpuNs() {
  return internal::ClockNs(CLOCK_PROCESS_CPUTIME_ID);
}
inline int64_t ThreadCpuNs() {
  return internal::ClockNs(CLOCK_THREAD_CPUTIME_ID);
}

class Tracer {
 public:
  struct Record {
    const char* name;  // a string literal: "<layer>.<call>" or a phase
    int64_t start_ns;
    int64_t end_ns;
    int parent;   // index into records(), -1 for a root span
    int session;  // the session the call served, -1 for none
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name, int session, int64_t start_ns) {
    if (!enabled_) return -1;
    records_.push_back({name, start_ns, start_ns, open_, session});
    open_ = static_cast<int>(records_.size()) - 1;
    return open_;
  }

  void End(int id, int64_t end_ns) {
    if (id < 0) return;
    records_[id].end_ns = end_ns;
    open_ = records_[id].parent;
  }

  const std::vector<Record>& records() const { return records_; }

  // Writes the spans as Chrome trace-event JSON ("X" complete events,
  // microsecond timestamps relative to the first span). Returns false when
  // the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"session\":%d}}",
                   i == 0 ? "" : ",", r.name, (r.start_ns - t0) * 1e-3,
                   (r.end_ns - r.start_ns) * 1e-3, i, r.parent, r.session);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int open_ = -1;
  std::vector<Record> records_;
};

// Scoped timer that is also a span. Stop() ends it early and returns the
// elapsed seconds; the destructor stops it if Stop() was not called.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int session = -1)
      : tracer_(tracer), start_ns_(NowNs()) {
    id_ = tracer_.Begin(name, session, start_ns_);
  }
  ~Span() { Stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Stop() {
    if (!stopped_) {
      end_ns_ = NowNs();
      tracer_.End(id_, end_ns_);
      stopped_ = true;
    }
    return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
  }

 private:
  Tracer& tracer_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
  int id_ = -1;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
