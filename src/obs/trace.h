// Structured JSONL trace of job lifecycles.
//
// One line per span edge — submitted, queued, started, then exactly
// one of completed/failed/timed_out/cancelled — with monotonic timestamps
// (ns since the log opened) and the two durations operators actually chart:
// queue wait and run wall.  Lines are self-contained JSON objects so the
// log tails cleanly mid-run and standard tools (jq, pandas) read it as-is.
//
// Writers share one mutex; the engine only records span *edges* (a handful
// per job), never per-event data, so the lock is nowhere near any hot path.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace neutral::obs {

struct TraceEvent {
  std::string event;          ///< submitted|queued|started|completed|...
  std::uint64_t job_id = 0;
  std::string label;
  std::int32_t worker = -1;   ///< worker index (< 0 = not yet assigned)
  double queue_wait_s = -1.0; ///< pop time - submit time (< 0 = unknown)
  double run_wall_s = -1.0;   ///< solve wall seconds (< 0 = unknown)
  std::string detail;         ///< error text, ...
};

/// Append-only JSONL sink.  Thread-safe; flushes per line.  Throws
/// neutral::Error when the path cannot be opened.
class TraceLog {
 public:
  explicit TraceLog(const std::string& path);
  ~TraceLog();
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  void record(const TraceEvent& event) NEUTRAL_EXCLUDES(mutex_);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  Mutex mutex_;
  /// The stream (not the pointer) is what the lock serialises; writers
  /// format off-lock and hold mutex_ only across fwrite+fflush.
  std::FILE* file_ NEUTRAL_GUARDED_BY(mutex_) = nullptr;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace neutral::obs
