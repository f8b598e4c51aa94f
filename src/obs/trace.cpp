#include "obs/trace.h"

#include <cinttypes>

#include "obs/json.h"
#include "util/error.h"

namespace neutral::obs {

TraceLog::TraceLog(const std::string& path)
    : path_(path), epoch_(std::chrono::steady_clock::now()) {
  MutexLock lock(mutex_);
  file_ = std::fopen(path.c_str(), "w");
  NEUTRAL_REQUIRE(file_ != nullptr, "cannot open trace log '" + path + "'");
}

TraceLog::~TraceLog() {
  // Locked even though a destructor implies exclusivity: the analysis has
  // no such notion, and the uncontended acquire is free next to fclose.
  MutexLock lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
}

void TraceLog::record(const TraceEvent& event) {
  const auto now = std::chrono::steady_clock::now();
  const auto ts_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
          .count();
  std::string line = "{\"ts_ns\":" + std::to_string(ts_ns);
  line += ",\"event\":\"" + json_escape(event.event) + "\"";
  line += ",\"job\":" + std::to_string(event.job_id);
  if (!event.label.empty()) {
    line += ",\"label\":\"" + json_escape(event.label) + "\"";
  }
  if (event.worker >= 0) {
    line += ",\"worker\":" + std::to_string(event.worker);
  }
  if (event.queue_wait_s >= 0.0) {
    line += ",\"queue_wait_s\":" + json_number(event.queue_wait_s);
  }
  if (event.run_wall_s >= 0.0) {
    line += ",\"run_wall_s\":" + json_number(event.run_wall_s);
  }
  if (!event.detail.empty()) {
    line += ",\"detail\":\"" + json_escape(event.detail) + "\"";
  }
  line += "}\n";
  MutexLock lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

}  // namespace neutral::obs
