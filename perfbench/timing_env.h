// Pass-through Env decorator that counts and times every file-system
// call. Used only by traced runs, through PipelineOptions::env and the
// env argument of the storage calls; untraced runs pass no decorator.
#ifndef PERFBENCH_TIMING_ENV_H_
#define PERFBENCH_TIMING_ENV_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/env.h"

namespace perfbench {

struct StorageCounters {
  uint64_t ops = 0;            ///< Every Env call.
  uint64_t bytes_written = 0;
  uint64_t sync_files = 0;
  uint64_t sync_dirs = 0;
  uint64_t renames = 0;
  double seconds = 0;          ///< Time inside every Env call.
  double sync_seconds = 0;     ///< Time inside SyncFile + SyncDir.

  /// What was counted since `earlier`.
  StorageCounters Since(const StorageCounters& earlier) const;
};

class TimingEnv : public xydiff::Env {
 public:
  explicit TimingEnv(xydiff::Env* base) : base_(base) {}

  StorageCounters counters() const;

  xydiff::Result<std::string> ReadFile(const std::string& path) override;
  xydiff::Status WriteFile(const std::string& path,
                           std::string_view content) override;
  xydiff::Status SyncFile(const std::string& path) override;
  xydiff::Status SyncDir(const std::string& path) override;
  xydiff::Status RenameFile(const std::string& from,
                            const std::string& to) override;
  xydiff::Status RemoveFile(const std::string& path) override;
  xydiff::Status CreateDirs(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  xydiff::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;

 private:
  enum class Kind { kWrite, kSyncFile, kSyncDir, kRename, kOther };
  void Record(Kind kind, double seconds, uint64_t bytes);

  xydiff::Env* base_;
  mutable std::mutex mutex_;
  StorageCounters counters_;  // Guarded by mutex_.
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ENV_H_
