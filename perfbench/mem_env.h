// RAM-backed Env: the benchmark's stores live in this process's memory,
// like a tmpfs mount, so no run depends on the latency of a shared disk
// and nothing is written outside the checkout. Sync calls are accepted
// and do nothing (as on tmpfs); the timing Env counts them in traced
// runs. Errors mirror the POSIX Env: a missing file or directory is
// NotFound.
#ifndef PERFBENCH_MEM_ENV_H_
#define PERFBENCH_MEM_ENV_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/env.h"

namespace perfbench {

class MemEnv : public xydiff::Env {
 public:
  /// Bytes of the files under `directory`.
  uint64_t Bytes(const std::string& directory) const;

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
  bool ParentExists(const std::string& path) const;  // Requires mutex_.

  mutable std::mutex mutex_;
  std::map<std::string, std::string> files_;  // Guarded by mutex_.
  std::set<std::string> dirs_;                // Guarded by mutex_.
};

}  // namespace perfbench

#endif  // PERFBENCH_MEM_ENV_H_
