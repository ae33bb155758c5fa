#include "timing_env.h"

#include "common.h"

namespace perfbench {

using xydiff::Result;
using xydiff::Status;

StorageCounters StorageCounters::Since(const StorageCounters& e) const {
  StorageCounters d;
  d.ops = ops - e.ops;
  d.bytes_written = bytes_written - e.bytes_written;
  d.sync_files = sync_files - e.sync_files;
  d.sync_dirs = sync_dirs - e.sync_dirs;
  d.renames = renames - e.renames;
  d.seconds = seconds - e.seconds;
  d.sync_seconds = sync_seconds - e.sync_seconds;
  return d;
}

StorageCounters TimingEnv::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void TimingEnv::Record(Kind kind, double seconds, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.ops;
  counters_.seconds += seconds;
  switch (kind) {
    case Kind::kWrite:
      counters_.bytes_written += bytes;
      break;
    case Kind::kSyncFile:
      ++counters_.sync_files;
      counters_.sync_seconds += seconds;
      break;
    case Kind::kSyncDir:
      ++counters_.sync_dirs;
      counters_.sync_seconds += seconds;
      break;
    case Kind::kRename:
      ++counters_.renames;
      break;
    case Kind::kOther:
      break;
  }
}

Result<std::string> TimingEnv::ReadFile(const std::string& path) {
  const auto start = Clock::now();
  Result<std::string> r = base_->ReadFile(path);
  Record(Kind::kOther, SecondsBetween(start, Clock::now()), 0);
  return r;
}

Status TimingEnv::WriteFile(const std::string& path,
                            std::string_view content) {
  const auto start = Clock::now();
  Status s = base_->WriteFile(path, content);
  Record(Kind::kWrite, SecondsBetween(start, Clock::now()), content.size());
  return s;
}

Status TimingEnv::SyncFile(const std::string& path) {
  const auto start = Clock::now();
  Status s = base_->SyncFile(path);
  Record(Kind::kSyncFile, SecondsBetween(start, Clock::now()), 0);
  return s;
}

Status TimingEnv::SyncDir(const std::string& path) {
  const auto start = Clock::now();
  Status s = base_->SyncDir(path);
  Record(Kind::kSyncDir, SecondsBetween(start, Clock::now()), 0);
  return s;
}

Status TimingEnv::RenameFile(const std::string& from, const std::string& to) {
  const auto start = Clock::now();
  Status s = base_->RenameFile(from, to);
  Record(Kind::kRename, SecondsBetween(start, Clock::now()), 0);
  return s;
}

Status TimingEnv::RemoveFile(const std::string& path) {
  const auto start = Clock::now();
  Status s = base_->RemoveFile(path);
  Record(Kind::kOther, SecondsBetween(start, Clock::now()), 0);
  return s;
}

Status TimingEnv::CreateDirs(const std::string& path) {
  const auto start = Clock::now();
  Status s = base_->CreateDirs(path);
  Record(Kind::kOther, SecondsBetween(start, Clock::now()), 0);
  return s;
}

bool TimingEnv::FileExists(const std::string& path) {
  const auto start = Clock::now();
  const bool exists = base_->FileExists(path);
  Record(Kind::kOther, SecondsBetween(start, Clock::now()), 0);
  return exists;
}

Result<std::vector<std::string>> TimingEnv::ListDir(const std::string& path) {
  const auto start = Clock::now();
  Result<std::vector<std::string>> r = base_->ListDir(path);
  Record(Kind::kOther, SecondsBetween(start, Clock::now()), 0);
  return r;
}

}  // namespace perfbench
