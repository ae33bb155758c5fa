#include "mem_env.h"

namespace perfbench {

using xydiff::Result;
using xydiff::Status;

namespace {

/// Collapses repeated slashes and drops a trailing one.
std::string Normalize(const std::string& path) {
  std::string out;
  out.reserve(path.size());
  for (char c : path) {
    if (c == '/' && !out.empty() && out.back() == '/') continue;
    out += c;
  }
  if (out.size() > 1 && out.back() == '/') out.pop_back();
  return out;
}

std::string Parent(const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

bool MemEnv::ParentExists(const std::string& path) const {
  const std::string parent = Parent(path);
  return parent.empty() || dirs_.count(parent) > 0;
}

uint64_t MemEnv::Bytes(const std::string& directory) const {
  const std::string prefix = Normalize(directory) + "/";
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += it->second.size();
  }
  return total;
}

Result<std::string> MemEnv::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(Normalize(path));
  if (it == files_.end()) return Status::NotFound("cannot open " + path);
  return it->second;
}

Status MemEnv::WriteFile(const std::string& path, std::string_view content) {
  const std::string p = Normalize(path);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ParentExists(p)) return Status::NotFound("cannot open for writing " + path);
  if (dirs_.count(p) > 0) return Status::IOError("is a directory: " + path);
  files_[p].assign(content.data(), content.size());
  return Status::OK();
}

Status MemEnv::SyncFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.count(Normalize(path)) == 0) {
    return Status::NotFound("cannot open for sync " + path);
  }
  return Status::OK();
}

Status MemEnv::SyncDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirs_.count(Normalize(path)) == 0) {
    return Status::NotFound("cannot open directory " + path);
  }
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  const std::string f = Normalize(from), t = Normalize(to);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(f);
  if (it == files_.end() || !ParentExists(t)) {
    return Status::NotFound("cannot rename " + from + " to " + to);
  }
  std::string content = std::move(it->second);
  files_.erase(it);
  files_[t] = std::move(content);
  return Status::OK();
}

Status MemEnv::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(Normalize(path)) == 0) {
    return Status::NotFound("cannot remove " + path);
  }
  return Status::OK();
}

Status MemEnv::CreateDirs(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::string p = Normalize(path); !p.empty() && p != "/"; p = Parent(p)) {
    if (files_.count(p) > 0) return Status::IOError("not a directory: " + p);
    if (!dirs_.insert(p).second) break;  // Its parents exist already.
  }
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& path) {
  const std::string p = Normalize(path);
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(p) > 0 || dirs_.count(p) > 0;
}

Result<std::vector<std::string>> MemEnv::ListDir(const std::string& path) {
  const std::string dir = Normalize(path);
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirs_.count(dir) == 0) return Status::NotFound("cannot list " + path);
  const std::string prefix = dir + "/";
  const auto child = [&](const std::string& entry) -> std::string {
    if (entry.compare(0, prefix.size(), prefix) != 0) return "";
    const std::string rest = entry.substr(prefix.size());
    return rest.find('/') == std::string::npos ? rest : "";
  };
  std::set<std::string> names;
  for (auto it = dirs_.lower_bound(prefix); it != dirs_.end(); ++it) {
    if (it->compare(0, prefix.size(), prefix) != 0) break;
    if (const std::string name = child(*it); !name.empty()) names.insert(name);
  }
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    if (const std::string name = child(it->first); !name.empty()) {
      names.insert(name);
    }
  }
  return std::vector<std::string>(names.begin(), names.end());
}

}  // namespace perfbench
