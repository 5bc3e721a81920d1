#include "util/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include "util/fault_injector.h"
#include "util/log.h"

namespace ep::io {

namespace {

constexpr const char* kNoSpaceTag = "(ENOSPC)";

/// Bounded deterministic retry for transient storage errors. Attempt k
/// (0-based) sleeps kBackoffMicros << (k-1) before retrying, so a write
/// waits 100us then 200us — enough to step over a transient EIO in tests
/// and real life without turning a dead disk into a hang.
constexpr int kMaxAttempts = 3;      ///< total attempts
constexpr int kBackoffMicros = 100;  ///< base backoff before the first retry

Status ioError(const std::string& what, const std::string& path, int err) {
  return Status::ioError(what + " " + path + ": " + std::strerror(err) +
                         (err == ENOSPC || err == EDQUOT
                              ? std::string(" ") + kNoSpaceTag
                              : std::string()));
}

/// Checks the error-kind fault sites for one attempt. Returns 0 when no
/// site fires, otherwise the errno the attempt should fail with.
/// `stage` selects which site is consulted.
int injectedErrno(FaultInjector* faults, const char* site) {
  if (faults == nullptr || !faults->active()) return 0;
  const FaultSpec* f = faults->fire(site);
  if (f == nullptr) return 0;
  return std::strcmp(site, "io.enospc") == 0 ? ENOSPC : EIO;
}

/// One full tmp+write+fsync+rename attempt. Returns OK or a typed kIo
/// status; guarantees the tmp file is gone on failure.
Status writeOnce(const std::string& path, const void* data, std::size_t n,
                 FaultInjector* faults) {
  // "io.enospc" fails the attempt before any bytes move, modelling a full
  // disk: persistent, recognized by isNoSpace(), never retried.
  if (const int err = injectedErrno(faults, "io.enospc")) {
    return ioError("cannot write", path, err);
  }

  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return ioError("cannot create", tmp, errno);

  bool wrote = true;
  int err = 0;
  if (const int ie = injectedErrno(faults, "io.write")) {
    wrote = false;
    err = ie;  // synthetic short write
  } else if (std::fwrite(data, 1, n, out) != n) {
    wrote = false;
    err = errno != 0 ? errno : EIO;
  }
  if (wrote && std::fflush(out) != 0) {
    wrote = false;
    err = errno != 0 ? errno : EIO;
  }
  if (wrote) {
    if (const int ie = injectedErrno(faults, "io.fsync")) {
      wrote = false;
      err = ie;
    } else if (::fsync(fileno(out)) != 0) {
      wrote = false;
      err = errno != 0 ? errno : EIO;
    }
  }
  if (std::fclose(out) != 0 && wrote) {
    wrote = false;
    err = errno != 0 ? errno : EIO;
  }
  if (!wrote) {
    std::remove(tmp.c_str());
    return ioError("cannot write", tmp, err);
  }

  if (const int ie = injectedErrno(faults, "io.rename")) {
    std::remove(tmp.c_str());
    return ioError("cannot rename into place", path, ie);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int renameErr = errno != 0 ? errno : EIO;
    std::remove(tmp.c_str());
    return ioError("cannot rename into place", path, renameErr);
  }
  syncParentDir(path);
  return {};
}

/// The id a `<prefix><digits><suffix>` name encodes; nullopt on any other
/// shape or when the digits exceed `maxId`.
std::optional<std::uint64_t> parseNumberedName(std::string_view name,
                                               std::string_view prefix,
                                               std::string_view suffix,
                                               std::uint64_t maxId) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (!name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t id = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > maxId || id > (maxId - digit) / 10) return std::nullopt;
    id = id * 10 + digit;
  }
  return id;
}

}  // namespace

Status writeFileDurably(const std::string& path, const void* data,
                        std::size_t n, FaultInjector* faults) {
  Status last;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      // Deterministic exponential backoff: 1x, 2x, 4x, ... the base.
      ::usleep(static_cast<useconds_t>(kBackoffMicros) << (attempt - 1));
      logDebug("io: retrying write of %s (attempt %d/%d): %s", path.c_str(),
               attempt + 1, kMaxAttempts, last.message().c_str());
    }
    last = writeOnce(path, data, n, faults);
    if (last.ok()) return last;
    // A full disk will not empty itself inside our backoff window;
    // surface it immediately so the caller can degrade.
    if (isNoSpace(last)) return last;
  }
  return last;
}

Status writeFileDurably(const std::string& path, const std::string& text,
                        FaultInjector* faults) {
  return writeFileDurably(path, text.data(), text.size(), faults);
}

void syncParentDir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

bool isNoSpace(const Status& s) {
  return s.code() == StatusCode::kIo &&
         s.message().find(kNoSpaceTag) != std::string::npos;
}

void makeDirs(const std::string& path) {
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty() && cur != "/") ::mkdir(cur.c_str(), 0755);
    }
    if (i < path.size()) cur += path[i];
  }
}

std::vector<std::string> listDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

std::vector<NumberedFile> listNumberedFiles(const std::string& dir,
                                            std::string_view prefix,
                                            std::string_view suffix,
                                            std::uint64_t maxId) {
  std::vector<NumberedFile> files;
  for (std::string& name : listDir(dir)) {
    if (const auto id = parseNumberedName(name, prefix, suffix, maxId)) {
      files.push_back({*id, std::move(name)});
    }
  }
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return a.id != b.id ? a.id < b.id : a.name < b.name;
  });
  return files;
}

}  // namespace ep::io
