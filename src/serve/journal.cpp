#include "serve/journal.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/io.h"

namespace ep::serve {

namespace {

constexpr const char* kJobPrefix = "job_";
constexpr const char* kJsonSuffix = ".json";

std::string jobFileName(std::uint64_t id) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s%llu%s", kJobPrefix,
                static_cast<unsigned long long>(id), kJsonSuffix);
  return buf;
}

/// Ids of the "job_<id>.json" files in `dir`, ascending (ids start at 1).
std::vector<std::uint64_t> listJobIds(const std::string& dir) {
  std::vector<std::uint64_t> ids;
  for (const io::NumberedFile& f :
       io::listNumberedFiles(dir, kJobPrefix, kJsonSuffix)) {
    if (f.id > 0) ids.push_back(f.id);
  }
  return ids;
}

StatusOr<JsonValue> readJsonFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return Status::ioError("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parseJson(buf.str());
}

bool fileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

Status JobStore::init() {
  io::makeDirs(root_ + "/jobs");
  io::makeDirs(root_ + "/results");
  io::makeDirs(root_ + "/snaps");
  if (!fileExists(root_ + "/jobs")) {
    return Status::ioError("cannot create job store under " + root_);
  }
  return Status::okStatus();
}

std::string JobStore::snapshotDirFor(std::uint64_t id) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/snaps/job_%llu",
                static_cast<unsigned long long>(id));
  return root_ + buf;
}

Status JobStore::writePending(std::uint64_t id, const JobSpec& spec) {
  JsonValue v = jobSpecToJson(spec);
  v.set("id", JsonValue::number(static_cast<double>(id)));
  // ep::io owns the tmp -> fsync -> rename -> parent-fsync recipe plus
  // bounded retry; transient storage hiccups never bounce an admission.
  return io::writeFileDurably(root_ + "/jobs/" + jobFileName(id),
                              writeJson(v) + "\n", faults_);
}

void JobStore::removePending(std::uint64_t id) {
  std::remove((root_ + "/jobs/" + jobFileName(id)).c_str());
}

Status JobStore::writeResult(const JobOutcome& outcome) {
  return io::writeFileDurably(root_ + "/results/" + jobFileName(outcome.id),
                              writeJson(outcomeToJson(outcome)) + "\n",
                              faults_);
}

bool JobStore::hasResult(std::uint64_t id) const {
  return fileExists(root_ + "/results/" + jobFileName(id));
}

StatusOr<JobOutcome> JobStore::readResult(std::uint64_t id) const {
  const auto v = readJsonFile(root_ + "/results/" + jobFileName(id));
  if (!v.ok()) return v.status();
  JobOutcome out;
  const Status s = outcomeFromJson(*v, &out);
  if (!s.ok()) return s;
  return out;
}

std::vector<JobStore::PendingJob> JobStore::recoverPending(
    int* corrupt) const {
  std::vector<PendingJob> pending;
  int bad = 0;
  for (const std::uint64_t id : listJobIds(root_ + "/jobs")) {
    if (hasResult(id)) continue;  // finished; journal removal raced the kill
    const auto v = readJsonFile(root_ + "/jobs/" + jobFileName(id));
    if (!v.ok()) {
      ++bad;
      continue;
    }
    PendingJob p;
    p.id = id;
    if (!jobSpecFromJson(*v, &p.spec).ok()) {
      ++bad;
      continue;
    }
    pending.push_back(std::move(p));
  }
  if (corrupt != nullptr) *corrupt = bad;
  return pending;
}

std::uint64_t JobStore::maxJobId() const {
  std::uint64_t mx = 0;
  for (const char* sub : {"/jobs", "/results"}) {
    const auto ids = listJobIds(root_ + sub);
    if (!ids.empty()) mx = std::max(mx, ids.back());
  }
  return mx;
}

}  // namespace ep::serve
