// ep::io — checked, fault-injectable durable file I/O.
//
// Every durability guarantee the repo advertises (journal-before-ack,
// CRC snapshots, fsync'd CSV traces, stats dumps) bottoms out in the same
// recipe: write a tmp file, flush, fsync, rename into place, fsync the
// parent directory. This layer owns that recipe once, with three
// properties the inlined copies lacked:
//
//   * every syscall result is checked and surfaces as a typed Status
//     (kIo) naming the path and errno — no silent truncation;
//   * transient failures (EIO-class write/fsync/rename errors) are
//     retried a bounded, deterministic number of times with exponential
//     backoff; persistent no-space failures are recognized as such
//     (isNoSpace) and never retried, so callers can degrade instead of
//     spinning against a full disk;
//   * four FaultInjector sites make every failure mode reachable from
//     tests without touching the filesystem:
//       "io.write"   fwrite reports a short write (synthetic EIO)
//       "io.fsync"   fsync fails (synthetic EIO)
//       "io.rename"  rename into place fails (synthetic EIO)
//       "io.enospc"  the attempt fails with ENOSPC — persistent, not
//                    retried, recognized by isNoSpace()
//     All four use FaultKind::kError (the site returns a typed error;
//     no data is corrupted). A count=1 spec fails exactly one attempt,
//     proving the retry path; count=-1 exhausts the policy and yields
//     the final typed kIo.
//
// Adopters: snapshot.cpp, serve/journal.cpp, the daemon's stats/result
// writers, and CsvWriter's error surfacing. See docs/ROBUSTNESS.md,
// "Storage-fault containment".
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ep {

class FaultInjector;

namespace io {

/// Atomically and durably replaces `path` with `n` bytes: tmp file +
/// checked fwrite + fflush + fsync + rename + parent-directory fsync.
/// Transient failures are retried (3 attempts, 100us then 200us backoff);
/// no-space failures are not. On any failure the tmp file is removed and
/// `path` is untouched (the previous contents, if any, survive).
Status writeFileDurably(const std::string& path, const void* data,
                        std::size_t n, FaultInjector* faults = nullptr);

/// Convenience overload for text payloads (journal/result/stats JSON).
Status writeFileDurably(const std::string& path, const std::string& text,
                        FaultInjector* faults = nullptr);

/// fsync the directory containing `path` so a completed rename survives
/// power loss. Best-effort by design: some filesystems reject directory
/// fsync, and the rename itself already happened.
void syncParentDir(const std::string& path);

/// True when `s` is the persistent out-of-space class of I/O failure
/// (ENOSPC/EDQUOT, or the injected "io.enospc" fault). The supervisor uses
/// this to stop checkpointing instead of retrying forever.
[[nodiscard]] bool isNoSpace(const Status& s);

/// `mkdir -p`: creates every missing component of `path` (mode 0755).
/// Best-effort by design — a directory that could not be created surfaces
/// as the typed kIo of the first durable write into it.
void makeDirs(const std::string& path);

/// Entry names in `dir` in readdir order, without "." and "..". Empty when
/// the directory cannot be opened.
std::vector<std::string> listDir(const std::string& dir);

struct NumberedFile {
  std::uint64_t id = 0;
  std::string name;
};

/// The entries of `dir` named `<prefix><digits><suffix>` (at least one
/// digit), sorted by ascending id (ties by name). Other entries are
/// ignored, and so are ids above `maxId`: an absurd name can never
/// overflow the caller's id type.
std::vector<NumberedFile> listNumberedFiles(
    const std::string& dir, std::string_view prefix, std::string_view suffix,
    std::uint64_t maxId = std::numeric_limits<std::uint64_t>::max());

}  // namespace io
}  // namespace ep
