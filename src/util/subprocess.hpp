// Child-process management and crash-safe file commits (POSIX).
//
// The sharded campaign orchestrator (campaign/orchestrator.hpp) launches
// one OS process per fault-universe shard so a crash, OOM kill, or hang
// loses only that shard's uncommitted work. These are the primitives it is
// built on:
//
//  * spawn / poll / wait / kill — fork+execvp with stdout/stderr optionally
//    redirected to a log file. Non-blocking poll (waitpid WNOHANG) lets a
//    single-threaded supervisor watch many children.
//  * atomic_write_file — the commit protocol for the on-disk formats
//    (util/serialize.hpp) and worker outputs: bytes go to
//    `<path>.tmp.<pid>` first and reach `path` only via rename(2), which
//    POSIX guarantees atomic within a filesystem.
//    A reader therefore sees either the old complete file or the new
//    complete file, never a torn half-write — the property the orchestrator
//    relies on when it treats the presence of a shard file as "this shard
//    committed".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace snntest::util {

struct SpawnOptions {
  /// Redirect the child's stdout+stderr (appending) to this file; empty
  /// inherits the parent's streams.
  std::string log_path;
};

/// fork+execvp `argv` (argv[0] is the program; PATH is searched). Returns
/// the child pid. Throws std::runtime_error when fork fails; an exec failure
/// surfaces as the child exiting with status 127.
pid_t spawn_process(const std::vector<std::string>& argv, const SpawnOptions& options = {});

struct ProcessStatus {
  bool running = false;
  bool exited = false;    ///< normal exit; `exit_code` is valid
  bool signaled = false;  ///< killed by a signal; `term_signal` is valid
  int exit_code = -1;
  int term_signal = 0;

  bool success() const { return exited && exit_code == 0; }
};

/// Non-blocking status check (waitpid WNOHANG). Once a terminal status has
/// been returned the pid is reaped and must not be polled again.
ProcessStatus poll_process(pid_t pid);

/// Blocking wait; reaps the child.
ProcessStatus wait_process(pid_t pid);

/// Send `sig` (default SIGKILL) to the child. Safe on already-dead but
/// unreaped children. Returns false when the signal could not be delivered.
bool kill_process(pid_t pid, int sig = 9);

/// Write `bytes` to `path` atomically: a temp file in the same directory is
/// written, flushed, and renamed over `path`. Throws std::runtime_error on
/// any failure (the temp file is removed).
void atomic_write_file(const std::string& path, const std::string& bytes);

/// Absolute path of the running executable (/proc/self/exe), or `fallback`
/// when the platform cannot resolve it. Used by tools that re-exec
/// themselves as shard workers.
std::string current_executable_path(const std::string& fallback = "");

}  // namespace snntest::util
