#include "util/subprocess.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace snntest::util {

pid_t spawn_process(const std::vector<std::string>& argv, const SpawnOptions& options) {
  if (argv.empty()) throw std::runtime_error("spawn_process: empty argv");
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("spawn_process: fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child. Only async-signal-safe calls between fork and exec.
    if (!options.log_path.empty()) {
      const int fd = open(options.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO) close(fd);
      }
    }
    execvp(cargv[0], cargv.data());
    _exit(127);  // exec failed; 127 mirrors the shell's "command not found"
  }
  return pid;
}

namespace {

ProcessStatus decode_status(int status) {
  ProcessStatus out;
  if (WIFEXITED(status)) {
    out.exited = true;
    out.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.signaled = true;
    out.term_signal = WTERMSIG(status);
  }
  return out;
}

}  // namespace

ProcessStatus poll_process(pid_t pid) {
  int status = 0;
  const pid_t r = waitpid(pid, &status, WNOHANG);
  if (r == 0) {
    ProcessStatus out;
    out.running = true;
    return out;
  }
  if (r < 0) {
    // Already reaped (or never ours): report as signaled-unknown so callers
    // treat it as a failure rather than a success.
    ProcessStatus out;
    out.signaled = true;
    out.term_signal = 0;
    return out;
  }
  return decode_status(status);
}

ProcessStatus wait_process(pid_t pid) {
  int status = 0;
  pid_t r;
  do {
    r = waitpid(pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  if (r < 0) {
    ProcessStatus out;
    out.signaled = true;
    out.term_signal = 0;
    return out;
  }
  return decode_status(status);
}

bool kill_process(pid_t pid, int sig) {
  return pid > 0 && ::kill(pid, sig) == 0;
}

void atomic_write_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(static_cast<long>(getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("atomic_write_file: cannot open " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("atomic_write_file: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    std::remove(tmp.c_str());
    throw std::runtime_error("atomic_write_file: rename " + tmp + " -> " + path +
                             " failed: " + err);
  }
}

std::string current_executable_path(const std::string& fallback) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return fallback;
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace snntest::util
