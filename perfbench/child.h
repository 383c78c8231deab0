// A child process driven over its stdin/stdout pipes: the serve client's
// transport, and the probe that times process start for the offline
// workloads.

#ifndef PERFBENCH_CHILD_H_
#define PERFBENCH_CHILD_H_

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"

extern char** environ;

namespace perfbench {

/// Owns one child process and both ends of its stdio pipes. The
/// destructor kills and reaps a child that was not waited for, so no
/// process outlives the driver.
class Child {
 public:
  /// Spawns `argv` with stdin/stdout on pipes and stderr appended to
  /// `stderr_path`. Check ok() afterwards.
  Child(const std::vector<std::string>& argv, const std::string& stderr_path,
        const std::vector<std::string>& extra_env = {}) {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0) return;
    if (pipe2(out_pipe, O_CLOEXEC) != 0) {
      close(in_pipe[0]);
      close(in_pipe[1]);
      return;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e) env_store.emplace_back(*e);
    for (const std::string& e : extra_env) env_store.push_back(e);
    std::vector<char*> env;
    for (std::string& e : env_store) env.push_back(e.data());
    env.push_back(nullptr);
    start_ns_ = NowNs();
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               env.data());
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    if (rc != 0) {
      pid_ = -1;
      close(in_pipe[1]);
      close(out_pipe[0]);
      return;
    }
    in_fd_ = in_pipe[1];
    out_fd_ = out_pipe[0];
  }

  ~Child() {
    CloseInput();
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Wait();
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool ok() const { return pid_ > 0; }
  /// NowNs() just before the spawn.
  int64_t start_ns() const { return start_ns_; }

  /// Writes all of `data`; false once the child has closed its stdin.
  bool Write(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = write(in_fd_, data.data() + off, data.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one reply line (without the newline); false at end of stream.
  bool ReadLine(std::string* line) {
    line->clear();
    for (;;) {
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[1 << 16];
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  void CloseInput() {
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
  }

  /// Reaps the child; returns its exit status (-1 if killed or never
  /// started) and records its peak resident set size.
  int Wait() {
    if (pid_ <= 0) return -1;
    int status = 0;
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    pid_t r;
    do {
      r = wait4(pid_, &status, 0, &usage);
    } while (r < 0 && errno == EINTR);
    pid_ = -1;
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Peak RSS of the reaped child in MiB (valid after Wait()).
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  int64_t start_ns_ = 0;
  std::string buf_;
  size_t pos_ = 0;
  double peak_rss_mb_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHILD_H_
