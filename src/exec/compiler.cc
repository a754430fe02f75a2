#include "exec/compiler.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "exec/compiler_internal.h"
#include "util/env.h"
#include "util/timer.h"

#ifndef HIQUE_RUNTIME_CXX
#define HIQUE_RUNTIME_CXX "g++"
#endif

extern char** environ;

namespace hique::exec {

std::string RuntimeCompilerPath() {
  const char* env = std::getenv("HIQUE_CXX");
  if (env != nullptr && env[0] != '\0') return env;
  return HIQUE_RUNTIME_CXX;
}

namespace {

using Clock = std::chrono::steady_clock;

/// How long a compiler group gets to exit on SIGTERM before SIGKILL. The
/// g++ driver deletes its temporary files on SIGTERM; SIGKILL would leak
/// them.
constexpr int kTermGraceMs = 500;

std::vector<std::string> SplitWords(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> words;
  for (std::string w; in >> w;) words.push_back(std::move(w));
  return words;
}

/// Waits until the process behind `pidfd` exits or `deadline` passes;
/// true if it exited.
bool WaitExit(int pidfd, Clock::time_point deadline) {
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd p{pidfd, POLLIN, 0};
    int n = ::poll(&p, 1, static_cast<int>(std::max<int64_t>(left.count(), 0)));
    if (n > 0) return true;
    if (n == 0) return false;
    if (errno != EINTR) return true;  // cannot wait with a deadline: reap
  }
}

/// Spawns `args` in a process group of its own, with stdout and stderr in
/// `log_path` and no other descriptor of the host's but stdin, and reaps
/// it. Returns its wait status, or CompileError when it cannot start or is
/// still running at `deadline_s` (then the whole group, compiler driver,
/// cc1plus, as and ld alike, is killed and the driver reaped).
Result<int> RunCompiler(const std::vector<std::string>& args,
                        const std::string& log_path, double deadline_s) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  posix_spawn_file_actions_t files;
  posix_spawn_file_actions_init(&files);
  posix_spawn_file_actions_addopen(&files, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&files, STDERR_FILENO, STDOUT_FILENO);
  // A socket of the host's held open by a compiler would keep its peer
  // from seeing EOF until the compile ends.
  posix_spawn_file_actions_addclosefrom_np(&files, STDERR_FILENO + 1);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setpgroup(&attr, 0);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_s));
  pid_t pid = 0;
  int err = posix_spawnp(&pid, argv[0], &files, &attr, argv.data(), environ);
  posix_spawnattr_destroy(&attr);
  posix_spawn_file_actions_destroy(&files);
  if (err != 0) {
    return Status::CompileError("cannot start the runtime compiler '" +
                                args[0] + "': " + std::strerror(err));
  }

  // Without pidfds (Linux before 5.3) the wait has no deadline.
  int pidfd = -1;
#ifdef SYS_pidfd_open
  pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#endif
  const bool exited = pidfd < 0 || WaitExit(pidfd, deadline);
  if (!exited) {
    ::kill(-pid, SIGTERM);
    WaitExit(pidfd, Clock::now() + std::chrono::milliseconds(kTermGraceMs));
    ::kill(-pid, SIGKILL);
  }
  if (pidfd >= 0) ::close(pidfd);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      status = -1;
      break;
    }
  }
  if (!exited) {
    std::ostringstream msg;
    msg << "runtime compiler killed at its " << deadline_s << " s deadline";
    return Status::CompileError(msg.str());
  }
  return status;
}

}  // namespace

Result<CompileResult> CompileToSharedLibrary(const std::string& source,
                                             const std::string& dir,
                                             const std::string& name,
                                             const CompileOptions& options) {
  return internal::CompileWithDeadline(source, dir, name, options,
                                       kCompileDeadlineS);
}

Result<CompileResult> internal::CompileWithDeadline(
    const std::string& source, const std::string& dir,
    const std::string& name, const CompileOptions& options,
    double deadline_s) {
  HQ_RETURN_IF_ERROR(env::MakeDirs(dir));
  CompileResult result;
  result.source_path = dir + "/" + name + ".cc";
  result.library_path = dir + "/" + name + ".so";
  HQ_RETURN_IF_ERROR(env::WriteFile(result.source_path, source));
  result.source_bytes = static_cast<int64_t>(source.size());

  std::vector<std::string> args = SplitWords(RuntimeCompilerPath());
  if (args.empty()) return Status::CompileError("HIQUE_CXX names no compiler");
  args.insert(args.end(), {"-shared", "-fPIC", "-w",
                           "-O" + std::to_string(options.opt_level),
                           "-nostdlib"});
  // HQ_GEN_CXXFLAGS adds flags to every runtime compilation: CI runs the
  // generated code under the engine's own sanitizer this way (e.g.
  // -fsanitize=undefined), whose runtime the host process provides.
  for (std::string& f : SplitWords(env::EnvString("HQ_GEN_CXXFLAGS", ""))) {
    args.push_back(std::move(f));
  }
  args.insert(args.end(),
              {"-o", result.library_path, result.source_path, "-lgcc"});
  std::string command;
  for (const std::string& a : args) {
    command += (command.empty() ? "" : " ") + a;
  }

  const std::string log_path = dir + "/" + name + ".log";
  WallTimer timer;
  Result<int> rc = RunCompiler(args, log_path, deadline_s);
  result.compile_seconds = timer.ElapsedSeconds();
  if (!rc.ok()) {
    // Never started, or killed: nothing here is worth keeping.
    (void)env::RemoveFile(result.library_path);
    (void)env::RemoveFile(log_path);
    if (!options.keep_source) (void)env::RemoveFile(result.source_path);
    return Status::CompileError(rc.status().message() + "\n" + command);
  }
  if (!WIFEXITED(rc.value()) || WEXITSTATUS(rc.value()) != 0) {
    std::string log;
    auto log_result = env::ReadFile(log_path);
    if (log_result.ok()) log = log_result.value();
    if (log.size() > 4000) log.resize(4000);
    return Status::CompileError("runtime compilation failed:\n" + command +
                                "\n" + log);
  }
  HQ_ASSIGN_OR_RETURN(result.library_bytes,
                      env::FileSize(result.library_path));
  if (!options.keep_source) {
    (void)env::RemoveFile(result.source_path);
  }
  (void)env::RemoveFile(log_path);
  return result;
}

}  // namespace hique::exec
