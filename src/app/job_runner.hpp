// Job runner: the process-spawning substrate behind both ExecService
// bindings (moved here from src/gridbox — the application core is
// stack-agnostic; the WSRF and WS-Transfer front-ends are thin bindings).
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/clock.hpp"

namespace gs::app {

/// Process table with two execution modes. The paper's ExecService spawned
/// Windows processes; here:
///   * "sim:duration=<ms>,exit=<code>" jobs are deterministic simulations
///     driven by the deployment clock (what tests and benches use);
///   * "exec:<shell command>" jobs fork/exec a real `/bin/sh -c` child in
///     the job's working directory (what a production deployment uses).
/// `poll()` retires finished jobs (clock expiry or waitpid) and fires
/// their completion callbacks — services call it on every request.
class JobRunner {
 public:
  enum class State { kRunning, kExited, kKilled };

  struct Status {
    State state = State::kRunning;
    int exit_code = 0;
    common::TimeMs started = 0;
    common::TimeMs ended = 0;  // meaningful when not running
  };

  using ExitCallback = std::function<void(const std::string& pid, const Status&)>;

  explicit JobRunner(const common::Clock& clock) : clock_(clock) {}
  ~JobRunner();

  /// Spawns a job (see the class comment for command forms; anything else
  /// is a simulation that runs 0 ms and exits 0). Returns the process id.
  /// Throws SoapFault("Receiver") when a real process cannot be forked.
  std::string spawn(const std::string& command, const std::string& working_dir,
                    ExitCallback on_exit = nullptr);

  std::optional<Status> status(const std::string& pid);
  /// Kills a running job (state -> kKilled) and fires its ExitCallback —
  /// killed jobs notify completion subscribers like exited ones do.
  /// False when unknown/finished.
  bool kill(const std::string& pid);
  /// Drops a finished job's record; false when still running or unknown.
  bool reap(const std::string& pid);

  /// Retires jobs whose simulated duration has elapsed; fires callbacks.
  /// Returns the number retired.
  size_t poll();

 private:
  struct Job {
    std::string command;
    std::string working_dir;
    common::TimeMs deadline;  // simulation deadline; unused for real jobs
    int exit_code;
    Status status;
    ExitCallback on_exit;
    int os_pid = -1;  // >= 0 for a real process
  };

  const common::Clock& clock_;
  std::mutex mu_;
  std::map<std::string, Job> jobs_;
  std::uint64_t next_pid_ = 1000;
};

}  // namespace gs::app
