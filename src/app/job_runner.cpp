#include "app/job_runner.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "soap/envelope.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gs::app {

namespace {

// Parses "sim:duration=<ms>,exit=<code>".
std::pair<common::TimeMs, int> parse_command(const std::string& command) {
  common::TimeMs duration = 0;
  int exit_code = 0;
  if (command.starts_with("sim:")) {
    std::string rest = command.substr(4);
    size_t pos = 0;
    while (pos < rest.size()) {
      size_t comma = rest.find(',', pos);
      if (comma == std::string::npos) comma = rest.size();
      std::string kv = rest.substr(pos, comma - pos);
      size_t eq = kv.find('=');
      if (eq != std::string::npos) {
        std::string key = kv.substr(0, eq);
        std::string value = kv.substr(eq + 1);
        // Strict parse: "duration=5x" used to truncate to 5 under stoll;
        // now a malformed piece keeps its default and is reported, so a
        // mangled submission doesn't silently run with the wrong shape.
        bool malformed = false;
        if (key == "duration") {
          if (auto d = common::parse_number<common::TimeMs>(value)) {
            duration = *d;
          } else {
            malformed = true;
          }
        }
        if (key == "exit") {
          if (auto e = common::parse_number<int>(value)) {
            exit_code = *e;
          } else {
            malformed = true;
          }
        }
        if (malformed) {
          telemetry::MetricsRegistry::global()
              .counter("jobrunner.malformed_command_params")
              .add();
          telemetry::EventLog::global().emit(
              telemetry::Level::kWarn, "app.jobrunner",
              "malformed sim: parameter keeps default",
              {{"command", command}, {"param", kv}});
        }
      }
      pos = comma + 1;
    }
  }
  return {duration, exit_code};
}

}  // namespace

JobRunner::~JobRunner() {
  // Reap any real children still running so they do not outlive the grid.
  std::lock_guard lock(mu_);
  for (auto& [pid, job] : jobs_) {
    if (job.os_pid >= 0 && job.status.state == State::kRunning) {
      ::kill(job.os_pid, SIGKILL);
      ::waitpid(job.os_pid, nullptr, 0);
    }
  }
}

std::string JobRunner::spawn(const std::string& command,
                             const std::string& working_dir,
                             ExitCallback on_exit) {
  Job job;
  job.command = command;
  job.working_dir = working_dir;
  job.status.state = State::kRunning;
  job.status.started = clock_.now();
  job.on_exit = std::move(on_exit);

  if (command.starts_with("exec:")) {
    std::string shell_command = command.substr(5);
    pid_t child = ::fork();
    if (child < 0) {
      throw soap::SoapFault("Receiver", "cannot fork job process");
    }
    if (child == 0) {
      if (!working_dir.empty() && ::chdir(working_dir.c_str()) != 0) {
        ::_exit(127);
      }
      ::execl("/bin/sh", "sh", "-c", shell_command.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    job.os_pid = child;
    job.deadline = 0;
    job.exit_code = 0;
  } else {
    if (!command.starts_with("sim:")) {
      // Anything that is neither exec: nor sim: still "runs" as a 0 ms
      // simulation — a silent success that hides misconfigured
      // submissions. Make it visible.
      telemetry::MetricsRegistry::global()
          .counter("jobrunner.unrecognized_command")
          .add();
      telemetry::EventLog::global().emit(
          telemetry::Level::kWarn, "app.jobrunner",
          "unrecognized command treated as 0 ms simulation",
          {{"command", command}});
    }
    auto [duration, exit_code] = parse_command(command);
    job.deadline = clock_.now() + duration;
    job.exit_code = exit_code;
  }

  std::lock_guard lock(mu_);
  std::string pid = "pid-" + std::to_string(next_pid_++);
  jobs_[pid] = std::move(job);
  return pid;
}

std::optional<JobRunner::Status> JobRunner::status(const std::string& pid) {
  poll();
  std::lock_guard lock(mu_);
  auto it = jobs_.find(pid);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.status;
}

bool JobRunner::kill(const std::string& pid) {
  poll();
  ExitCallback cb;
  Status ended;
  {
    std::lock_guard lock(mu_);
    auto it = jobs_.find(pid);
    if (it == jobs_.end() || it->second.status.state != State::kRunning) {
      return false;
    }
    if (it->second.os_pid >= 0) {
      ::kill(it->second.os_pid, SIGKILL);
      ::waitpid(it->second.os_pid, nullptr, 0);
      it->second.os_pid = -1;
    }
    it->second.status.state = State::kKilled;
    it->second.status.ended = clock_.now();
    it->second.status.exit_code = -9;
    // A killed job completes like any other: subscribers (notification
    // producers, the Exec service's automatic unreserve) hear about it.
    // Fired outside mu_, like poll()'s callbacks, so the callback may call
    // back into the runner.
    cb = it->second.on_exit;
    ended = it->second.status;
  }
  if (cb) cb(pid, ended);
  return true;
}

bool JobRunner::reap(const std::string& pid) {
  std::lock_guard lock(mu_);
  auto it = jobs_.find(pid);
  if (it == jobs_.end() || it->second.status.state == State::kRunning) {
    return false;
  }
  jobs_.erase(it);
  return true;
}

size_t JobRunner::poll() {
  common::TimeMs now = clock_.now();
  std::vector<std::pair<std::string, Status>> callbacks;
  {
    std::lock_guard lock(mu_);
    for (auto& [pid, job] : jobs_) {
      if (job.status.state != State::kRunning) continue;
      if (job.os_pid >= 0) {
        // Real process: non-blocking reap.
        int wstatus = 0;
        pid_t reaped = ::waitpid(job.os_pid, &wstatus, WNOHANG);
        if (reaped == job.os_pid) {
          job.status.state = State::kExited;
          job.status.exit_code =
              WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
          job.status.ended = now;
          job.os_pid = -1;
          if (job.on_exit) callbacks.emplace_back(pid, job.status);
        }
      } else if (now >= job.deadline) {
        job.status.state = State::kExited;
        job.status.exit_code = job.exit_code;
        job.status.ended = now;
        if (job.on_exit) callbacks.emplace_back(pid, job.status);
      }
    }
  }
  for (auto& [pid, status] : callbacks) {
    ExitCallback cb;
    {
      std::lock_guard lock(mu_);
      auto it = jobs_.find(pid);
      if (it != jobs_.end()) cb = it->second.on_exit;
    }
    if (cb) cb(pid, status);
  }
  return callbacks.size();
}

}  // namespace gs::app
