// Concurrent service registry with request-scoped pinning.
//
// The container used to keep a `map<path, Service*>` behind one mutex and
// return the raw pointer after unlocking — so a concurrent undeploy could
// free the service mid-request. Here lookups return a ServiceHandle that
// pins the deployment entry for the request's duration; `undeploy` removes
// the path (no new pins) and then blocks until every in-flight request on
// that entry drains, after which the caller may safely destroy the
// Service.
//
// A pin writes nothing another request thread writes: it reads an
// immutable path table through one atomic pointer and counts itself on the
// pinning thread's own shard of the entry's in-flight count. Deploy and
// undeploy publish a new table; the entry mutex is taken only by the
// releases of pins on a retired entry, to wake the draining undeploy.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gs::container {

class Service;

/// RAII pin on a deployed service. While any handle is live, `undeploy`
/// of that path blocks; destroying (or releasing) the handle lets the
/// drain complete. Empty handles (no service at the path) are falsy. A
/// handle must not outlive the registry that issued it.
class ServiceHandle {
 public:
  ServiceHandle() = default;
  ~ServiceHandle();
  ServiceHandle(ServiceHandle&& other) noexcept;
  ServiceHandle& operator=(ServiceHandle&& other) noexcept;
  ServiceHandle(const ServiceHandle&) = delete;
  ServiceHandle& operator=(const ServiceHandle&) = delete;

  explicit operator bool() const noexcept { return entry_ != nullptr; }
  Service* get() const noexcept;
  Service* operator->() const noexcept { return get(); }
  Service& operator*() const noexcept { return *get(); }

  /// Drops the pin early (before the handle goes out of scope).
  void release();

 private:
  friend class ServiceRegistry;
  struct Entry;
  explicit ServiceHandle(Entry* entry) noexcept : entry_(entry) {}
  Entry* entry_ = nullptr;
};

/// Path -> service table. Deploy and undeploy serialize on the registry's
/// writer mutex; pins and `paths` take no lock.
class ServiceRegistry {
 public:
  ServiceRegistry();
  ~ServiceRegistry();
  ServiceRegistry(const ServiceRegistry&) = delete;
  ServiceRegistry& operator=(const ServiceRegistry&) = delete;

  /// Mounts `service` at `path`, replacing any previous deployment (pins
  /// on the replaced entry keep the old service alive from the registry's
  /// point of view; its owner must still outlive them).
  void deploy(const std::string& path, Service& service);

  /// Unmounts `path` and blocks until in-flight requests pinning it have
  /// drained. Returns false when nothing was deployed there. Must not be
  /// called from a request holding a pin on the same path (deadlock).
  bool undeploy(const std::string& path);

  /// Pins the service at `path`; empty handle when none is deployed.
  ServiceHandle pin(const std::string& path) const;

  std::vector<std::string> paths() const;

 private:
  struct Table;
  /// Installs `next` as the table pins read (needs write_mu_) and retires
  /// the entry it replaces at `path`, if any; returns that entry.
  ServiceHandle::Entry* publish(std::unique_ptr<Table> next, const std::string& path);

  std::atomic<const Table*> table_;
  std::mutex write_mu_;
  // Every table and entry ever published, freed with the registry: a pin
  // may still be reading a replaced table or counting on a retired entry.
  std::vector<std::unique_ptr<const Table>> tables_;
  std::vector<std::unique_ptr<ServiceHandle::Entry>> entries_;
};

}  // namespace gs::container
