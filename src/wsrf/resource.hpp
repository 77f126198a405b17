// The WS-Resource model: stateful resources behind a service.
//
// WSRF.NET "models Resources as XML documents that can be persisted to
// various backend stores"; a unique resource is selected per request by the
// EPR in the message headers (the WS-Resource Access Pattern). ResourceHome
// is the per-service store of one resource *type* (a WSRF requirement the
// paper contrasts with WS-Transfer's multi-type services), and PropertySet
// is the [Resource]/[ResourceProperty] programming model: stored properties
// live in the state document, computed properties project from it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/locks.hpp"
#include "container/lifetime.hpp"
#include "soap/addressing.hpp"
#include "xml/node.hpp"
#include "xmldb/database.hpp"

namespace gs::wsrf {

/// The EPR reference property that carries the resource identity.
xml::QName resource_id_qname();

/// One declared resource property.
struct ResourceProperty {
  using Getter = std::function<std::vector<std::unique_ptr<xml::Element>>(
      const xml::Element& state)>;
  using Setter = std::function<void(xml::Element& state,
                                    const std::vector<const xml::Element*>& values)>;

  xml::QName name;
  Getter get;
  Setter set;  // null for read-only (computed) properties

  bool writable() const noexcept { return static_cast<bool>(set); }
};

/// The property schema of a resource type (the RP document the service's
/// WSDL would advertise).
class PropertySet {
 public:
  /// A property stored literally as child elements of the state document
  /// (the [Resource] attribute: readable and writable).
  void declare_stored(xml::QName name);
  /// A read-only computed property (the [ResourceProperty] getter).
  void declare_computed(xml::QName name, ResourceProperty::Getter getter);
  /// A computed property with a custom setter.
  void declare_computed_rw(xml::QName name, ResourceProperty::Getter getter,
                           ResourceProperty::Setter setter);

  const ResourceProperty* find(const xml::QName& name) const;
  const std::vector<ResourceProperty>& all() const noexcept { return props_; }

  /// The full resource-properties document view of `state`.
  std::unique_ptr<xml::Element> document(const xml::Element& state,
                                         xml::QName document_name) const;

 private:
  std::vector<ResourceProperty> props_;
};

/// Store of resources of one type, bound to one database collection and
/// optionally to the container's lifetime manager for scheduled
/// termination.
class ResourceHome {
 public:
  ResourceHome(xmldb::XmlDatabase& db, std::string collection,
               container::LifetimeManager* lifetime = nullptr);

  /// Creates a resource from an initial state document and returns its
  /// server-assigned id (a GUID — "resource names generated only by
  /// services"). `termination_time` schedules destruction when a lifetime
  /// manager is attached.
  std::string create(std::unique_ptr<xml::Element> initial_state,
                     common::TimeMs termination_time =
                         container::LifetimeManager::kNever);
  /// As `create`, with a caller-chosen id (Grid-in-a-Box account service
  /// keys accounts by DN).
  void create_with_id(const std::string& id,
                      std::unique_ptr<xml::Element> initial_state,
                      common::TimeMs termination_time =
                          container::LifetimeManager::kNever);

  /// Loads a resource's state; throws ResourceUnknownFault when absent.
  std::unique_ptr<xml::Element> load(const std::string& id) const;
  /// Loads, or returns nullptr instead of faulting.
  std::unique_ptr<xml::Element> try_load(const std::string& id) const;
  /// Persists mutated state.
  void save(const std::string& id, const xml::Element& state);
  /// Destroys the resource; false when it did not exist.
  bool destroy(const std::string& id);
  bool exists(const std::string& id) const;
  std::vector<std::string> ids() const;

  /// Scheduled-termination accessors (require a lifetime manager).
  bool set_termination_time(const std::string& id, common::TimeMs t);
  std::optional<common::TimeMs> termination_time(const std::string& id) const;

  /// Builds the EPR addressing resource `id` at the service `address`.
  soap::EndpointReference epr_for(const std::string& id,
                                  const std::string& address) const;
  /// Extracts the resource id from a request's reference headers.
  static std::optional<std::string> id_from(const soap::MessageInfo& info);

  /// Hook invoked after a resource is destroyed (notification producers
  /// and service-group cleanup attach here).
  void on_destroyed(std::function<void(const std::string& id)> hook);

  /// Rehydrates the home from a durable database after a restart:
  /// re-registers a lifetime handle for every document in the collection,
  /// restoring each resource's scheduled termination from the side
  /// collection where finite termination times are persisted (an
  /// unpersisted or unparsable entry degrades to kNever — a leak, never a
  /// premature destroy). Resources already holding a handle are skipped,
  /// so recover() is idempotent. Returns the number of resources
  /// rehydrated. Container deployments register this as a recovery hook.
  std::size_t recover();

  /// Serializes read-modify-write sequences on one resource: hold the
  /// returned lock across load/mutate/save so concurrent writers to the
  /// same resource cannot interleave (writers to other resources usually
  /// proceed in parallel — ids share a fixed set of lock stripes).
  /// Destruction removes the document under the same stripe, so a
  /// sequence that finds the document under the lock saves before the
  /// destroy and never resurrects it. Never call destroy() while holding
  /// a stripe.
  std::unique_lock<std::mutex> lock_resource(const std::string& id) const {
    return locks_.lock(id);
  }

  xmldb::XmlDatabase& db() noexcept { return db_; }
  const std::string& collection() const noexcept { return collection_; }

 private:
  void register_lifetime(const std::string& id, common::TimeMs termination_time);
  /// Side collection ("<collection>_tt") holding one document per resource
  /// with a finite termination time — what recover() reads to restore
  /// schedules. kNever is represented by absence.
  std::string tt_collection() const { return collection_ + "_tt"; }
  void persist_termination(const std::string& id, common::TimeMs t);

  xmldb::XmlDatabase& db_;
  std::string collection_;
  container::LifetimeManager* lifetime_;
  mutable std::mutex mu_;
  mutable common::StripedLocks locks_;
  std::map<std::string, container::LifetimeManager::Handle> handles_;
  std::vector<std::function<void(const std::string&)>> destroy_hooks_;
};

}  // namespace gs::wsrf
