#include "wsrf/resource.hpp"

#include "common/uuid.hpp"
#include "wsrf/base_faults.hpp"

namespace gs::wsrf {

namespace {
constexpr const char* kWsrfNetNs = "http://gridstacks.dev/wsrf";
}  // namespace

xml::QName resource_id_qname() { return {kWsrfNetNs, "ResourceID"}; }

void PropertySet::declare_stored(xml::QName name) {
  ResourceProperty prop;
  prop.name = name;
  prop.get = [name](const xml::Element& state) {
    std::vector<std::unique_ptr<xml::Element>> out;
    for (const xml::Element* child : state.children_named(name)) {
      out.push_back(child->clone_element());
    }
    return out;
  };
  prop.set = [name](xml::Element& state,
                    const std::vector<const xml::Element*>& values) {
    // Replace all existing occurrences with the new values.
    for (;;) {
      xml::Element* existing = state.child(name);
      if (!existing) break;
      state.remove_child(*existing);
    }
    for (const xml::Element* v : values) state.append(v->clone());
  };
  props_.push_back(std::move(prop));
}

void PropertySet::declare_computed(xml::QName name,
                                   ResourceProperty::Getter getter) {
  props_.push_back({std::move(name), std::move(getter), nullptr});
}

void PropertySet::declare_computed_rw(xml::QName name,
                                      ResourceProperty::Getter getter,
                                      ResourceProperty::Setter setter) {
  props_.push_back({std::move(name), std::move(getter), std::move(setter)});
}

const ResourceProperty* PropertySet::find(const xml::QName& name) const {
  for (const auto& p : props_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::unique_ptr<xml::Element> PropertySet::document(
    const xml::Element& state, xml::QName document_name) const {
  auto doc = std::make_unique<xml::Element>(std::move(document_name));
  for (const auto& p : props_) {
    for (auto& el : p.get(state)) doc->append(std::move(el));
  }
  return doc;
}

ResourceHome::ResourceHome(xmldb::XmlDatabase& db, std::string collection,
                           container::LifetimeManager* lifetime)
    : db_(db), collection_(std::move(collection)), lifetime_(lifetime) {}

std::string ResourceHome::create(std::unique_ptr<xml::Element> initial_state,
                                 common::TimeMs termination_time) {
  std::string id = common::new_uuid();
  create_with_id(id, std::move(initial_state), termination_time);
  return id;
}

void ResourceHome::create_with_id(const std::string& id,
                                  std::unique_ptr<xml::Element> initial_state,
                                  common::TimeMs termination_time) {
  db_.store(collection_, id, *initial_state);
  persist_termination(id, termination_time);
  register_lifetime(id, termination_time);
}

void ResourceHome::persist_termination(const std::string& id, common::TimeMs t) {
  if (!lifetime_) return;  // no scheduled termination to survive a restart
  if (t == container::LifetimeManager::kNever) {
    db_.remove(tt_collection(), id);
  } else {
    xml::Element doc{xml::QName("termination")};
    doc.set_attr("ms", std::to_string(t));
    db_.store(tt_collection(), id, doc);
  }
}

void ResourceHome::register_lifetime(const std::string& id,
                                     common::TimeMs termination_time) {
  if (!lifetime_) return;
  container::LifetimeManager::Handle handle = lifetime_->schedule(
      termination_time, [this, id] {
        {
          // A read-modify-write holding the stripe finishes its save
          // before the removal, or finds the document gone; it never
          // writes a destroyed resource back.
          auto stripe = lock_resource(id);
          db_.remove(collection_, id);
          db_.remove(tt_collection(), id);
        }
        std::vector<std::function<void(const std::string&)>> hooks;
        {
          std::lock_guard lock(mu_);
          handles_.erase(id);
          hooks = destroy_hooks_;
        }
        for (const auto& hook : hooks) hook(id);
      });
  std::lock_guard lock(mu_);
  handles_[id] = handle;
}

std::size_t ResourceHome::recover() {
  std::size_t rehydrated = 0;
  for (const std::string& id : db_.ids(collection_)) {
    {
      std::lock_guard lock(mu_);
      if (handles_.count(id)) continue;  // already live in this process
    }
    common::TimeMs t = container::LifetimeManager::kNever;
    if (auto doc = db_.load(tt_collection(), id)) {
      try {
        t = std::stoll(doc->attr("ms").value_or(""));
      } catch (const std::exception&) {
        t = container::LifetimeManager::kNever;
      }
    }
    // A termination time already in the past is re-registered as is: the
    // next lifetime sweep destroys the resource through the normal path
    // (running destroy hooks), exactly as if the container had been up.
    register_lifetime(id, t);
    ++rehydrated;
  }
  return rehydrated;
}

std::unique_ptr<xml::Element> ResourceHome::load(const std::string& id) const {
  auto state = db_.load(collection_, id);
  if (!state) {
    throw_base_fault(FaultType::kResourceUnknown,
                     "no resource '" + id + "' in " + collection_);
  }
  return state;
}

std::unique_ptr<xml::Element> ResourceHome::try_load(const std::string& id) const {
  return db_.load(collection_, id);
}

void ResourceHome::save(const std::string& id, const xml::Element& state) {
  db_.store(collection_, id, state);
}

bool ResourceHome::destroy(const std::string& id) {
  container::LifetimeManager::Handle handle = 0;
  {
    std::lock_guard lock(mu_);
    auto it = handles_.find(id);
    if (it != handles_.end()) {
      handle = it->second;
    }
  }
  if (handle != 0 && lifetime_) {
    // destroy() runs the scheduled callback, which removes the document
    // (and its persisted termination time) under the stripe and fires the
    // hooks — so the stripe must not be held here.
    return lifetime_->destroy(handle);
  }
  bool removed;
  {
    auto stripe = lock_resource(id);
    removed = db_.remove(collection_, id);
    if (removed && lifetime_) db_.remove(tt_collection(), id);
  }
  if (removed) {
    std::vector<std::function<void(const std::string&)>> hooks;
    {
      std::lock_guard lock(mu_);
      hooks = destroy_hooks_;
    }
    for (const auto& hook : hooks) hook(id);
  }
  return removed;
}

bool ResourceHome::exists(const std::string& id) const {
  return db_.contains(collection_, id);
}

std::vector<std::string> ResourceHome::ids() const { return db_.ids(collection_); }

bool ResourceHome::set_termination_time(const std::string& id, common::TimeMs t) {
  container::LifetimeManager::Handle handle;
  {
    std::lock_guard lock(mu_);
    auto it = handles_.find(id);
    if (it == handles_.end() || !lifetime_) return false;
    handle = it->second;
  }
  bool ok = lifetime_->set_termination_time(handle, t);
  if (ok) persist_termination(id, t);  // outside mu_: persist takes the db path
  return ok;
}

std::optional<common::TimeMs> ResourceHome::termination_time(
    const std::string& id) const {
  std::lock_guard lock(mu_);
  auto it = handles_.find(id);
  if (it == handles_.end() || !lifetime_) return std::nullopt;
  return lifetime_->termination_time(it->second);
}

soap::EndpointReference ResourceHome::epr_for(const std::string& id,
                                              const std::string& address) const {
  soap::EndpointReference epr(address);
  epr.add_reference_property(resource_id_qname(), id);
  return epr;
}

std::optional<std::string> ResourceHome::id_from(const soap::MessageInfo& info) {
  return info.reference_header(resource_id_qname());
}

void ResourceHome::on_destroyed(std::function<void(const std::string&)> hook) {
  std::lock_guard lock(mu_);
  destroy_hooks_.push_back(std::move(hook));
}

}  // namespace gs::wsrf
