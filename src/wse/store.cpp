#include "wse/store.hpp"

#include <fstream>

#include "common/parse.hpp"
#include "soap/namespaces.hpp"
#include "telemetry/event_log.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace gs::wse {

namespace {
xml::QName wse(const char* local) { return {soap::ns::kEventing, local}; }

constexpr const char* kXPathUri = "http://www.w3.org/TR/1999/REC-xpath-19991116";
constexpr const char* kTopicUri = "http://gridstacks.dev/wse/topic";

/// Null when `text` does not compile: the subscription then matches nothing.
std::shared_ptr<const xml::XPathExpr> try_compile_filter(const std::string& text) {
  try {
    return compile_filter(text);
  } catch (const xml::XPathError&) {
    return nullptr;
  }
}
}  // namespace

std::shared_ptr<const xml::XPathExpr> compile_filter(const std::string& text) {
  return std::make_shared<const xml::XPathExpr>(xml::XPathExpr::compile(text));
}

const char* dialect_uri(FilterDialect dialect) {
  switch (dialect) {
    case FilterDialect::kNone: return "";
    case FilterDialect::kXPath: return kXPathUri;
    case FilterDialect::kTopic: return kTopicUri;
  }
  return "";
}

FilterDialect dialect_from_uri(const std::string& uri) {
  if (uri.empty()) return FilterDialect::kNone;
  if (uri == kXPathUri) return FilterDialect::kXPath;
  if (uri == kTopicUri) return FilterDialect::kTopic;
  throw std::invalid_argument("unsupported WS-Eventing filter dialect: " + uri);
}

bool WseSubscription::accepts(const std::string& topic,
                              const xml::Element& event) const {
  switch (dialect) {
    case FilterDialect::kNone:
      return true;
    case FilterDialect::kTopic:
      return filter == topic;
    case FilterDialect::kXPath:
      try {
        // A subscription built outside the store carries no compiled form.
        return xpath ? xpath->matches(event)
                     : compile_filter(filter)->matches(event);
      } catch (const xml::XPathError&) {
        return false;  // unparsable filter never matches
      }
  }
  return false;
}

SubscriptionStore::SubscriptionStore(std::filesystem::path path)
    : path_(std::move(path)) {
  load();
}

SubscriptionStore::SubscriptionStore(xmldb::XmlDatabase& db,
                                     std::string collection)
    : db_(&db), collection_(std::move(collection)) {
  load();
}

std::string SubscriptionStore::add(WseSubscription sub) {
  if (sub.dialect == FilterDialect::kXPath && !sub.xpath) {
    sub.xpath = try_compile_filter(sub.filter);
  }
  std::lock_guard lock(mu_);
  sub.id = "wse-sub-" + std::to_string(next_id_++);
  subs_.push_back(std::make_shared<const WseSubscription>(std::move(sub)));
  persist_one_locked(*subs_.back());
  return subs_.back()->id;
}

bool SubscriptionStore::remove(const std::string& id) {
  std::lock_guard lock(mu_);
  for (auto it = subs_.begin(); it != subs_.end(); ++it) {
    if ((*it)->id == id) {
      subs_.erase(it);
      erase_one_locked(id);
      return true;
    }
  }
  return false;
}

std::optional<WseSubscription> SubscriptionStore::get(const std::string& id) const {
  std::lock_guard lock(mu_);
  for (const Entry& sub : subs_) {
    if (sub->id == id) return *sub;
  }
  return std::nullopt;
}

bool SubscriptionStore::renew(const std::string& id, common::TimeMs new_expires) {
  std::lock_guard lock(mu_);
  for (Entry& sub : subs_) {
    if (sub->id == id) {
      auto renewed = std::make_shared<WseSubscription>(*sub);
      renewed->expires = new_expires;
      sub = std::move(renewed);
      persist_one_locked(*sub);
      return true;
    }
  }
  return false;
}

std::vector<SubscriptionStore::Entry> SubscriptionStore::active(
    common::TimeMs now) const {
  std::lock_guard lock(mu_);
  std::vector<Entry> out;
  for (const Entry& sub : subs_) {
    if (sub->expires == WseSubscription::kNever || sub->expires > now) {
      out.push_back(sub);
    }
  }
  return out;
}

std::vector<WseSubscription> SubscriptionStore::purge_expired(common::TimeMs now) {
  std::lock_guard lock(mu_);
  std::vector<WseSubscription> expired;
  for (auto it = subs_.begin(); it != subs_.end();) {
    if ((*it)->expires != WseSubscription::kNever && (*it)->expires <= now) {
      expired.push_back(**it);
      it = subs_.erase(it);
    } else {
      ++it;
    }
  }
  if (!expired.empty()) {
    if (db_) {
      for (const auto& sub : expired) db_->remove(collection_, sub.id);
    } else {
      persist_locked();
    }
  }
  return expired;
}

size_t SubscriptionStore::size() const {
  std::lock_guard lock(mu_);
  return subs_.size();
}

namespace {

std::unique_ptr<xml::Element> subscription_element(const WseSubscription& sub) {
  auto el = std::make_unique<xml::Element>(wse("Subscription"));
  el->set_attr("id", sub.id);
  el->append(sub.notify_to.to_xml(wse("NotifyTo")));
  if (!sub.end_to.empty()) el->append(sub.end_to.to_xml(wse("EndTo")));
  if (sub.dialect != FilterDialect::kNone) {
    xml::Element& f = el->append_element(wse("Filter"));
    f.set_attr("Dialect", dialect_uri(sub.dialect));
    f.set_text(sub.filter);
  }
  el->append_element(wse("Expires"))
      .set_text(sub.expires == WseSubscription::kNever
                    ? "infinite"
                    : std::to_string(sub.expires));
  if (!sub.delivery_mode.empty()) {
    el->append_element(wse("Mode")).set_text(sub.delivery_mode);
  }
  return el;
}

/// Parses one persisted subscription; nullopt (with a warn) on a corrupt
/// Expires — the PR-8 tolerance rule: drop the entry, keep the rest.
std::optional<WseSubscription> subscription_from_element(
    const xml::Element& el) {
  WseSubscription sub;
  sub.id = el.attr("id").value_or("");
  if (const xml::Element* n = el.child(wse("NotifyTo"))) {
    sub.notify_to = soap::EndpointReference::from_xml(*n);
  }
  if (const xml::Element* e = el.child(wse("EndTo"))) {
    sub.end_to = soap::EndpointReference::from_xml(*e);
  }
  if (const xml::Element* f = el.child(wse("Filter"))) {
    sub.dialect = dialect_from_uri(f->attr("Dialect").value_or(""));
    sub.filter = f->text();
    if (sub.dialect == FilterDialect::kXPath) {
      sub.xpath = try_compile_filter(sub.filter);
    }
  }
  if (const xml::Element* x = el.child(wse("Expires"))) {
    if (x->text() == "infinite") {
      sub.expires = WseSubscription::kNever;
    } else if (auto expires = common::parse_number<common::TimeMs>(x->text())) {
      sub.expires = *expires;
    } else {
      // A corrupt persisted Expires must not abort the whole load (the
      // old std::stoll threw out of the constructor): drop this entry,
      // keep every other subscription.
      telemetry::EventLog::global().emit(
          telemetry::Level::kWarn, "wse.store",
          "dropping subscription with malformed Expires",
          {{"id", sub.id}, {"expires", x->text()}});
      return std::nullopt;
    }
  }
  if (const xml::Element* m = el.child(wse("Mode"))) {
    sub.delivery_mode = m->text();
  }
  return sub;
}

}  // namespace

void SubscriptionStore::persist_locked() const {
  if (path_.empty()) return;
  xml::Element doc(wse("Subscriptions"));
  for (const Entry& sub : subs_) doc.append(subscription_element(*sub));
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out << xml::write(doc, {.pretty = true, .declaration = true});
}

void SubscriptionStore::persist_one_locked(const WseSubscription& sub) const {
  if (db_) {
    db_->store(collection_, sub.id, *subscription_element(sub));
  } else {
    persist_locked();
  }
}

void SubscriptionStore::erase_one_locked(const std::string& id) const {
  if (db_) {
    db_->remove(collection_, id);
  } else {
    persist_locked();
  }
}

void SubscriptionStore::note_id_locked(const std::string& id) {
  // Keep next_id_ ahead of loaded ids (malformed suffixes don't bump it).
  if (id.starts_with("wse-sub-")) {
    if (auto n = common::parse_number<std::uint64_t>(id.substr(8))) {
      if (*n >= next_id_) next_id_ = *n + 1;
    }
  }
}

void SubscriptionStore::load() {
  std::lock_guard lock(mu_);
  load_locked();
}

void SubscriptionStore::load_locked() {
  subs_.clear();
  if (db_) {
    for (const std::string& id : db_->ids(collection_)) {
      std::unique_ptr<xml::Element> el = db_->load(collection_, id);
      if (!el) continue;
      if (auto sub = subscription_from_element(*el)) {
        note_id_locked(sub->id);
        subs_.push_back(std::make_shared<const WseSubscription>(std::move(*sub)));
      }
    }
    return;
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;
  std::string octets(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
  if (octets.empty()) return;
  auto doc = xml::parse_element(octets);
  for (const xml::Element* el : doc->children_named(wse("Subscription"))) {
    if (auto sub = subscription_from_element(*el)) {
      note_id_locked(sub->id);
      subs_.push_back(std::make_shared<const WseSubscription>(std::move(*sub)));
    }
  }
}

std::size_t SubscriptionStore::recover() {
  std::lock_guard lock(mu_);
  load_locked();
  return subs_.size();
}

}  // namespace gs::wse
