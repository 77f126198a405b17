// WS-Eventing subscription store.
//
// The Plumbwork Orange implementation the paper used "maintains the
// subscription lists in a flat XML file" — reproduced here: every mutation
// rewrites one XML document to disk (or keeps it in memory when no path is
// given). Unlike WS-Notification, a subscription is "not associated with a
// resource, but only with a service"; per-resource subscriptions are
// expressed through filters.
#pragma once

#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "soap/addressing.hpp"
#include "xml/xpath.hpp"
#include "xmldb/database.hpp"

namespace gs::wse {

/// Filter dialects supported by this implementation.
enum class FilterDialect {
  kNone,
  kXPath,  // evaluated against the event document
  kTopic,  // exact match on the event's topic string (topic-based pub/sub
           // via filters, as the paper describes)
};

const char* dialect_uri(FilterDialect dialect);
FilterDialect dialect_from_uri(const std::string& uri);

struct WseSubscription {
  std::string id;
  soap::EndpointReference notify_to;          // push delivery sink
  soap::EndpointReference end_to;             // SubscriptionEnd sink (optional)
  FilterDialect dialect = FilterDialect::kNone;
  std::string filter;                         // expression text
  /// kXPath: `filter` compiled once by SubscriptionStore::add or load (null
  /// when it does not compile; such a filter matches nothing).
  std::shared_ptr<const xml::XPathExpr> xpath;
  common::TimeMs expires = 0;                 // absolute; kNever = no expiry
  std::string delivery_mode;                  // recorded mode URI

  static constexpr common::TimeMs kNever =
      std::numeric_limits<common::TimeMs>::max();

  /// True when the filter admits an event with the given topic/document.
  bool accepts(const std::string& topic, const xml::Element& event) const;
};

/// Compiles an XPath filter; throws xml::XPathError when malformed.
std::shared_ptr<const xml::XPathExpr> compile_filter(const std::string& text);

class SubscriptionStore {
 public:
  /// In-memory store.
  SubscriptionStore() = default;
  /// File-backed store: loads `path` if present, rewrites it on mutation
  /// (the Plumbwork flat-file behavior the paper describes).
  explicit SubscriptionStore(std::filesystem::path path);
  /// Database-backed store: one document per subscription in `collection`,
  /// so mutations are per-entry writes the durable (WAL) backend can
  /// group-commit instead of whole-file rewrites. Loads existing entries
  /// on construction; call recover() to reload after the backend is
  /// rehydrated.
  SubscriptionStore(xmldb::XmlDatabase& db, std::string collection);

  using Entry = std::shared_ptr<const WseSubscription>;

  /// Assigns and returns the id. A kXPath filter is compiled here unless
  /// `sub.xpath` already holds it.
  std::string add(WseSubscription sub);
  bool remove(const std::string& id);
  std::optional<WseSubscription> get(const std::string& id) const;
  bool renew(const std::string& id, common::TimeMs new_expires);

  /// Subscriptions live at `now` (expired ones are skipped, not purged).
  /// The entries are shared with the store and stay valid while it changes.
  std::vector<Entry> active(common::TimeMs now) const;
  /// Removes expired subscriptions, returning them (the event source sends
  /// SubscriptionEnd to their EndTo sinks).
  std::vector<WseSubscription> purge_expired(common::TimeMs now);

  size_t size() const;

  /// Reloads the in-memory list from the backing medium (db or file),
  /// dropping corrupt entries with a warn as load does. Returns the number
  /// of subscriptions live after the reload.
  std::size_t recover();

 private:
  void persist_locked() const;
  /// Persists one mutated/added subscription (db mode: targeted store;
  /// file mode: whole-file rewrite).
  void persist_one_locked(const WseSubscription& sub) const;
  /// Persists one removal.
  void erase_one_locked(const std::string& id) const;
  void load();
  void load_locked();
  void note_id_locked(const std::string& id);

  mutable std::mutex mu_;
  std::vector<Entry> subs_;  // an entry is replaced, never mutated
  std::filesystem::path path_;            // file mode; empty otherwise
  xmldb::XmlDatabase* db_ = nullptr;      // db mode; null otherwise
  std::string collection_;
  std::uint64_t next_id_ = 1;
};

}  // namespace gs::wse
