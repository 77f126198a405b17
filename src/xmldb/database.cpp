#include "xmldb/database.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace gs::xmldb {

namespace {

// Per-operation latency histograms, resolved once. Each storage op opens
// a span that records its duration into one of them.
struct OpHistograms {
  telemetry::Histogram* store;
  telemetry::Histogram* load;
  telemetry::Histogram* remove;
  telemetry::Histogram* query;
};

const OpHistograms& op_us() {
  static const OpHistograms histograms = [] {
    telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
    return OpHistograms{&registry.histogram("xmldb.store_us"),
                        &registry.histogram("xmldb.load_us"),
                        &registry.histogram("xmldb.remove_us"),
                        &registry.histogram("xmldb.query_us")};
  }();
  return histograms;
}

}  // namespace

XmlDatabase::XmlDatabase(std::unique_ptr<Backend> backend, Options options)
    : backend_(std::move(backend)), options_(options) {}

std::string XmlDatabase::cache_key(const std::string& collection,
                                   const std::string& id) {
  return collection + "\x1f" + id;
}

void XmlDatabase::store(const std::string& collection, const std::string& id,
                        const xml::Element& document) {
  telemetry::SpanScope span("xmldb.store", "storage",
                            &telemetry::TraceLog::global(), op_us().store);
  std::string octets = xml::write(document);
  std::uint64_t epoch;
  {
    std::lock_guard lock(mu_);
    epoch = epoch_;
  }
  backend_->put(collection, id, octets);
  std::lock_guard lock(mu_);
  ++stats_.stores;
  ++epoch_;  // the bump lands after the backend write, in the same
             // critical section as the cache update, so a load that read
             // the backend before this put sees a changed epoch by the
             // time it could fill the cache.
  if (options_.write_through_cache) {
    if (epoch_ == epoch + 1) {
      // No other mutation interleaved with our put.
      cache_[cache_key(collection, id)] = document.clone_element();
    } else {
      // A concurrent store/remove of unknown order raced our put — our
      // copy may not be what the backend now holds (a later store's
      // value, or nothing after a remove). Drop the entry; the next load
      // repopulates from the backend.
      cache_.erase(cache_key(collection, id));
    }
  }
}

std::unique_ptr<xml::Element> XmlDatabase::load(const std::string& collection,
                                                const std::string& id) {
  telemetry::SpanScope span("xmldb.load", "storage",
                            &telemetry::TraceLog::global(), op_us().load);
  std::uint64_t epoch;
  {
    std::lock_guard lock(mu_);
    ++stats_.loads;
    if (options_.write_through_cache) {
      auto it = cache_.find(cache_key(collection, id));
      if (it != cache_.end()) {
        ++stats_.cache_hits;
        return it->second->clone_element();
      }
    }
    epoch = epoch_;
  }
  std::optional<std::string> octets = backend_->get(collection, id);
  {
    std::lock_guard lock(mu_);
    ++stats_.backend_reads;
  }
  if (!octets) return nullptr;
  auto doc = xml::parse_element(*octets);
  if (options_.write_through_cache) {
    std::lock_guard lock(mu_);
    if (epoch_ == epoch) cache_[cache_key(collection, id)] = doc->clone_element();
    // else: a store/remove landed after our backend read — what we hold is
    // a valid point-in-time document for the caller, but caching it would
    // shadow the newer state (or resurrect a removed id).
  }
  return doc;
}

std::shared_ptr<const std::string> XmlDatabase::load_octets(
    const std::string& collection, const std::string& id) {
  telemetry::SpanScope span("xmldb.load", "storage",
                            &telemetry::TraceLog::global(), op_us().load);
  std::optional<std::string> octets = backend_->get(collection, id);
  {
    std::lock_guard lock(mu_);
    ++stats_.loads;
    ++stats_.backend_reads;
  }
  if (!octets) return nullptr;
  return std::make_shared<const std::string>(std::move(*octets));
}

bool XmlDatabase::remove(const std::string& collection, const std::string& id) {
  telemetry::SpanScope span("xmldb.remove", "storage",
                            &telemetry::TraceLog::global(), op_us().remove);
  bool removed = backend_->remove(collection, id);
  std::lock_guard lock(mu_);
  ++stats_.removes;
  ++epoch_;  // after the backend remove: a load that saw the document
             // before it vanished now fails its epoch check and won't
             // resurrect it in the cache.
  // Erase even when the backend reported the document absent: a cache
  // entry may exist for an id a concurrent store just created, and the
  // caller's intent is "this id is gone".
  cache_.erase(cache_key(collection, id));
  return removed;
}

bool XmlDatabase::contains(const std::string& collection, const std::string& id) {
  {
    std::lock_guard lock(mu_);
    if (options_.write_through_cache &&
        cache_.contains(cache_key(collection, id))) {
      return true;
    }
  }
  return backend_->contains(collection, id);
}

std::vector<std::string> XmlDatabase::ids(const std::string& collection) {
  return backend_->list(collection);
}

std::vector<QueryMatch> XmlDatabase::query(const std::string& collection,
                                           const xml::XPathExpr& expr) {
  telemetry::SpanScope span("xmldb.query", "storage",
                            &telemetry::TraceLog::global(), op_us().query);
  std::vector<QueryMatch> out;
  for (const std::string& id : backend_->list(collection)) {
    std::unique_ptr<xml::Element> doc = load(collection, id);
    if (!doc) continue;  // raced with a remove
    xml::XPathValue value = expr.eval(*doc);
    bool matches = value.is_node_set() ? !value.node_set().empty()
                                       : value.to_boolean();
    if (matches) out.push_back({id, std::move(doc)});
  }
  std::lock_guard lock(mu_);
  ++stats_.queries;
  return out;
}

DbStats XmlDatabase::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void XmlDatabase::reset_stats() {
  std::lock_guard lock(mu_);
  stats_ = DbStats{};
}

}  // namespace gs::xmldb
