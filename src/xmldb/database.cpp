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

XmlDatabase::Stripe& XmlDatabase::stripe_for(std::string_view collection,
                                              std::string_view id) {
  std::size_t h = std::hash<std::string_view>{}(id) * 31 +
                  std::hash<std::string_view>{}(collection);
  return stripes_[h % kStripes];
}

void XmlDatabase::count(Stat stat) noexcept {
  stats_[telemetry::thread_shard()].n[stat].fetch_add(1, std::memory_order_relaxed);
}

void XmlDatabase::cache_locked(Stripe& stripe, const std::string& collection,
                               const std::string& id,
                               std::shared_ptr<const xml::Element> doc) {
  auto it = stripe.docs.find(KeyView(collection, id));
  if (!doc) {
    if (it != stripe.docs.end()) stripe.docs.erase(it);
  } else if (it != stripe.docs.end()) {
    it->second = std::move(doc);
  } else {
    stripe.docs.emplace(Key(collection, id), std::move(doc));
  }
}

void XmlDatabase::store(const std::string& collection, const std::string& id,
                        const xml::Element& document) {
  telemetry::SpanScope span("xmldb.store", "storage",
                            &telemetry::TraceLog::global(), op_us().store);
  std::string octets = xml::write(document);
  count(kStores);
  if (!options_.write_through_cache) {
    backend_->put(collection, id, octets);
    return;
  }
  Stripe& stripe = stripe_for(collection, id);
  std::uint64_t epoch;
  {
    std::lock_guard lock(stripe.mu);
    epoch = stripe.epoch;
  }
  backend_->put(collection, id, octets);
  std::shared_ptr<const xml::Element> copy = document.clone_element();
  std::lock_guard lock(stripe.mu);
  // The bump lands after the backend write, in the same critical section
  // as the cache update, so a load that read the backend before this put
  // sees a changed epoch by the time it could fill the cache. With a
  // concurrent store/remove of unknown order in between, our copy may not
  // be what the backend now holds (a later store's value, or nothing after
  // a remove): the entry is dropped instead, and the next load
  // repopulates from the backend.
  bool alone = ++stripe.epoch == epoch + 1;
  cache_locked(stripe, collection, id, alone ? std::move(copy) : nullptr);
}

std::unique_ptr<xml::Element> XmlDatabase::load(const std::string& collection,
                                                const std::string& id) {
  telemetry::SpanScope span("xmldb.load", "storage",
                            &telemetry::TraceLog::global(), op_us().load);
  count(kLoads);
  Stripe& stripe = stripe_for(collection, id);
  std::uint64_t epoch = 0;
  if (options_.write_through_cache) {
    std::shared_ptr<const xml::Element> hit;
    {
      std::lock_guard lock(stripe.mu);
      epoch = stripe.epoch;
      auto it = stripe.docs.find(KeyView(collection, id));
      if (it != stripe.docs.end()) hit = it->second;
    }
    if (hit) {
      count(kCacheHits);
      return hit->clone_element();
    }
  }
  std::optional<std::string> octets = backend_->get(collection, id);
  count(kBackendReads);
  if (!octets) return nullptr;
  auto doc = xml::parse_element(*octets);
  if (options_.write_through_cache) {
    std::shared_ptr<const xml::Element> copy = doc->clone_element();
    std::lock_guard lock(stripe.mu);
    // A store/remove that landed after our backend read moved the epoch:
    // what we hold is a valid point-in-time document for the caller, but
    // caching it would shadow the newer state (or resurrect a removed id).
    if (stripe.epoch == epoch) cache_locked(stripe, collection, id, std::move(copy));
  }
  return doc;
}

std::shared_ptr<const std::string> XmlDatabase::load_octets(
    const std::string& collection, const std::string& id) {
  telemetry::SpanScope span("xmldb.load", "storage",
                            &telemetry::TraceLog::global(), op_us().load);
  std::optional<std::string> octets = backend_->get(collection, id);
  count(kLoads);
  count(kBackendReads);
  if (!octets) return nullptr;
  return std::make_shared<const std::string>(std::move(*octets));
}

bool XmlDatabase::remove(const std::string& collection, const std::string& id) {
  telemetry::SpanScope span("xmldb.remove", "storage",
                            &telemetry::TraceLog::global(), op_us().remove);
  bool removed = backend_->remove(collection, id);
  count(kRemoves);
  if (!options_.write_through_cache) return removed;
  Stripe& stripe = stripe_for(collection, id);
  std::lock_guard lock(stripe.mu);
  ++stripe.epoch;  // after the backend remove: a load that saw the document
                   // before it vanished now fails its epoch check and won't
                   // resurrect it in the cache.
  // Erase even when the backend reported the document absent: a cache
  // entry may exist for an id a concurrent store just created, and the
  // caller's intent is "this id is gone".
  cache_locked(stripe, collection, id, nullptr);
  return removed;
}

bool XmlDatabase::contains(const std::string& collection, const std::string& id) {
  if (options_.write_through_cache) {
    Stripe& stripe = stripe_for(collection, id);
    std::lock_guard lock(stripe.mu);
    if (stripe.docs.contains(KeyView(collection, id))) return true;
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
  count(kQueries);
  return out;
}

DbStats XmlDatabase::stats() const {
  std::array<std::uint64_t, kStats> total{};
  for (const StatShard& shard : stats_) {
    for (int i = 0; i < kStats; ++i) total[i] += shard.n[i].load(std::memory_order_relaxed);
  }
  return {total[kStores], total[kLoads], total[kRemoves],
          total[kBackendReads], total[kCacheHits], total[kQueries]};
}

void XmlDatabase::reset_stats() {
  for (StatShard& shard : stats_) {
    for (auto& n : shard.n) n.store(0, std::memory_order_relaxed);
  }
}

}  // namespace gs::xmldb
