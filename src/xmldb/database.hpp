// The Xindice-substitute XML document database.
//
// Both stacks in the paper persist resources as XML documents in Xindice;
// the paper attributes most of the hello-world latency to this database
// ("Both counter implementations' performance is dominated by Xindice.
// Creating resources ... is always slower than reading or updating them").
// This class reproduces that cost structure on a pluggable Backend and adds
// the write-through cache whose presence explains WSRF.NET's faster Set.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "xml/node.hpp"
#include "xml/xpath.hpp"
#include "xmldb/backend.hpp"

namespace gs::xmldb {

/// Operation counters (tests and the cache ablation read these).
struct DbStats {
  std::uint64_t stores = 0;
  std::uint64_t loads = 0;
  std::uint64_t removes = 0;
  std::uint64_t backend_reads = 0;   // loads that actually hit the backend
  std::uint64_t cache_hits = 0;
  std::uint64_t queries = 0;
};

/// A query match: document id plus its parsed root.
struct QueryMatch {
  std::string id;
  std::unique_ptr<xml::Element> document;
};

struct DbOptions {
  /// Write-through resource cache: stores update the cache; loads served
  /// from it skip the backend read and the re-parse. This is the
  /// WSRF.NET optimization the paper credits for its faster Set.
  bool write_through_cache = false;
};

class XmlDatabase {
 public:
  using Options = DbOptions;

  explicit XmlDatabase(std::unique_ptr<Backend> backend,
                       Options options = Options());

  /// Serializes and stores a document under (collection, id), replacing any
  /// previous version.
  void store(const std::string& collection, const std::string& id,
             const xml::Element& document);

  /// Loads and parses a document; nullptr when absent.
  std::unique_ptr<xml::Element> load(const std::string& collection,
                                     const std::string& id);

  /// Loads a document's stored octets from the backend without parsing
  /// them — an uncached WS-Transfer Get splices these straight into its
  /// response (the octets were produced by xml::write at store time, so
  /// re-serializing the parsed document reproduces them byte for byte).
  /// nullptr when absent.
  std::shared_ptr<const std::string> load_octets(const std::string& collection,
                                                 const std::string& id);

  /// Removes a document; false when absent.
  bool remove(const std::string& collection, const std::string& id);

  bool contains(const std::string& collection, const std::string& id);
  std::vector<std::string> ids(const std::string& collection);

  /// Evaluates `expr` against every document in the collection and returns
  /// the documents where it selects a non-empty result / true value —
  /// the "rich queries over the state of multiple resources" of the paper.
  std::vector<QueryMatch> query(const std::string& collection,
                                const xml::XPathExpr& expr);

  DbStats stats() const;
  void reset_stats();

  Backend& backend() noexcept { return *backend_; }
  bool cache_enabled() const noexcept { return options_.write_through_cache; }

 private:
  // Cache key: (collection, id), found by string_view pair so a lookup
  // builds no string.
  using Key = std::pair<std::string, std::string>;
  using KeyView = std::pair<std::string_view, std::string_view>;
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return KeyView(a.first, a.second) < KeyView(b.first, b.second);
    }
  };
  // One cache stripe: the documents whose key hashes here, and their
  // mutation epoch. Entries are immutable and shared, so a hit copies a
  // pointer under the stripe lock and clones outside it. Two requests
  // write one stripe's lock only when their keys share the stripe.
  struct alignas(64) Stripe {
    std::mutex mu;
    // Bumped by every store/remove of a key in this stripe. Loads read the
    // backend outside the lock, so a fill races with concurrent mutations;
    // capturing the epoch before the backend read and filling only if it
    // is unchanged makes the coherence rule explicit: a cache entry never
    // outlives the mutation that invalidated it. The guard covers the
    // stripe rather than the key — a spurious miss costs a re-read, a
    // stale hit would resurrect a removed document.
    std::uint64_t epoch = 0;
    std::map<Key, std::shared_ptr<const xml::Element>, KeyLess> docs;
  };
  static constexpr std::size_t kStripes = 64;

  enum Stat { kStores, kLoads, kRemoves, kBackendReads, kCacheHits, kQueries, kStats };
  // Operation counts, one shard per writing thread (see telemetry::Counter).
  struct alignas(64) StatShard {
    std::array<std::atomic<std::uint64_t>, kStats> n{};
  };

  Stripe& stripe_for(std::string_view collection, std::string_view id);
  /// Sets the key's entry to `doc`, or erases it for a null `doc`. Needs
  /// the stripe's lock.
  static void cache_locked(Stripe& stripe, const std::string& collection,
                           const std::string& id,
                           std::shared_ptr<const xml::Element> doc);
  void count(Stat stat) noexcept;

  std::unique_ptr<Backend> backend_;
  Options options_;
  std::array<Stripe, kStripes> stripes_;
  std::array<StatShard, telemetry::kMetricShards> stats_;
};

}  // namespace gs::xmldb
