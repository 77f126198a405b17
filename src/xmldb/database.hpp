// The Xindice-substitute XML document database.
//
// Both stacks in the paper persist resources as XML documents in Xindice;
// the paper attributes most of the hello-world latency to this database
// ("Both counter implementations' performance is dominated by Xindice.
// Creating resources ... is always slower than reading or updating them").
// This class reproduces that cost structure on a pluggable Backend and adds
// the write-through cache whose presence explains WSRF.NET's faster Set.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

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
  static std::string cache_key(const std::string& collection, const std::string& id);

  std::unique_ptr<Backend> backend_;
  Options options_;
  mutable std::mutex mu_;
  // Mutation epoch, bumped (under mu_) by every store/remove. Loads read
  // the backend outside the lock, so a fill races with concurrent
  // mutations; capturing the epoch before the backend read and filling
  // only if it is unchanged makes the coherence rule explicit: a cache
  // entry never outlives the mutation that invalidated it. The guard is
  // global rather than per-key — a spurious miss costs a re-read, a stale
  // hit would resurrect a removed document.
  std::uint64_t epoch_ = 0;
  std::map<std::string, std::unique_ptr<xml::Element>> cache_;
  DbStats stats_;
};

}  // namespace gs::xmldb
