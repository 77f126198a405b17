// The facade every stateful layer persists through.
//
// Before this, each subsystem serialized to xmldb ad hoc: the wsrf home
// wrote property documents and the wse store wrote a flat file.
// DurableStore unifies them behind one contract: a layer opens its
// collection with a schema name and version, and the store records that
// header in a `_meta` collection. On a restart over a
// durable backend the header is checked first — a version drift runs the
// caller's migration hook (or fails loudly) BEFORE any document is
// parsed, so schema evolution is an explicit step, never a parse error
// three layers up.
//
// Documents themselves are NOT wrapped or re-encoded: the header lives in
// its own meta document, and collection octets stay byte-identical to
// what the layer stored. (The wire fast path splices stored octets
// directly into responses; an envelope here would break that.)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "xmldb/database.hpp"

namespace gs::xmldb {

/// Collection header as recorded in `_meta`.
struct CollectionHeader {
  std::string collection;
  std::string schema;   // e.g. "wsrf.resource-properties"
  std::uint32_t version = 0;
};

class DurableStore {
 public:
  /// Called when the on-disk version is older than the code's: migrate the
  /// collection's documents in place and return true, after which the
  /// header is rewritten at the new version. Return false to refuse.
  using Migrator = std::function<bool(XmlDatabase& db,
                                      const std::string& collection,
                                      std::uint32_t found_version)>;

  explicit DurableStore(XmlDatabase& db) : db_(db) {}

  /// Registers (or validates) `collection` under `schema`/`version`.
  /// Returns the version found on the medium before this call, 0 when the
  /// collection is new. Throws std::runtime_error on a schema-name
  /// mismatch, a newer-than-code version, or a refused migration.
  std::uint32_t open_collection(const std::string& collection,
                                const std::string& schema,
                                std::uint32_t version,
                                const Migrator& migrate = nullptr);

  /// Headers currently recorded in `_meta` (diagnostics / telemetry).
  std::vector<CollectionHeader> headers();

  XmlDatabase& db() noexcept { return db_; }

  /// Name of the meta collection ("_meta" — the leading underscore keeps
  /// it out of every layer's own namespace).
  static const char* meta_collection();

 private:
  XmlDatabase& db_;
};

}  // namespace gs::xmldb
