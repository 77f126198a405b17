// Stack-agnostic counter core: the "hello world" application state shared
// by the WSRF and WS-Transfer front-ends.
//
// The paper's central claim is that the *same application* runs over both
// stacks; this class is that application. It owns the counter document
// schema (<Counter><cv>N</cv></Counter> plus the computed DoubleValue),
// the read-modify-write update with per-resource locking, and the
// CounterValueChanged signal. The bindings in src/counter only translate
// protocol operations (WS-ResourceProperties sets, WS-Transfer Puts) onto
// this core and wrap the signal in their stack's eventing.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/locks.hpp"
#include "soap/addressing.hpp"
#include "xml/node.hpp"
#include "xmldb/database.hpp"

namespace gs::app {

class CounterCore {
 public:
  /// QNames of the shared document schema.
  static xml::QName qn(const char* local);
  static xml::QName value_qname();         // the stored counter value, cv
  static xml::QName double_value_qname();  // computed: cv * 2

  /// Topic published whenever cv changes (both stacks).
  static constexpr const char* kValueChangedTopic = "CounterValueChanged";

  explicit CounterCore(xmldb::XmlDatabase& db,
                       std::string collection = "counters");

  xmldb::XmlDatabase& db() noexcept { return db_; }
  const std::string& collection() const noexcept { return collection_; }

  /// <Counter><cv>value</cv></Counter>
  static std::unique_ptr<xml::Element> make_document(int value);
  /// Reads cv out of a counter document; 0 when the element is absent.
  static int value_of(const xml::Element& doc);
  /// The paper's [ResourceProperty] fragment: DoubleValue => cv * 2.
  static int double_value_of(const xml::Element& doc) {
    return value_of(doc) * 2;
  }

  /// Read-modify-write update (the WS-Transfer Put the paper measures):
  /// loads the stored document, replaces cv with the replacement's value,
  /// stores it back — all under the resource's lock stripe so concurrent
  /// writers cannot interleave the load/store — then fires the
  /// value-changed signal. Faults: "unknown resource '<id>'" and
  /// "replacement document has no cv element".
  void apply_put(const std::string& id, const xml::Element& replacement);

  /// Fires the value-changed signal with the cv of `state`, the document
  /// just committed for `id` (the WSRF binding calls this after
  /// SetResourceProperties persisted it through the resource home).
  void note_changed(const std::string& id, const xml::Element& state);

  /// The CounterValueChanged payload: Value + the counter's EPR so a
  /// client with many counters can tell which fired.
  static std::unique_ptr<xml::Element> changed_event(
      const std::string& value, const soap::EndpointReference& counter_epr);

  using ValueChanged =
      std::function<void(const std::string& id, const std::string& value)>;
  /// Registers a listener; setup-time only (not synchronized).
  void on_value_changed(ValueChanged listener);

 private:
  void fire(const std::string& id, const std::string& value);

  xmldb::XmlDatabase& db_;
  std::string collection_;
  common::StripedLocks locks_;
  std::vector<ValueChanged> listeners_;
};

}  // namespace gs::app
