#include "app/counter_core.hpp"

#include "common/parse.hpp"
#include "soap/envelope.hpp"
#include "soap/namespaces.hpp"

namespace gs::app {

xml::QName CounterCore::qn(const char* local) {
  return {soap::ns::kCounter, local};
}

xml::QName CounterCore::value_qname() { return qn("cv"); }
xml::QName CounterCore::double_value_qname() { return qn("DoubleValue"); }

CounterCore::CounterCore(xmldb::XmlDatabase& db, std::string collection)
    : db_(db), collection_(std::move(collection)) {}

std::unique_ptr<xml::Element> CounterCore::make_document(int value) {
  auto doc = std::make_unique<xml::Element>(qn("Counter"));
  doc->append_element(value_qname()).set_text(std::to_string(value));
  return doc;
}

int CounterCore::value_of(const xml::Element& doc) {
  const xml::Element* cv = doc.child(value_qname());
  if (!cv) return 0;
  // The cv text came off the wire (WS-Transfer Put stores the client's
  // document verbatim); garbage must come back as a Sender fault, not
  // escape as std::invalid_argument and kill the container.
  auto value = common::parse_number<int>(cv->text());
  if (!value) {
    throw soap::SoapFault("Sender",
                          "malformed counter value '" + cv->text() + "'");
  }
  return *value;
}

void CounterCore::apply_put(const std::string& id,
                            const xml::Element& replacement) {
  std::string value;
  {
    auto lock = locks_.lock(id);
    auto current = db_.load(collection_, id);
    if (!current) {
      throw soap::SoapFault("Sender", "unknown resource '" + id + "'");
    }
    const xml::Element* new_cv = replacement.child(value_qname());
    if (!new_cv) {
      // The out-of-band schema contract was violated; WS-Transfer itself
      // cannot catch this earlier (no input schema).
      throw soap::SoapFault("Sender",
                            "replacement document has no cv element");
    }
    value = new_cv->text();
    if (xml::Element* cv = current->child(value_qname())) {
      cv->set_text(value);
    } else {
      current->append_element(value_qname()).set_text(value);
    }
    db_.store(collection_, id, *current);
  }
  fire(id, value);
}

void CounterCore::note_changed(const std::string& id,
                               const xml::Element& state) {
  const xml::Element* cv = state.child(value_qname());
  fire(id, cv ? cv->text() : "");
}

std::unique_ptr<xml::Element> CounterCore::changed_event(
    const std::string& value, const soap::EndpointReference& counter_epr) {
  auto event = std::make_unique<xml::Element>(qn(kValueChangedTopic));
  event->append_element(qn("Value")).set_text(value);
  event->append(counter_epr.to_xml(qn("CounterEPR")));
  return event;
}

void CounterCore::on_value_changed(ValueChanged listener) {
  listeners_.push_back(std::move(listener));
}

void CounterCore::fire(const std::string& id, const std::string& value) {
  for (const auto& listener : listeners_) listener(id, value);
}

}  // namespace gs::app
