#include "wsn/filter.hpp"

#include "soap/namespaces.hpp"

namespace gs::wsn {

namespace {
xml::QName wsnt(const char* local) { return {soap::ns::kWsnBase, local}; }
constexpr const char* kXPathDialect =
    "http://www.w3.org/TR/1999/REC-xpath-19991116";
}  // namespace

bool Filter::accepts(const std::string& topic, const xml::Element& message,
                     const xml::Element* producer_properties) const {
  if (topic_ && !topic_->matches(topic)) return false;
  if (content_ && !content_->matches(message)) return false;
  if (producer_) {
    if (!producer_properties) return false;
    if (!producer_->matches(*producer_properties)) return false;
  }
  return true;
}

std::unique_ptr<xml::Element> Filter::to_xml(const xml::QName& wrapper) const {
  auto el = std::make_unique<xml::Element>(wrapper);
  if (topic_) {
    xml::Element& t = el->append_element(wsnt("TopicExpression"));
    t.set_attr("Dialect", TopicExpression::dialect_uri(topic_->dialect()));
    t.set_text(topic_->text());
  }
  if (content_) {
    xml::Element& c = el->append_element(wsnt("MessageContent"));
    c.set_attr("Dialect", kXPathDialect);
    c.set_text(content_->text());
  }
  if (producer_) {
    xml::Element& p = el->append_element(wsnt("ProducerProperties"));
    p.set_attr("Dialect", kXPathDialect);
    p.set_text(producer_->text());
  }
  return el;
}

Filter Filter::from_xml(const xml::Element& el) {
  Filter out;
  if (const xml::Element* t = el.child(wsnt("TopicExpression"))) {
    TopicExpression::Dialect dialect = TopicExpression::dialect_from_uri(
        t->attr("Dialect").value_or(
            TopicExpression::dialect_uri(TopicExpression::Dialect::kConcrete)));
    out.set_topic(TopicExpression::parse(dialect, t->text()));
  }
  if (const xml::Element* c = el.child(wsnt("MessageContent"))) {
    out.set_message_content(c->text());
  }
  if (const xml::Element* p = el.child(wsnt("ProducerProperties"))) {
    out.set_producer_properties(p->text());
  }
  return out;
}

}  // namespace gs::wsn
