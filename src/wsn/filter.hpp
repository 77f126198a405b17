// WS-Notification subscription filters.
//
// A subscribe request may carry up to three filter components, all of which
// must pass for a message to be delivered:
//   * TopicExpression            — against the message's topic;
//   * MessageContent (XPath)     — against the notification payload;
//   * ProducerProperties (XPath) — against the producer's current resource
//                                  properties document.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "xml/node.hpp"
#include "xml/xpath.hpp"
#include "wsn/topics.hpp"

namespace gs::wsn {

class Filter {
 public:
  Filter() = default;

  void set_topic(TopicExpression expr) { topic_ = std::move(expr); }
  /// Compiles the expression once; throws xml::XPathError when malformed.
  void set_message_content(const std::string& xpath) { content_ = compile(xpath); }
  void set_producer_properties(const std::string& xpath) {
    producer_ = compile(xpath);
  }

  const std::optional<TopicExpression>& topic() const noexcept { return topic_; }
  bool has_content_filter() const noexcept { return content_ != nullptr; }
  bool has_producer_filter() const noexcept { return producer_ != nullptr; }

  /// True when every present component accepts. `producer_properties` may
  /// be null when the producer exposes none (a producer-properties filter
  /// then rejects).
  bool accepts(const std::string& topic, const xml::Element& message,
               const xml::Element* producer_properties) const;

  /// Wire form: `<wrapper>` holding TopicExpression / MessageContent /
  /// ProducerProperties children.
  std::unique_ptr<xml::Element> to_xml(const xml::QName& wrapper) const;
  /// Parses the wire form; unknown children are ignored (lenient receive).
  /// Throws TopicError / xml::XPathError for a malformed component.
  static Filter from_xml(const xml::Element& el);

 private:
  using Compiled = std::shared_ptr<const xml::XPathExpr>;
  static Compiled compile(const std::string& xpath) {
    return std::make_shared<const xml::XPathExpr>(xml::XPathExpr::compile(xpath));
  }

  // Compiled expressions are immutable, so copies of a filter share them.
  std::optional<TopicExpression> topic_;
  Compiled content_;
  Compiled producer_;
};

}  // namespace gs::wsn
