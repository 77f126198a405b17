#include "wsn/consumer.hpp"

#include <chrono>

#include "soap/namespaces.hpp"

namespace gs::wsn {

namespace {
xml::QName wsnt(const char* local) { return {soap::ns::kWsnBase, local}; }
}  // namespace

net::HttpResponse NotificationConsumer::handle(const net::HttpRequest& request) {
  soap::Envelope parsed;
  try {
    parsed = soap::Envelope::from_xml(request.body);
  } catch (const std::exception& e) {
    return net::HttpResponse::error(400, "Bad Request", e.what());
  }
  const soap::Envelope& env = parsed;  // read-only: builds only the payload

  ReceivedNotification note;
  const xml::Element* payload = env.payload();
  if (payload && payload->name() == wsnt("Notify")) {
    if (const xml::Element* message = payload->child(wsnt("NotificationMessage"))) {
      if (const xml::Element* topic = message->child(wsnt("Topic"))) {
        note.topic = topic->text();
      }
      if (const xml::Element* producer = message->child(wsnt("ProducerReference"))) {
        note.producer_address =
            soap::EndpointReference::from_xml(*producer).address();
      }
      if (const xml::Element* body = message->child(wsnt("Message"))) {
        auto kids = body->child_elements();
        if (!kids.empty()) note.payload = kids.front()->clone_element();
      }
    }
  } else if (payload) {
    // Raw delivery: an arbitrary payload with no notification context.
    note.raw = true;
    note.payload = payload->clone_element();
  }

  {
    std::lock_guard lock(mu_);
    received_.push_back(std::move(note));
  }
  cv_.notify_all();

  // Notification delivery is one-way; acknowledge with an empty envelope.
  return net::HttpResponse::ok(soap::Envelope().to_xml());
}

size_t NotificationConsumer::count() const {
  std::lock_guard lock(mu_);
  return received_.size();
}

std::vector<ReceivedNotification> NotificationConsumer::received() const {
  std::lock_guard lock(mu_);
  std::vector<ReceivedNotification> out;
  out.reserve(received_.size());
  for (const auto& n : received_) {
    ReceivedNotification copy;
    copy.topic = n.topic;
    copy.producer_address = n.producer_address;
    copy.raw = n.raw;
    if (n.payload) copy.payload = n.payload->clone_element();
    out.push_back(std::move(copy));
  }
  return out;
}

bool NotificationConsumer::wait_for(size_t n, int timeout_ms) const {
  std::unique_lock lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return received_.size() >= n; });
}

void NotificationConsumer::clear() {
  std::lock_guard lock(mu_);
  received_.clear();
}

}  // namespace gs::wsn
