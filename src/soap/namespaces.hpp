// Namespace URIs for the specifications implemented in this repository.
// The URIs match the 2004/2005-era documents the paper cites.
#pragma once

namespace gs::soap::ns {

inline constexpr const char* kEnvelope = "http://www.w3.org/2003/05/soap-envelope";
inline constexpr const char* kAddressing =
    "http://schemas.xmlsoap.org/ws/2004/08/addressing";

// WSRF family (OASIS).
inline constexpr const char* kWsrfRp = "http://docs.oasis-open.org/wsrf/rp-2";
inline constexpr const char* kWsrfRl = "http://docs.oasis-open.org/wsrf/rl-2";
inline constexpr const char* kWsrfSg = "http://docs.oasis-open.org/wsrf/sg-2";
inline constexpr const char* kWsrfBf = "http://docs.oasis-open.org/wsrf/bf-2";

// WS-Notification family (OASIS).
inline constexpr const char* kWsnBase = "http://docs.oasis-open.org/wsn/b-2";
inline constexpr const char* kWsnBroker = "http://docs.oasis-open.org/wsn/br-2";
inline constexpr const char* kWsnTopics = "http://docs.oasis-open.org/wsn/t-1";

// WS-Transfer / WS-Eventing (Microsoft et al. member submissions).
inline constexpr const char* kTransfer =
    "http://schemas.xmlsoap.org/ws/2004/09/transfer";
inline constexpr const char* kEventing =
    "http://schemas.xmlsoap.org/ws/2004/08/eventing";

// WS-Security (message-level X.509 signing).
inline constexpr const char* kSecurity =
    "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd";
inline constexpr const char* kDsig = "http://www.w3.org/2000/09/xmldsig#";

// This repository's own service namespaces.
inline constexpr const char* kCounter = "http://gridstacks.dev/counter";
inline constexpr const char* kGridBox = "http://gridstacks.dev/gridbox";

}  // namespace gs::soap::ns
