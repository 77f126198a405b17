// Ablation: where the security time goes.
// Figure 4's "the overhead of the security processing is so large that the
// performance differences between the two underlying systems tend to fade"
// decomposed: canonicalization, hashing, RSA sign/verify, whole-envelope
// sign/verify, TLS-lite handshake (full vs resumed) and record crypto.
#include <cstdio>
#include <limits>

#include "common/encoding.hpp"
#include "harness.hpp"
#include "security/tls.hpp"
#include "xml/pull.hpp"

namespace gs::bench {
namespace {

soap::Envelope sample_envelope() {
  soap::Envelope env;
  soap::MessageInfo info;
  info.to = "http://vo.example/Counter";
  info.action = std::string(soap::ns::kWsrfRp) + "/SetResourceProperties";
  info.message_id = "urn:uuid:bench";
  env.write_addressing(info);
  xml::Element& body = env.add_payload(
      xml::QName(soap::ns::kWsrfRp, "SetResourceProperties"));
  xml::Element& update = body.append_element(
      xml::QName(soap::ns::kWsrfRp, "Update"));
  update.append_element(xml::QName(soap::ns::kCounter, "cv")).set_text("42");
  return env;
}

void register_benches() {
  Pki& pki = Pki::instance();

  benchmark::RegisterBenchmark("AblationSecurity/Canonicalize", [](benchmark::State& s) {
    // The Body of the sample envelope's wire view: the c14n both signing
    // (after it writes and parses the envelope) and verification run.
    const auto doc = xml::ArenaDocument::parse(sample_envelope().to_xml());
    const xml::ArenaNode& body = *doc.root().child(soap::ns::kEnvelope, "Body");
    for (auto _ : s) {
      std::string c14n = xml::canonicalize_view(body);
      benchmark::DoNotOptimize(c14n);
    }
  })->Unit(benchmark::kMicrosecond);

  benchmark::RegisterBenchmark("AblationSecurity/Sha256_4KiB", [](benchmark::State& s) {
    std::string data(4096, 'x');
    for (auto _ : s) {
      auto d = security::Sha256::digest(data);
      benchmark::DoNotOptimize(d);
    }
  })->Unit(benchmark::kMicrosecond);

  // Key generation: the cost behind every PKI set-up. A fixed iteration
  // count over one seeded generator makes each run draw the same 8 keys, so
  // the rejection-sampling luck is the same before and after a change.
  benchmark::RegisterBenchmark("AblationSecurity/RsaKeygen1024", [](benchmark::State& s) {
    std::mt19937_64 rng(20050712);
    for (auto _ : s) {
      auto key = security::RsaKeyPair::generate(1024, rng);
      benchmark::DoNotOptimize(key);
    }
  })->Unit(benchmark::kMillisecond)->Iterations(8);

  // The load generator's PKI: a 1024-bit CA and two issued 1024-bit
  // credentials from seed 20050712 (3 keygens, 3 signatures).
  benchmark::RegisterBenchmark("AblationSecurity/Pki1024", [](benchmark::State& s) {
    for (auto _ : s) {
      std::mt19937_64 rng(20050712);
      auto ca = security::CertificateAuthority::create("CN=BenchCA,O=VO", 1024, rng);
      auto service = ca.issue("CN=vo-host,O=VO", 1024, rng, 0,
                              std::numeric_limits<common::TimeMs>::max());
      auto user = ca.issue("CN=alice,O=VO", 1024, rng, 0,
                           std::numeric_limits<common::TimeMs>::max());
      benchmark::DoNotOptimize(user);
    }
  })->Unit(benchmark::kMillisecond);

  benchmark::RegisterBenchmark("AblationSecurity/RsaSign1024", [](benchmark::State& s) {
    Pki& p = Pki::instance();
    auto digest = security::Sha256::digest(std::string_view("payload"));
    for (auto _ : s) {
      auto sig = security::rsa_sign(p.user.key, digest);
      benchmark::DoNotOptimize(sig);
    }
  })->Unit(benchmark::kMicrosecond);

  benchmark::RegisterBenchmark("AblationSecurity/RsaVerify1024", [](benchmark::State& s) {
    Pki& p = Pki::instance();
    auto digest = security::Sha256::digest(std::string_view("payload"));
    auto sig = security::rsa_sign(p.user.key, digest);
    for (auto _ : s) {
      bool ok = security::rsa_verify(p.user.key.pub, digest, sig);
      benchmark::DoNotOptimize(ok);
    }
  })->Unit(benchmark::kMicrosecond);

  benchmark::RegisterBenchmark("AblationSecurity/SignEnvelope", [](benchmark::State& s) {
    Pki& p = Pki::instance();
    for (auto _ : s) {
      soap::Envelope env = sample_envelope();
      security::sign_envelope(env, p.user);
      benchmark::DoNotOptimize(env);
    }
  })->Unit(benchmark::kMicrosecond);

  benchmark::RegisterBenchmark("AblationSecurity/VerifyEnvelope", [](benchmark::State& s) {
    Pki& p = Pki::instance();
    soap::Envelope env = sample_envelope();
    security::sign_envelope(env, p.user);
    for (auto _ : s) {
      auto id = security::verify_envelope(env, p.ca.root(), 0);
      benchmark::DoNotOptimize(id);
    }
  })->Unit(benchmark::kMicrosecond);

  benchmark::RegisterBenchmark("AblationSecurity/TlsHandshakeFull", [](benchmark::State& s) {
    Pki& p = Pki::instance();
    std::mt19937_64 rng(1);
    for (auto _ : s) {
      security::TlsSessionCache cache;  // empty cache: full handshake
      auto hs = security::TlsHandshake::run(p.ca.root(), cache, p.service,
                                            "host:443", 0, rng);
      benchmark::DoNotOptimize(hs);
    }
  })->Unit(benchmark::kMicrosecond);

  benchmark::RegisterBenchmark("AblationSecurity/TlsHandshakeResumed", [](benchmark::State& s) {
    Pki& p = Pki::instance();
    std::mt19937_64 rng(1);
    security::TlsSessionCache cache;
    (void)security::TlsHandshake::run(p.ca.root(), cache, p.service, "host:443",
                                      0, rng);
    for (auto _ : s) {
      auto hs = security::TlsHandshake::run(p.ca.root(), cache, p.service,
                                            "host:443", 0, rng);
      benchmark::DoNotOptimize(hs);
    }
  })->Unit(benchmark::kMicrosecond);

  benchmark::RegisterBenchmark("AblationSecurity/TlsSealOpen4KiB", [](benchmark::State& s) {
    Pki& p = Pki::instance();
    std::mt19937_64 rng(1);
    security::TlsSessionCache cache;
    auto hs = security::TlsHandshake::run(p.ca.root(), cache, p.service,
                                          "host:443", 0, rng);
    std::string data(4096, 'x');
    for (auto _ : s) {
      auto sealed = hs.client.seal(common::as_bytes(data));
      auto opened = hs.server.open(sealed);
      benchmark::DoNotOptimize(opened);
    }
  })->Unit(benchmark::kMicrosecond);

  (void)pki;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  std::printf(
      "Ablation: security cost decomposition. Per X.509-signed round trip\n"
      "the stacks pay 2x SignEnvelope + 2x VerifyEnvelope; per HTTPS\n"
      "connection one TLS handshake (resumed from the session cache after\n"
      "the first) plus cheap record crypto per message — why Figure 3\n"
      "stays close to Figure 2 while Figure 4 dwarfs both. Keygen and the\n"
      "PKI rows are the one-off set-up cost of a secured deployment.\n\n");
  gs::bench::register_benches();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
