#include "common/uuid.hpp"

#include <cstdint>
#include <random>

namespace gs::common {
namespace {

// One generator per thread: every request mints MessageIDs, so a shared
// generator behind a mutex would put two lock round trips on each one.
std::mt19937_64& generator() {
  thread_local std::mt19937_64 gen = [] {
    std::random_device rd;
    std::seed_seq seq{rd(), rd(), rd(), rd()};
    return std::mt19937_64(seq);
  }();
  return gen;
}

/// Appends a fresh UUID's 36 characters to `out`.
void append_uuid(std::string& out) {
  std::mt19937_64& gen = generator();
  std::uint64_t hi = gen();
  std::uint64_t lo = gen();
  // Stamp version (4) and variant (10xx) bits.
  hi = (hi & 0xFFFFFFFFFFFF0FFFULL) | 0x0000000000004000ULL;
  lo = (lo & 0x3FFFFFFFFFFFFFFFULL) | 0x8000000000000000ULL;

  // 8-4-4-4-12 hex digits: hi fills the first three groups, lo the rest.
  static constexpr char kHex[] = "0123456789abcdef";
  char text[36];
  char* p = text + sizeof text;
  auto emit = [&p](std::uint64_t v, int nibbles) {
    for (int i = 0; i < nibbles; ++i, v >>= 4) *--p = kHex[v & 0xF];
  };
  emit(lo, 12);
  *--p = '-';
  emit(lo >> 48, 4);
  *--p = '-';
  emit(hi, 4);
  *--p = '-';
  emit(hi >> 16, 4);
  *--p = '-';
  emit(hi >> 32, 8);
  out.append(text, sizeof text);
}

}  // namespace

std::string new_uuid() {
  std::string out;
  out.reserve(36);
  append_uuid(out);
  return out;
}

std::string new_urn_uuid() {
  std::string out;
  out.reserve(45);
  out += "urn:uuid:";
  append_uuid(out);
  return out;
}

}  // namespace gs::common
