// Bump-pointer arena for the XML pull parser.
//
// The DOM in node.hpp pays one heap allocation per node plus several per
// name/attribute string; on the request hot path that churn dominates
// container.parse_us. The arena backs every parse (pull.hpp): nodes and
// attribute arrays are bump-allocated in large blocks and freed all at once
// when the document — or, for parse_element, the parse — ends. Types placed
// here must be trivially destructible — the arena never runs destructors.
// Blocks are not zero-filled: every byte is written before it is read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xml/probe.hpp"

namespace gs::xml {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 8 * 1024;

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes) {}

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* alloc(std::size_t n, std::size_t align) {
    if (blocks_.empty() || !fits(blocks_.back(), n, align)) grow(n + align);
    Block& b = blocks_.back();
    std::size_t at = (b.used + align - 1) & ~(align - 1);
    b.used = at + n;
    used_ += n;
    probe::add_arena_bytes(n);
    return b.data.get() + at;
  }

  template <typename T, typename... Args>
  T* make(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return new (alloc(sizeof(T), alignof(T))) T{std::forward<Args>(args)...};
  }

  template <typename T>
  T* make_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    if (count == 0) return nullptr;
    T* out = static_cast<T*>(alloc(sizeof(T) * count, alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (out + i) T{};
    return out;
  }

  /// Copies `s` into the arena and returns a view of the copy.
  std::string_view copy(std::string_view s) {
    if (s.empty()) return {};
    char* out = static_cast<char*>(alloc(s.size(), 1));
    std::char_traits<char>::copy(out, s.data(), s.size());
    return {out, s.size()};
  }

  /// Payload bytes handed out (excludes block slack).
  std::size_t bytes_used() const noexcept { return used_; }
  std::size_t blocks() const noexcept { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static bool fits(const Block& b, std::size_t n, std::size_t align) {
    std::size_t at = (b.used + align - 1) & ~(align - 1);
    return at + n <= b.size;
  }

  void grow(std::size_t at_least) {
    std::size_t size = std::max(block_bytes_, at_least);
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<char[]>(size), size, 0});
  }

  std::size_t block_bytes_;
  std::size_t used_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace gs::xml
