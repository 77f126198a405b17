// Bump-pointer arena for the XML pull parser.
//
// The DOM in node.hpp pays one heap allocation per node plus several per
// name/attribute string; on the request hot path that churn dominates
// container.parse_us. The arena backs every parse (pull.hpp): nodes and
// attribute arrays are bump-allocated in large blocks and freed all at once
// when the document — or, for parse_element, the parse — ends. Types placed
// here must be trivially destructible — the arena never runs destructors.
// Blocks are not zero-filled: every byte is written before it is read.
//
// Blocks form an intrusive list (header + payload in one allocation), so an
// arena whose first block is sized for the job costs exactly one heap
// allocation: ArenaDocument sizes it from the input and copies the input
// octets to its front.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>

#include "xml/probe.hpp"

namespace gs::xml {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 4 * 1024;

  /// `first_block_bytes` sizes the first block (allocated on first use);
  /// later blocks take kDefaultBlockBytes or the request, whichever is larger.
  explicit Arena(std::size_t first_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(first_block_bytes) {}
  ~Arena() { release(); }

  Arena(Arena&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        cur_(std::exchange(other.cur_, nullptr)),
        end_(std::exchange(other.end_, nullptr)),
        used_(std::exchange(other.used_, 0)),
        next_block_bytes_(other.next_block_bytes_) {}
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      release();
      head_ = std::exchange(other.head_, nullptr);
      cur_ = std::exchange(other.cur_, nullptr);
      end_ = std::exchange(other.end_, nullptr);
      used_ = std::exchange(other.used_, 0);
      next_block_bytes_ = other.next_block_bytes_;
    }
    return *this;
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* alloc(std::size_t n, std::size_t align) {
    char* at = aligned(cur_, align);
    if (!cur_ || static_cast<std::size_t>(at - cur_) + n >
                     static_cast<std::size_t>(end_ - cur_)) {
      grow(n + align);
      at = aligned(cur_, align);
    }
    cur_ = at + n;
    used_ += n;
    probe::add_arena_bytes(n);
    return at;
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

 private:
  // Block header; the payload follows it in the same allocation.
  struct Block {
    Block* prev;
  };

  static char* aligned(char* p, std::size_t align) noexcept {
    auto v = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<char*>((v + align - 1) & ~(std::uintptr_t{align} - 1));
  }

  void grow(std::size_t at_least) {
    std::size_t size = std::max(next_block_bytes_, at_least);
    next_block_bytes_ = kDefaultBlockBytes;
    head_ = new (::operator new(sizeof(Block) + size)) Block{head_};
    cur_ = reinterpret_cast<char*>(head_ + 1);
    end_ = cur_ + size;
  }

  void release() noexcept {
    while (head_) ::operator delete(std::exchange(head_, head_->prev));
  }

  Block* head_ = nullptr;
  char* cur_ = nullptr;
  char* end_ = nullptr;
  std::size_t used_ = 0;
  std::size_t next_block_bytes_;
};

}  // namespace gs::xml
