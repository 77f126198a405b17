// Scatter/gather buffer chain for the zero-copy wire path.
//
// A serialized message is mostly bytes that already exist somewhere — a
// worker's reused serialization buffer, an arena parser's input buffer —
// plus a few short runs. A BufferChain represents the message as an ordered
// list of segments so those bytes reach the transport without being
// concatenated into one intermediate string (writev-style).
//
// Ownership rules:
//  - append(std::string)            — the chain owns the bytes (moved in).
//  - append_shared(keepalive, view) — the chain co-owns `keepalive` and the
//    view must point into memory it keeps alive (serialization buffers,
//    arena document buffers). Sharing, not copying, is the whole point.
//  - append_static(view)            — caller guarantees 'static-like'
//    lifetime (string literals, interned constants).
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace gs::common {

class BufferChain {
 public:
  BufferChain() = default;
  BufferChain(BufferChain&&) noexcept = default;
  BufferChain& operator=(BufferChain&&) noexcept = default;
  // Copying flattens: the copy owns one contiguous segment with the same
  // bytes. (A member-wise copy would leave the new segs_ viewing the old
  // owned_ strings.) Copies are cold paths; the wire path moves.
  BufferChain(const BufferChain& other) { append(other.join()); }
  BufferChain& operator=(const BufferChain& other) {
    if (this != &other) {
      clear();
      append(other.join());
    }
    return *this;
  }

  /// Appends bytes the chain takes ownership of.
  void append(std::string s) {
    if (s.empty()) return;
    owned_.push_back(std::move(s));
    segs_.push_back({{}, owned_.back()});
    total_ += segs_.back().data.size();
  }

  /// Appends a view into memory kept alive by `keepalive`.
  void append_shared(std::shared_ptr<const void> keepalive, std::string_view view) {
    if (view.empty()) return;
    segs_.push_back({std::move(keepalive), view});
    total_ += view.size();
  }

  /// Convenience: share a whole refcounted string.
  void append_shared(const std::shared_ptr<const std::string>& s) {
    if (s) append_shared(s, std::string_view(*s));
  }

  /// Appends a view with caller-guaranteed lifetime (literals, constants).
  void append_static(std::string_view view) { append_shared(nullptr, view); }

  /// Appends another chain's segments. Refcounted segments are shared;
  /// segments without a keepalive (owned/static) are copied by value, so
  /// the result never borrows from `other`.
  void append_chain(const BufferChain& other) {
    for (const Segment& s : other.segs_) {
      if (s.keepalive) {
        append_shared(s.keepalive, s.data);
      } else {
        append(std::string(s.data));
      }
    }
  }

  std::size_t size() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }
  std::size_t segments() const noexcept { return segs_.size(); }

  /// Visits each segment in order as a string_view.
  template <typename F>
  void for_each(F&& f) const {
    for (const Segment& s : segs_) f(s.data);
  }

  /// Flattens into one string (tests, callers that need contiguous bytes).
  std::string join() const {
    std::string out;
    out.reserve(total_);
    for (const Segment& s : segs_) out.append(s.data);
    return out;
  }

  /// Flattens into `out` (appended), reusing its capacity.
  void join_into(std::string& out) const {
    out.reserve(out.size() + total_);
    for (const Segment& s : segs_) out.append(s.data);
  }

  void clear() {
    segs_.clear();
    owned_.clear();
    total_ = 0;
  }

 private:
  struct Segment {
    std::shared_ptr<const void> keepalive;  // null for owned/static segments
    std::string_view data;
  };

  std::vector<Segment> segs_;
  // deque: stable addresses, so segs_ views into owned_ never dangle.
  std::deque<std::string> owned_;
  std::size_t total_ = 0;
};

}  // namespace gs::common
