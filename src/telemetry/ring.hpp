// Bounded ring buffer: the retention structure behind the event log and the
// time-series store. Once full, each push overwrites the oldest entry. Not
// synchronized: every owner already holds its own lock.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gs::telemetry {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Appends `value`; returns true when that evicted the oldest entry.
  bool push(T value) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(value));
      return false;
    }
    items_[oldest_] = std::move(value);
    oldest_ = (oldest_ + 1) % capacity_;
    return true;
  }

  /// The i-th retained entry, oldest first.
  const T& operator[](std::size_t i) const {
    return items_[(oldest_ + i) % items_.size()];
  }
  const T& front() const { return (*this)[0]; }

  /// Copy of every retained entry, oldest first.
  std::vector<T> ordered() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i) out.push_back((*this)[i]);
    return out;
  }

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }

  void clear() {
    items_.clear();
    oldest_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t oldest_ = 0;  // slot of the oldest entry once full
  std::vector<T> items_;
};

}  // namespace gs::telemetry
