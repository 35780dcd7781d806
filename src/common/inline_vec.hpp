// A vector of trivially-copyable elements whose first N live inside the
// object: it touches the heap only once it grows past N. The array core
// keeps per-activation lists in these so an activation does not allocate.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

namespace dim {

template <typename T, size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>, "elements are copied bytewise");

 public:
  void push_back(const T& value) {
    if (spill_.empty()) {
      if (size_ < N) {
        inline_[size_++] = value;
        return;
      }
      spill_.assign(inline_, inline_ + N);  // past N: move everything out
    }
    spill_.push_back(value);
    ++size_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool on_heap() const { return !spill_.empty(); }

  const T* data() const { return spill_.empty() ? inline_ : spill_.data(); }
  const T& operator[](size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

 private:
  T inline_[N] = {};
  std::vector<T> spill_;  // all the elements once there are more than N
  size_t size_ = 0;
};

}  // namespace dim
