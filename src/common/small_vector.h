#ifndef INFLUMAX_COMMON_SMALL_VECTOR_H_
#define INFLUMAX_COMMON_SMALL_VECTOR_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace influmax {

/// Inline-storage vector for trivially copyable elements. The first
/// `InlineCapacity` elements live inside the object; larger sizes spill to
/// a single heap buffer. Built for the credit-store adjacency lists, where
/// the common case is a handful of ids and the map that owns the lists
/// moves values during rehash / backward-shift deletion, so moves must be
/// cheap (a memcpy of the inline buffer or a pointer steal).
template <typename T, std::size_t InlineCapacity>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector is restricted to trivially copyable elements");
  static_assert(InlineCapacity >= 1, "inline capacity must be at least 1");

 public:
  SmallVector() = default;

  SmallVector(const SmallVector& other) { CopyFrom(other); }

  SmallVector(SmallVector&& other) noexcept { StealFrom(&other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this == &other) return *this;
    FreeHeap();
    // Back to a valid inline state before CopyFrom may throw bad_alloc,
    // so the destructor never sees the freed heap_ again.
    size_ = 0;
    capacity_ = InlineCapacity;
    CopyFrom(other);
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this == &other) return *this;
    FreeHeap();
    size_ = 0;
    capacity_ = InlineCapacity;
    StealFrom(&other);
    return *this;
  }

  ~SmallVector() { FreeHeap(); }

  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint32_t capacity() const { return capacity_; }

  T* data() { return is_inline() ? inline_ : heap_; }
  const T* data() const { return is_inline() ? inline_ : heap_; }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  void push_back(T value) {
    if (size_ == capacity_) Grow();
    data()[size_++] = value;
  }

  void clear() { size_ = 0; }

  /// Ensures room for `n` elements, allocating exactly `n` when the
  /// buffer must grow (bulk loads know each list's final length, so no
  /// doubling slack is paid).
  void reserve(std::uint32_t n) {
    if (n > capacity_) Reallocate(n);
  }

  /// Removes every element for which `pred(element)` is true, preserving
  /// the relative order of survivors. In-place: never reallocates, so
  /// pointers into data() stay valid (elements shift down).
  template <typename Pred>
  void RemoveIf(Pred pred) {
    T* d = data();
    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (!pred(d[i])) d[out++] = d[i];
    }
    size_ = out;
  }

  /// Heap bytes owned beyond the object footprint (0 while inline).
  std::uint64_t HeapBytes() const {
    return is_inline() ? 0
                       : static_cast<std::uint64_t>(capacity_) * sizeof(T);
  }

 private:
  bool is_inline() const { return capacity_ <= InlineCapacity; }

  void Grow() { Reallocate(capacity_ * 2); }

  void Reallocate(std::uint32_t new_capacity) {
    T* buffer = static_cast<T*>(std::malloc(new_capacity * sizeof(T)));
    if (buffer == nullptr) throw std::bad_alloc();
    std::memcpy(buffer, data(), size_ * sizeof(T));
    FreeHeap();
    heap_ = buffer;
    capacity_ = new_capacity;
  }

  void FreeHeap() {
    if (!is_inline()) std::free(heap_);
  }

  void CopyFrom(const SmallVector& other) {
    size_ = other.size_;
    if (other.is_inline()) {
      capacity_ = InlineCapacity;
      std::memcpy(inline_, other.inline_, size_ * sizeof(T));
    } else {
      capacity_ = other.capacity_;
      heap_ = static_cast<T*>(std::malloc(capacity_ * sizeof(T)));
      if (heap_ == nullptr) throw std::bad_alloc();
      std::memcpy(heap_, other.heap_, size_ * sizeof(T));
    }
  }

  void StealFrom(SmallVector* other) {
    size_ = other->size_;
    capacity_ = other->capacity_;
    if (other->is_inline()) {
      std::memcpy(inline_, other->inline_, size_ * sizeof(T));
    } else {
      heap_ = other->heap_;
      other->capacity_ = InlineCapacity;
    }
    other->size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = InlineCapacity;
  union {
    T inline_[InlineCapacity];
    T* heap_;
  };
};

}  // namespace influmax

#endif  // INFLUMAX_COMMON_SMALL_VECTOR_H_
