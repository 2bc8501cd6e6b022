// InlineVec: a fixed-inline-capacity vector that spills to the heap.
//
// The tuple hot path (§5.2, Appendix A) must not allocate per tuple:
// a Tuple's fields live inline in the Tuple itself for the common
// small arities, so constructing/moving a tuple touches no allocator.
// Beyond `InlineCap` elements the storage spills to one heap block and
// behaves like a normal vector (correct, just no longer allocation-
// free) — apps with wide tuples keep working unchanged. Size and
// capacity are 32-bit, so the bookkeeping after the inline slots is
// one pointer plus 8 bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace brisk {

template <typename T, size_t InlineCap>
class InlineVec {
  static_assert(InlineCap > 0, "inline capacity must be nonzero");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "spill storage uses plain operator new");
  static_assert(InlineCap <= std::numeric_limits<uint32_t>::max(),
                "capacity is stored as uint32_t");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() noexcept : data_(InlinePtr()) {}

  InlineVec(std::initializer_list<T> init) : InlineVec() {
    reserve(init.size());
    for (const T& v : init) ::new (data_ + size_++) T(v);
  }

  InlineVec(const InlineVec& o) : InlineVec() {
    reserve(o.size_);
    // size_ tracks the loop so a throwing element copy unwinds cleanly.
    for (size_t i = 0; i < o.size_; ++i) {
      ::new (data_ + i) T(o.data_[i]);
      ++size_;
    }
  }

  InlineVec(InlineVec&& o) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : InlineVec() {
    StealOrMove(std::move(o));
  }

  InlineVec& operator=(const InlineVec& o) {
    if (this != &o) {
      clear();
      reserve(o.size_);
      for (size_t i = 0; i < o.size_; ++i) {
        ::new (data_ + i) T(o.data_[i]);
        ++size_;
      }
    }
    return *this;
  }

  InlineVec& operator=(InlineVec&& o) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &o) {
      ReleaseStorage();
      StealOrMove(std::move(o));
    }
    return *this;
  }

  InlineVec& operator=(std::initializer_list<T> init) {
    clear();
    reserve(init.size());
    for (const T& v : init) ::new (data_ + size_++) T(v);
    return *this;
  }

  ~InlineVec() { ReleaseStorage(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return cap_; }
  bool on_heap() const { return data_ != InlinePtr(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void reserve(size_t n) {
    if (n > cap_) Grow(n);
  }

  void clear() {
    for (size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) Grow(size_ + 1);
    T* slot = ::new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() { data_[--size_].~T(); }

 private:
  T* InlinePtr() noexcept { return reinterpret_cast<T*>(inline_storage_); }
  const T* InlinePtr() const noexcept {
    return reinterpret_cast<const T*>(inline_storage_);
  }

  /// Heap donors hand over their block; inline donors move per element.
  /// Precondition: *this holds no constructed elements and owns no heap.
  void StealOrMove(InlineVec&& o) {
    if (o.on_heap()) {
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = o.InlinePtr();
      o.size_ = 0;
      o.cap_ = InlineCap;
    } else {
      data_ = InlinePtr();
      cap_ = InlineCap;
      for (size_t i = 0; i < o.size_; ++i) {
        ::new (data_ + i) T(std::move(o.data_[i]));
      }
      size_ = o.size_;
      o.clear();
    }
  }

  /// Destroys elements and frees any heap block, leaving the object in
  /// a valid empty-inline state.
  void ReleaseStorage() {
    clear();
    if (on_heap()) {
      ::operator delete(data_);
      data_ = InlinePtr();
      cap_ = InlineCap;
    }
  }

  void Grow(size_t needed) {
    size_t new_cap = size_t{cap_} * 2;
    if (new_cap < needed) new_cap = needed;
    T* heap = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    for (size_t i = 0; i < size_; ++i) {
      ::new (heap + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (on_heap()) ::operator delete(data_);
    data_ = heap;
    cap_ = static_cast<uint32_t>(new_cap);
  }

  alignas(T) unsigned char inline_storage_[InlineCap * sizeof(T)];
  T* data_;
  uint32_t size_ = 0;
  uint32_t cap_ = InlineCap;
};

}  // namespace brisk
