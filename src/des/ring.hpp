// Grow-only FIFO ring buffer for component-owned payload queues.
//
// Per-packet events carry no payload (DESIGN.md §10): a link, switch or host
// parks the Frame/IpPacket in a Ring it owns and the event captures only
// `this` (plus a small id).  Every such ring sits behind a constant delay or
// a single serialized server, so the k-th event to fire pops the k-th
// element pushed and order needs no bookkeeping.
//
// Storage is a power-of-two array allocated on the first push and doubled
// when full; it is never shrunk, so a ring reaches its high-water capacity
// once and then pushes and pops without touching the heap (unlike
// std::deque, which on libstdc++ allocates a fresh 512-byte node every few
// elements as a FIFO advances).  pop_front() destroys the element, so a
// payload's shared_ptr is released at the pop, not when the slot is reused.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace gtw::des {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  // i-th element from the front.
  const T& operator[](std::size_t i) const { return buf_[slot(i)]; }

  void push_back(T&& v) {
    if (size_ == cap_) grow();
    std::construct_at(buf_ + slot(size_), std::move(v));
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  // Destroy every element; the capacity is kept.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  // Front-to-back iteration.
  class const_iterator {
   public:
    const_iterator(const Ring* ring, std::size_t i) : ring_(ring), i_(i) {}
    const T& operator*() const { return (*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const Ring* ring_;
    std::size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  std::size_t slot(std::size_t i) const { return (head_ + i) & (cap_ - 1); }

  void grow() {
    const std::size_t cap = cap_ == 0 ? kInitialCapacity : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = buf_ + slot(i);
      std::construct_at(buf + i, std::move(*from));
      std::destroy_at(from);
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  // Small: most links and hosts of a large topology hold a frame or two at
  // a time, and every ring keeps its high-water capacity for the run.
  static constexpr std::size_t kInitialCapacity = 2;

  T* buf_ = nullptr;
  std::size_t cap_ = 0;  // zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gtw::des
