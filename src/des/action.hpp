// Small-buffer-optimized, move-only callable for DES event records.
//
// The scheduler fires millions of events per simulated second; wrapping each
// one in std::function costs a heap allocation whenever the capture exceeds
// the library's tiny inline buffer (16 bytes on libstdc++).  Action inlines
// captures up to kInlineBytes into the event record itself, so the event is
// stored allocation-free inside its pooled scheduler slot.  Larger callables
// fall back to one heap allocation, exactly like std::function — the type is
// a superset, not a restriction: it also accepts move-only captures
// std::function rejects.
//
// Per-packet events never capture their payload (DESIGN.md §10): the Frame
// or IpPacket waits in a FIFO owned by the link, switch or host, and the
// event captures `this` plus at most a small id.  Those sites build their
// Action through inline_only(), which refuses at compile time a capture
// that would spill to the heap — so the buffer is sized for ids, not for
// payloads.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace gtw::des {

class Action {
 public:
  // Sized from a census of the callables the simulator schedules: per-packet
  // events capture 8-16 bytes (`this`, `this` + an index), timers up to 24
  // (a shared_ptr), a wrapped std::function 32.  40 bytes keeps all of them
  // inline and makes the scheduler's pooled event record 64 bytes.  Cold
  // closures above it (flow-stage continuations) cost one allocation each;
  // a hot one must use inline_only() rather than grow the buffer.
  static constexpr std::size_t kInlineBytes = 40;

  Action() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Action> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Action(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  // True when a callable of type Fn is stored inline (no allocation).
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  // Wrap `f` and prove at compile time that it is stored inline.  Use at
  // every per-packet scheduling site: a capture that outgrows the buffer
  // fails the build instead of silently costing one allocation per event.
  template <typename F>
  static Action inline_only(F&& f) {
    static_assert(fits_inline<std::decay_t<F>>(),
                  "capture too large for des::Action's inline buffer: park "
                  "the payload in a component FIFO and capture an id");
    return Action(std::forward<F>(f));
  }

  Action(Action&& other) noexcept { move_from(other); }
  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
      [](void* dst, void* src) noexcept {
        Fn** from = std::launder(reinterpret_cast<Fn**>(src));
        ::new (dst) Fn*(*from);  // the pointer itself is trivially destructible
      },
      [](void* s) noexcept { delete *std::launder(reinterpret_cast<Fn**>(s)); },
  };

  void move_from(Action& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace gtw::des
