// Move-only callable with small-buffer optimization for the event kernel.
//
// Every scheduled event used to carry a std::function<void()>, whose copyable
// type-erasure forces a heap allocation for anything bigger than two words.
// The kernel's common case — a lambda capturing `this` plus a handful of
// pointers or a pooled symbol vector — fits in a fixed inline buffer, so
// Action stores callables up to kInlineSize bytes in place and only falls
// back to the heap for oversized or throwing-move captures. Actions are
// move-only (an event fires exactly once; nothing ever needs to copy one),
// which also admits move-only captures that std::function rejects.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hsfi::sim {

class Action {
 public:
  /// Sized for the hot-path captures: the Channel delivery lambda (this +
  /// sink + arrival time + a 24-byte symbol vector = 48 bytes) and the
  /// switch forwarding lambda (this + output port + a 24-byte batch = 40
  /// bytes) fit, with room to spare. Total Action = 64 bytes.
  static constexpr std::size_t kInlineSize = 56;

  Action() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  Action(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Action(Action&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;

  ~Action() { reset(); }

  /// Precondition: *this holds a callable.
  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Destroys the held callable (releasing any captured resources) and
  /// leaves *this empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Whether clone() can duplicate the held callable. Empty Actions are
  /// trivially clonable; a non-empty Action is clonable iff the erased
  /// callable is copy-constructible.
  [[nodiscard]] bool clonable() const noexcept {
    return ops_ == nullptr || ops_->clone != nullptr;
  }

  /// Duplicates the held callable (EventQueue snapshots copy every pending
  /// event's action this way). Precondition: clonable().
  [[nodiscard]] Action clone() const {
    Action out;
    if (ops_ != nullptr) {
      ops_->clone(out.storage_, storage_);
      out.ops_ = ops_;
    }
    return out;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the callable into `dst` from `src` and destroys the
    /// `src` copy (for heap-held callables, just moves the pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    /// Copy-constructs the callable into `dst` from `src`; nullptr when the
    /// callable is move-only (such an action cannot be snapshotted).
    void (*clone)(void* dst, const void* src);
  };

  template <typename Fn>
  static constexpr auto clone_inline() {
    if constexpr (std::is_copy_constructible_v<Fn>) {
      return +[](void* dst, const void* src) {
        ::new (dst) Fn(*std::launder(reinterpret_cast<const Fn*>(src)));
      };
    } else {
      return static_cast<void (*)(void*, const void*)>(nullptr);
    }
  }

  template <typename Fn>
  static constexpr auto clone_heap() {
    if constexpr (std::is_copy_constructible_v<Fn>) {
      return +[](void* dst, const void* src) {
        ::new (dst)
            Fn*(new Fn(**std::launder(reinterpret_cast<Fn* const*>(src))));
      };
    } else {
      return static_cast<void (*)(void*, const void*)>(nullptr);
    }
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) noexcept {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
      clone_inline<Fn>(),
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); },
      clone_heap<Fn>(),
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace hsfi::sim
