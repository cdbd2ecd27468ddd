// A move-only callable for one-shot continuations.
//
// Task<R(Args...)> is what std::function would be without copying: a
// capture of up to kInlineBytes (48 unless the second template argument
// says otherwise) that is nothrow-movable lives inside the Task itself,
// anything larger falls back to one heap allocation. Being move-only, a
// Task can hold move-only captures (unique_ptr, another Task) and never
// copies a capture behind the caller's back.
//
// The rule the code base follows: a callback that runs once, or is handed
// from owner to owner until it runs, is a Task (event-queue entries,
// connect results, probe and handshake completions). A callback that is
// copied or called repeatedly (timers, port handlers, sources, observers)
// stays a std::function.
//
// Calling an empty Task is undefined; test it first. A running callback
// may destroy the Task that holds it as long as it touches none of its own
// captures afterwards; the usual pattern is to move the Task out of its
// owner and call the local copy.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tts::util {

template <typename Signature, std::size_t InlineBytes = 48>
class Task;

template <typename R, typename... Args, std::size_t InlineBytes>
class Task<R(Args...), InlineBytes> {
 public:
  /// Captures up to this size (and pointer alignment) are stored inline.
  /// The default keeps sizeof(Task) at 56 bytes, so an event-queue slot
  /// fits one cache line. A continuation that is itself forwarded inside
  /// an event picks a smaller buffer, so that event's capture stays inline.
  static constexpr std::size_t kInlineBytes = InlineBytes;

  Task() noexcept = default;
  Task(std::nullptr_t) noexcept {}

  /// Wrap any callable invocable as R(Args...). Implicit, like
  /// std::function's, so a lambda converts at the call site.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, Task> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  Task(F&& f) {
    if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D>) {
      if (f == nullptr) return;
    }
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Task(Task&& other) noexcept { take(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Task& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// Destroy the held callable (and its captures) now.
  void reset() noexcept {
    if (ops_) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(buf_);
    }
  }

  /// Whether a callable of type F would be stored without allocating.
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    /// Move-construct the callable at `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self, Args&&... args) -> R {
        return (*static_cast<D*>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* from = static_cast<D*>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); }};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) -> R {
        return (**static_cast<D**>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* self) noexcept { delete *static_cast<D**>(self); }};

  void take(Task& other) noexcept {
    if (!other.ops_) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace tts::util
