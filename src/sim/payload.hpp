// Small-buffer type-erased message payloads for the delivery hot path.
//
// A message's payload is a value that lives in one process: the round
// engine (network.hpp) moves it from the sender's lane outbox into the
// delivery arena, and under a CONGEST budget possibly through a carry
// queue, but it is never copied or serialized. Every payload is moved at
// least twice per round, and the standard any charges an indirect manager
// call — plus a heap allocation for anything bigger than one pointer — per
// move. Payload is designed around that relocation cost instead:
//
//   * 24 bytes of inline storage (kInlineSize). Every hot-path payload
//     struct in the repo fits; protocols static_assert that theirs do, so
//     payload growth is a compile error, not a silent throughput
//     regression.
//   * Trivially-copyable inline payloads relocate with one tag-bit branch
//     plus a fixed-size memcpy — no vtable, no manager call, no per-type
//     dispatch. Heap-held payloads relocate the same way (the pointer is
//     memcpy-safe), so only non-trivially-copyable *inline* types (the
//     shared_ptr-carrying tree-session structs) pay an indirect call.
//   * Oversized / over-aligned / throwing-move types fall back to a single
//     heap allocation, exactly what the old erasure did for them.
//   * payload_as<T> reports the *expected vs. held* type names on
//     mismatch (BadPayloadCast) instead of a bare bad-cast.
//
// The container is move-only: a Payload uniquely owns its value. Protocols
// that flood one logical value to many neighbours construct one Payload
// per send from the (copyable) payload struct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>

#if defined(__GNUG__)
#include <cstdlib>
#include <cxxabi.h>
#endif

namespace fl::sim {

namespace detail {

/// Per-type operations, instantiated once per payload type. Only the slow
/// paths live here; trivially-relocatable payloads never call through it
/// on a move.
struct PayloadOps {
  /// Move-construct `dst` from `src`, destroying `src`. Null for types
  /// relocated by memcpy (trivially-copyable inline, heap-held).
  void (*relocate)(void* dst, void* src) noexcept;
  /// Destroy the value rooted at the storage slot (for heap-held types the
  /// slot holds the owning pointer). Null when destruction is a no-op.
  void (*destroy)(void* slot) noexcept;
  /// For diagnostics only.
  const std::type_info* type;
};

/// Demangle a std::type_info name where the ABI allows; otherwise return
/// the raw (mangled) name.
inline std::string type_name(const std::type_info& t) {
#if defined(__GNUG__)
  int status = 0;
  char* demangled = abi::__cxa_demangle(t.name(), nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) {
    std::string out(demangled);
    std::free(demangled);
    return out;
  }
#endif
  return t.name();
}

}  // namespace detail

/// Thrown by payload_as on a type mismatch; what() names both sides.
class BadPayloadCast final : public std::bad_cast {
 public:
  BadPayloadCast(const std::type_info& expected, const std::type_info* held)
      : what_("payload_as<" + detail::type_name(expected) + ">: payload " +
              (held == nullptr ? std::string("is empty")
                               : "holds " + detail::type_name(*held))) {}

  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

class Payload {
 public:
  /// Inline small-buffer geometry. 24 bytes + the tagged ops word keep
  /// sizeof(Payload) == 32 — the payload plane's row size in the
  /// structure-of-arrays delivery arena (message.hpp pins it).
  static constexpr std::size_t kInlineSize = 24;
  static constexpr std::size_t kInlineAlign = 8;

  /// True when T is stored in the inline buffer (no allocation on send).
  template <typename T>
  static constexpr bool stores_inline =
      sizeof(T) <= kInlineSize && alignof(T) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<T>;

  /// True when relocating a Payload holding T is a raw memcpy (the arena
  /// scatter's fast path): trivially-copyable inline values and heap-held
  /// values (only the owning pointer moves).
  template <typename T>
  static constexpr bool trivially_relocatable =
      !stores_inline<T> || std::is_trivially_copyable_v<T>;

  Payload() noexcept = default;

  template <typename V, typename T = std::decay_t<V>,
            typename = std::enable_if_t<!std::is_same_v<T, Payload>>>
  Payload(V&& value) {  // NOLINT(google-explicit-constructor): any-style
    if constexpr (stores_inline<T>) {
      ::new (static_cast<void*>(storage_)) T(std::forward<V>(value));
      bits_ = tag_of<T>();
    } else {
      // Heap fallback (oversized / over-aligned / throwing-move types).
      // `new T` honours extended alignment since C++17; the owning pointer
      // is stored into the buffer by memcpy because no T* object ever
      // begins its lifetime there — a reinterpret_cast deref would read
      // through a pointer type the buffer never held.
      T* owner = new T(std::forward<V>(value));
      std::memcpy(storage_, &owner, sizeof(owner));
      bits_ = tag_of<T>();
    }
  }

  Payload(Payload&& other) noexcept { steal(other); }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;

  ~Payload() { reset(); }

  /// Destroy the held value (if any) and return to the empty state.
  void reset() noexcept {
    if (bits_ & kDestroyBit) ops()->destroy(storage_);
    bits_ = 0;
  }

  bool has_value() const noexcept { return bits_ != 0; }

  /// Pointer to the held T, or nullptr if the payload holds something
  /// else (or nothing). One integer compare: the tagged ops word is a
  /// compile-time constant per T.
  template <typename T>
  const T* get_if() const noexcept {
    if (bits_ != tag_of<T>()) return nullptr;
    if constexpr (stores_inline<T>) {
      return std::launder(reinterpret_cast<const T*>(storage_));
    } else {
      const T* owner;
      std::memcpy(&owner, storage_, sizeof(owner));
      return owner;
    }
  }

  template <typename T>
  T* get_if() noexcept {
    return const_cast<T*>(std::as_const(*this).get_if<T>());
  }

  /// typeid of the held value, or nullptr when empty. Diagnostics only.
  const std::type_info* type() const noexcept {
    return bits_ == 0 ? nullptr : ops()->type;
  }

 private:
  // Tag bits carried in the low bits of the ops pointer (PayloadOps
  // objects are at least 8-aligned). They let the relocation and
  // destruction fast paths branch without dereferencing the ops table.
  static constexpr std::uintptr_t kTrivialBit = 1;  // relocate == memcpy
  static constexpr std::uintptr_t kHeapBit = 2;     // slot holds owning T*
  static constexpr std::uintptr_t kDestroyBit = 4;  // destructor non-trivial
  static constexpr std::uintptr_t kTagMask = kTrivialBit | kHeapBit | kDestroyBit;
  // The three tag bits ride in the low bits of a PayloadOps address, so
  // every PayloadOps must sit on an 8-byte boundary. Three pointers make
  // that true on every sane ABI; this is the proof, not the hope.
  static_assert(alignof(detail::PayloadOps) > kTagMask,
                "PayloadOps alignment must leave the tag bits zero");

  template <typename T>
  struct OpsFor {
    static void relocate(void* dst, void* src) noexcept {
      T* s = std::launder(reinterpret_cast<T*>(src));
      ::new (dst) T(std::move(*s));
      s->~T();
    }
    static void destroy_inline(void* slot) noexcept {
      std::launder(reinterpret_cast<T*>(slot))->~T();
    }
    static void destroy_heap(void* slot) noexcept {
      T* owner;
      std::memcpy(&owner, slot, sizeof(owner));
      delete owner;
    }
  };

  template <typename T>
  static inline const detail::PayloadOps ops_instance = {
      stores_inline<T> && !std::is_trivially_copyable_v<T>
          ? &OpsFor<T>::relocate
          : nullptr,
      !stores_inline<T>
          ? &OpsFor<T>::destroy_heap
          : (std::is_trivially_destructible_v<T> ? nullptr
                                                 : &OpsFor<T>::destroy_inline),
      &typeid(T)};

  /// The ops pointer for T with its category bits, as a single word. Also
  /// the type-identity token compared by get_if (ops_instance<T> has one
  /// address program-wide).
  template <typename T>
  static std::uintptr_t tag_of() noexcept {
    std::uintptr_t bits =
        reinterpret_cast<std::uintptr_t>(&ops_instance<T>);
    if constexpr (trivially_relocatable<T>) bits |= kTrivialBit;
    if constexpr (!stores_inline<T>) bits |= kHeapBit | kDestroyBit;
    else if constexpr (!std::is_trivially_destructible_v<T>) bits |= kDestroyBit;
    return bits;
  }

  const detail::PayloadOps* ops() const noexcept {
    return reinterpret_cast<const detail::PayloadOps*>(bits_ & ~kTagMask);
  }

  /// Move `other`'s value into our (empty) storage; leaves `other` empty.
  void steal(Payload& other) noexcept {
    bits_ = other.bits_;
    if (bits_ & kTrivialBit) {
      // Fast path: trivially-copyable inline value or heap pointer — one
      // fixed-size memcpy, no per-type dispatch.
      std::memcpy(storage_, other.storage_, kInlineSize);
    } else if (bits_ != 0) {
      ops()->relocate(storage_, other.storage_);
    }
    other.bits_ = 0;
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  std::uintptr_t bits_ = 0;
};

static_assert(sizeof(Payload) == Payload::kInlineSize + sizeof(std::uintptr_t),
              "Payload must stay one inline buffer plus one tagged word");

}  // namespace fl::sim
