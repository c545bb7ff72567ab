/// \file ops.hpp
/// \brief Reduction operators for the `reduce` primitive and the collective
///        library.  An operator is a stateless struct with
///        `T combine(T,T) const` and `T identity() const`; all shipped
///        operators are associative and commutative (MinLoc/MaxLoc break
///        ties deterministically by index, preserving commutativity).
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>

namespace vmp {

namespace detail {

/// a + b with `a` as the add's first source.  When both sources are NaN,
/// x86 returns the first one's payload, and GCC commutes a plain `+` per
/// call site (the left operand first where it stays in a register, the
/// right one where the left is spilled), so on x86-64 the add is spelled
/// out: a NaN sum carries the left operand's payload at every call site.
[[nodiscard]] inline double add_left_first(double a, double b) {
#if defined(__x86_64__)
  asm("addsd {%1, %0|%0, %1}" : "+x"(a) : "x"(b));
  return a;
#else
  return a + b;
#endif
}

/// a · b with `a` as the mul's first source, for the same reason.
[[nodiscard]] inline double mul_left_first(double a, double b) {
#if defined(__x86_64__)
  asm("mulsd {%1, %0|%0, %1}" : "+x"(a) : "x"(b));
  return a;
#else
  return a * b;
#endif
}

}  // namespace detail

/// Value tagged with the global index it came from; the element type of
/// location-reducing operators (pivot search, entering-variable selection).
template <class T>
struct ValueIndex {
  T value{};
  std::int64_t index = -1;

  friend bool operator==(const ValueIndex&, const ValueIndex&) = default;
};

template <class T>
struct Plus {
  using value_type = T;
  [[nodiscard]] T combine(const T& a, const T& b) const {
    if constexpr (std::is_same_v<T, double>) {
      return detail::add_left_first(a, b);
    } else {
      return a + b;
    }
  }
  [[nodiscard]] T identity() const { return T{}; }
};

template <class T>
struct Multiply {
  using value_type = T;
  [[nodiscard]] T combine(const T& a, const T& b) const {
    if constexpr (std::is_same_v<T, double>) {
      return detail::mul_left_first(a, b);
    } else {
      return a * b;
    }
  }
  [[nodiscard]] T identity() const { return T{1}; }
};

template <class T>
struct Min {
  using value_type = T;
  [[nodiscard]] T combine(const T& a, const T& b) const {
    return b < a ? b : a;
  }
  [[nodiscard]] T identity() const { return std::numeric_limits<T>::max(); }
};

template <class T>
struct Max {
  using value_type = T;
  [[nodiscard]] T combine(const T& a, const T& b) const {
    return a < b ? b : a;
  }
  [[nodiscard]] T identity() const { return std::numeric_limits<T>::lowest(); }
};

/// Smallest value wins; ties broken toward the smaller index.  The identity
/// carries index -1, which no real element uses.
template <class T>
struct MinLoc {
  using value_type = ValueIndex<T>;
  [[nodiscard]] ValueIndex<T> combine(const ValueIndex<T>& a,
                                      const ValueIndex<T>& b) const {
    if (b.index < 0) return a;
    if (a.index < 0) return b;
    if (a.value < b.value) return a;
    if (b.value < a.value) return b;
    return a.index <= b.index ? a : b;
  }
  [[nodiscard]] ValueIndex<T> identity() const {
    return {std::numeric_limits<T>::max(), -1};
  }
};

/// Largest value wins; ties broken toward the smaller index.
template <class T>
struct MaxLoc {
  using value_type = ValueIndex<T>;
  [[nodiscard]] ValueIndex<T> combine(const ValueIndex<T>& a,
                                      const ValueIndex<T>& b) const {
    if (b.index < 0) return a;
    if (a.index < 0) return b;
    if (b.value < a.value) return a;
    if (a.value < b.value) return b;
    return a.index <= b.index ? a : b;
  }
  [[nodiscard]] ValueIndex<T> identity() const {
    return {std::numeric_limits<T>::lowest(), -1};
  }
};

/// Logical operators, handy for feasibility / convergence flags.
struct LogicalAnd {
  using value_type = std::uint8_t;
  [[nodiscard]] std::uint8_t combine(std::uint8_t a, std::uint8_t b) const {
    return a && b;
  }
  [[nodiscard]] std::uint8_t identity() const { return 1; }
};

struct LogicalOr {
  using value_type = std::uint8_t;
  [[nodiscard]] std::uint8_t combine(std::uint8_t a, std::uint8_t b) const {
    return a || b;
  }
  [[nodiscard]] std::uint8_t identity() const { return 0; }
};

}  // namespace vmp
