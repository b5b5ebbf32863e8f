// Exact rational numbers over BigInt.

#ifndef CQA_ARITH_RATIONAL_H_
#define CQA_ARITH_RATIONAL_H_

#include <cstdint>
#include <string>

#include "cqa/arith/bigint.h"
#include "cqa/util/status.h"

namespace cqa {

/// Exact rational number, always kept in lowest terms with a positive
/// denominator. The value type of the whole library.
///
/// Construction rules: machine-integer constructors are implicit (numeric
/// literal ergonomics -- `Rational(1, 2)`, `r + 3`); the BigInt
/// constructor is explicit because a BigInt may carry heap limbs, so that
/// conversion can allocate and should be visible at the call site.
class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}
  /// Integer value. Never allocates.
  // NOLINTNEXTLINE(google-explicit-constructor): numeric ergonomics.
  Rational(std::int64_t v) : num_(v), den_(1) {}
  /// Integer value; explicit -- copying a heap BigInt allocates.
  explicit Rational(BigInt v) : num_(std::move(v)), den_(1) {}
  /// num/den, normalized. Aborts if den == 0.
  Rational(BigInt num, BigInt den);
  Rational(std::int64_t num, std::int64_t den)
      : Rational(BigInt(num), BigInt(den)) {}

  /// Parses "p", "-p", "p/q", or a decimal like "3.25" / "-0.5".
  static Result<Rational> from_string(const std::string& s);

  /// Exact value of a finite double (every finite double is a dyadic
  /// rational). Errors on NaN / infinity.
  static Result<Rational> from_double(double v);
  /// Parses or aborts; for literals in tests and examples.
  static Rational parse(const std::string& s) {
    return from_string(s).value_or_die();
  }

  /// Numerator / denominator by value (den() > 0, both in lowest terms).
  /// Value-returning on purpose: Rational's internals re-normalize in
  /// place, so handing out references would pin representation details.
  /// Copies of inline values are free; heap values recycle pool nodes.
  BigInt num() const { return num_; }
  BigInt den() const { return den_; }

  bool is_zero() const { return num_.is_zero(); }
  bool is_integer() const { return den_ == BigInt(1); }
  int sign() const { return num_.sign(); }

  Rational operator-() const;
  Rational abs() const { return sign() < 0 ? -*this : *this; }
  /// Multiplicative inverse. Aborts on zero.
  Rational inverse() const;

  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  /// Aborts on division by zero.
  Rational operator/(const Rational& o) const;

  /// Compound operators are genuinely in-place: small-value operands run
  /// entirely in the inline BigInt representation (no allocation), and
  /// the gcd-splitting identities (Knuth 4.5.1) keep intermediates the
  /// minimal size instead of cross-multiplying then reducing.
  Rational& operator+=(const Rational& o);
  Rational& operator-=(const Rational& o);
  Rational& operator*=(const Rational& o);
  Rational& operator/=(const Rational& o);

  bool operator==(const Rational& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const { return cmp(o) < 0; }
  bool operator<=(const Rational& o) const { return cmp(o) <= 0; }
  bool operator>(const Rational& o) const { return cmp(o) > 0; }
  bool operator>=(const Rational& o) const { return cmp(o) >= 0; }

  /// Three-way comparison: -1, 0, +1.
  int cmp(const Rational& o) const;

  /// Largest integer <= *this.
  BigInt floor() const;
  /// Smallest integer >= *this.
  BigInt ceil() const;

  /// Integer power; negative exponents invert (abort on zero base).
  static Rational pow(const Rational& base, std::int64_t e);

  /// Midpoint (a+b)/2.
  static Rational mid(const Rational& a, const Rational& b);

  /// The rational with the smallest denominator (then smallest |numerator|)
  /// in the closed interval [lo, hi] (continued-fraction / Stern-Brocot
  /// construction). Requires lo <= hi.
  static Rational simplest_in(const Rational& lo, const Rational& hi);

  /// As simplest_in, but over the open interval (lo, hi). Requires lo < hi.
  static Rational simplest_in_open(const Rational& lo, const Rational& hi);

  /// "p" if integer else "p/q".
  std::string to_string() const;
  /// Nearest double.
  double to_double() const;

  /// Hash suitable for unordered containers.
  std::size_t hash() const;

 private:
  void normalize();
  // Shared signed-addition core: *this +/- o, in place, gcd identities.
  void add_assign(const Rational& o, bool negate_o);

  BigInt num_;
  BigInt den_;  // > 0
};

inline Rational operator+(std::int64_t a, const Rational& b) {
  return Rational(a) + b;
}
inline Rational operator-(std::int64_t a, const Rational& b) {
  return Rational(a) - b;
}
inline Rational operator*(std::int64_t a, const Rational& b) {
  return Rational(a) * b;
}

}  // namespace cqa

#endif  // CQA_ARITH_RATIONAL_H_
