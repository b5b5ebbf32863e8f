#include "cqa/arith/rational.h"

#include <cmath>
#include <new>
#include <utility>

#include "cqa/guard/fault.h"
#include "cqa/guard/meter.h"

namespace cqa {

namespace {

inline std::uint64_t abs_u64(std::int64_t v) {
  return v < 0 ? ~static_cast<std::uint64_t>(v) + 1
               : static_cast<std::uint64_t>(v);
}

inline std::uint64_t gcd_u64(std::uint64_t x, std::uint64_t y) {
  while (y != 0) {
    const std::uint64_t t = x % y;
    x = y;
    y = t;
  }
  return x;
}

// 32-bit limbs of |v|, for meter charges equivalent to BigInt's own.
inline std::size_t small_limbs(std::int64_t v) {
  const std::uint64_t m = abs_u64(v);
  if (m == 0) return 0;
  return (m >> 32) != 0 ? 2 : 1;
}

// The hooks a BigInt multiply would run, charged once per fast-path
// Rational op: the bit estimate of the widest product feeds the
// high-water bigint-bits quota, and chaos runs can inject an allocation
// failure exactly as they could on the BigInt path.
inline void small_op_hooks(std::int64_t x, std::int64_t y) {
  guard::charge_bigint_bits_tl(32 * (small_limbs(x) + small_limbs(y)));
  if (guard::fault_fires(guard::FaultSite::kBigIntAlloc)) {
    throw std::bad_alloc();
  }
}

}  // namespace

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  CQA_CHECK(!den_.is_zero());
  normalize();
}

void Rational::normalize() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ /= g;
    den_ /= g;
  }
}

Result<Rational> Rational::from_string(const std::string& s) {
  auto slash = s.find('/');
  if (slash != std::string::npos) {
    auto n = BigInt::from_string(s.substr(0, slash));
    if (!n.is_ok()) return n.status();
    auto d = BigInt::from_string(s.substr(slash + 1));
    if (!d.is_ok()) return d.status();
    if (d.value().is_zero()) return Status::invalid("zero denominator: " + s);
    return Rational(std::move(n).take(), std::move(d).take());
  }
  auto dot = s.find('.');
  if (dot != std::string::npos) {
    std::string intpart = s.substr(0, dot);
    std::string frac = s.substr(dot + 1);
    if (frac.empty()) return Status::invalid("bad decimal literal: " + s);
    bool neg = !intpart.empty() && intpart[0] == '-';
    if (intpart.empty() || intpart == "-" || intpart == "+") intpart += "0";
    auto ip = BigInt::from_string(intpart);
    if (!ip.is_ok()) return ip.status();
    auto fp = BigInt::from_string(frac);
    if (!fp.is_ok()) return fp.status();
    if (fp.value().is_negative()) return Status::invalid("bad decimal: " + s);
    BigInt scale = BigInt::pow(BigInt(10), frac.size());
    BigInt whole = ip.value().abs() * scale + fp.value();
    if (neg) whole = -whole;
    return Rational(std::move(whole), std::move(scale));
  }
  auto n = BigInt::from_string(s);
  if (!n.is_ok()) return n.status();
  return Rational(std::move(n).take());
}

Result<Rational> Rational::from_double(double v) {
  if (!(v == v) || v > 1.7976931348623157e308 || v < -1.7976931348623157e308) {
    return Status::invalid("from_double: non-finite value");
  }
  if (v == 0.0) return Rational();
  // Decompose v = mantissa * 2^exp with mantissa a 53-bit integer.
  int exp = 0;
  double frac = std::frexp(v, &exp);  // |frac| in [0.5, 1)
  std::int64_t mantissa =
      static_cast<std::int64_t>(frac * 9007199254740992.0);  // * 2^53
  exp -= 53;
  BigInt num(mantissa);
  if (exp >= 0) {
    return Rational(num.shl(static_cast<std::size_t>(exp)));
  }
  return Rational(std::move(num),
                  BigInt(1).shl(static_cast<std::size_t>(-exp)));
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::inverse() const {
  CQA_CHECK(!is_zero());
  // Already in lowest terms; only the sign needs to move to the numerator.
  Rational out;
  if (num_.is_negative()) {
    out.num_ = -den_;
    out.den_ = -num_;
  } else {
    out.num_ = den_;
    out.den_ = num_;
  }
  return out;
}

// Knuth TAOCP 4.5.1: for a/b +/- c/d in lowest terms, let g = gcd(b, d),
// t = a*(d/g) +/- c*(b/g), g2 = gcd(t, g); the result is
// (t/g2) / ((b/g)*(d/g2)). Intermediates stay near the reduced size of
// the result instead of the b*d cross-multiply, which keeps small-value
// chains entirely in BigInt's inline representation.
void Rational::add_assign(const Rational& o, bool negate_o) {
  if (this == &o) {
    const Rational copy = o;
    add_assign(copy, negate_o);
    return;
  }
  if (num_.fits_int64() && den_.fits_int64() && o.num_.fits_int64() &&
      o.den_.fits_int64()) {
    // All-inline path in raw machine arithmetic. Cross products of
    // int64 numerators with int64 cofactors fit __int128 (each factor's
    // magnitude is <= 2^63, and b/g, d/g <= 2^63 - 1, so |t| < 2^127).
    const std::int64_t a = num_.int64_unchecked();
    const std::int64_t b = den_.int64_unchecked();    // >= 1
    const std::int64_t c0 = o.num_.int64_unchecked();
    const std::int64_t d = o.den_.int64_unchecked();  // >= 1
    small_op_hooks(a, d);
    const std::int64_t g = static_cast<std::int64_t>(
        gcd_u64(static_cast<std::uint64_t>(b), static_cast<std::uint64_t>(d)));
    const std::int64_t bg = b / g;
    const __int128 c = negate_o ? -static_cast<__int128>(c0)
                                : static_cast<__int128>(c0);
    const __int128 t = static_cast<__int128>(a) * (d / g) + c * bg;
    if (t == 0) {
      num_ = BigInt(0);
      den_ = BigInt(1);
      return;
    }
    std::int64_t g2 = 1;
    if (g != 1) {
      const unsigned __int128 mag = t < 0
          ? static_cast<unsigned __int128>(0) - static_cast<unsigned __int128>(t)
          : static_cast<unsigned __int128>(t);
      g2 = static_cast<std::int64_t>(gcd_u64(
          static_cast<std::uint64_t>(mag % static_cast<std::uint64_t>(g)),
          static_cast<std::uint64_t>(g)));
    }
    num_ = BigInt::from_i128(t / g2);
    den_ = BigInt::from_i128(static_cast<__int128>(bg) * (d / g2));
    return;
  }
  const BigInt g = BigInt::gcd(den_, o.den_);
  const BigInt bg = den_ / g;
  num_ *= o.den_ / g;
  {
    BigInt cross = o.num_ * bg;
    if (negate_o) {
      num_ -= cross;
    } else {
      num_ += cross;
    }
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  const BigInt g2 = BigInt::gcd(num_, g);
  if (g2 != BigInt(1)) num_ /= g2;
  den_ = bg * (o.den_ / g2);
}

Rational& Rational::operator+=(const Rational& o) {
  add_assign(o, /*negate_o=*/false);
  return *this;
}

Rational& Rational::operator-=(const Rational& o) {
  add_assign(o, /*negate_o=*/true);
  return *this;
}

// Knuth 4.5.1 again: (a/b)*(c/d) = ((a/g1)*(c/g2)) / ((b/g2)*(d/g1))
// with g1 = gcd(a, d), g2 = gcd(c, b); the result is already reduced.
Rational& Rational::operator*=(const Rational& o) {
  if (this == &o) {
    // Squaring: gcd(n, d) = 1 implies gcd(n^2, d^2) = 1.
    num_ *= num_;
    den_ *= den_;
    return *this;
  }
  if (num_.fits_int64() && den_.fits_int64() && o.num_.fits_int64() &&
      o.den_.fits_int64()) {
    const std::int64_t a = num_.int64_unchecked();
    const std::int64_t b = den_.int64_unchecked();    // >= 1
    const std::int64_t c = o.num_.int64_unchecked();
    const std::int64_t d = o.den_.int64_unchecked();  // >= 1
    small_op_hooks(a, c);
    // g1, g2 <= the (positive, < 2^63) denominators, so they fit int64.
    const std::int64_t g1 =
        static_cast<std::int64_t>(gcd_u64(abs_u64(a), abs_u64(d)));
    const std::int64_t g2 =
        static_cast<std::int64_t>(gcd_u64(abs_u64(c), abs_u64(b)));
    const __int128 n = a == 0 || c == 0
                           ? __int128{0}
                           : static_cast<__int128>(a / g1) * (c / g2);
    if (n == 0) {
      num_ = BigInt(0);
      den_ = BigInt(1);
      return *this;
    }
    num_ = BigInt::from_i128(n);
    den_ = BigInt::from_i128(static_cast<__int128>(b / g2) * (d / g1));
    return *this;
  }
  const BigInt g1 = BigInt::gcd(num_, o.den_);
  const BigInt g2 = BigInt::gcd(o.num_, den_);
  BigInt on = o.num_;
  BigInt od = o.den_;
  if (g1 != BigInt(1)) {
    num_ /= g1;
    od /= g1;
  }
  if (g2 != BigInt(1)) {
    den_ /= g2;
    on /= g2;
  }
  num_ *= on;
  den_ *= od;
  if (num_.is_zero()) den_ = BigInt(1);
  return *this;
}

Rational& Rational::operator/=(const Rational& o) {
  CQA_CHECK(!o.is_zero());
  if (this == &o) {
    num_ = BigInt(1);
    den_ = BigInt(1);
    return *this;
  }
  return *this *= o.inverse();
}

Rational Rational::operator+(const Rational& o) const {
  Rational out = *this;
  out.add_assign(o, /*negate_o=*/false);
  return out;
}

Rational Rational::operator-(const Rational& o) const {
  Rational out = *this;
  out.add_assign(o, /*negate_o=*/true);
  return out;
}

Rational Rational::operator*(const Rational& o) const {
  Rational out = *this;
  out *= o;
  return out;
}

Rational Rational::operator/(const Rational& o) const {
  Rational out = *this;
  out /= o;
  return out;
}

int Rational::cmp(const Rational& o) const {
  // All-inline fast path: int64 cross products fit __int128 exactly, so
  // no BigInt intermediates (which could spill to the heap) are needed.
  if (num_.fits_int64() && den_.fits_int64() && o.num_.fits_int64() &&
      o.den_.fits_int64()) {
    const __int128 l = static_cast<__int128>(num_.int64_unchecked()) *
                       o.den_.int64_unchecked();
    const __int128 r = static_cast<__int128>(o.num_.int64_unchecked()) *
                       den_.int64_unchecked();
    return l < r ? -1 : (l > r ? 1 : 0);
  }
  return (num_ * o.den_).cmp(o.num_ * den_);
}

BigInt Rational::floor() const {
  BigInt::DivMod dm = num_.divmod(den_);
  if (dm.rem.is_negative()) dm.quot -= BigInt(1);
  return std::move(dm.quot);
}

BigInt Rational::ceil() const {
  BigInt::DivMod dm = num_.divmod(den_);
  if (dm.rem.sign() > 0) dm.quot += BigInt(1);
  return std::move(dm.quot);
}

Rational Rational::pow(const Rational& base, std::int64_t e) {
  if (e < 0) {
    return pow(base.inverse(), -e);
  }
  return Rational(BigInt::pow(base.num_, static_cast<std::uint64_t>(e)),
                  BigInt::pow(base.den_, static_cast<std::uint64_t>(e)));
}

Rational Rational::mid(const Rational& a, const Rational& b) {
  return (a + b) * Rational(1, 2);
}

Rational Rational::simplest_in(const Rational& lo, const Rational& hi) {
  CQA_CHECK(lo <= hi);
  if (lo.sign() <= 0 && hi.sign() >= 0) return Rational();
  if (hi.sign() < 0) return -simplest_in(-hi, -lo);
  // 0 < lo <= hi.
  BigInt ceil_lo = lo.ceil();
  if (Rational(ceil_lo) <= hi) return Rational(ceil_lo);
  // Same integer part; recurse on the fractional inverses.
  BigInt a = lo.floor();
  Rational fl = lo - Rational(a);
  Rational fh = hi - Rational(a);
  // fl, fh in (0, 1): simplest in [lo, hi] = a + 1 / simplest_in(1/fh, 1/fl).
  Rational inner = simplest_in(fh.inverse(), fl.inverse());
  return Rational(a) + inner.inverse();
}

Rational Rational::simplest_in_open(const Rational& lo, const Rational& hi) {
  CQA_CHECK(lo < hi);
  if (lo.sign() < 0 && hi.sign() > 0) return Rational();
  if (hi.sign() <= 0) return -simplest_in_open(-hi, -lo);
  // 0 <= lo < hi.
  BigInt n = lo.floor() + BigInt(1);  // smallest integer strictly above lo
  if (Rational(n) < hi) return Rational(n);
  BigInt a = lo.floor();
  Rational fl = lo - Rational(a);  // in [0, 1)
  Rational fh = hi - Rational(a);  // in (fl, 1]
  if (fl.is_zero()) {
    // Simplest in (0, fh) is 1/m for the smallest m with 1/m < fh.
    BigInt m = fh.inverse().floor() + BigInt(1);
    return Rational(a) + Rational(BigInt(1), std::move(m));
  }
  // x in (lo, hi) iff 1/(x - a) in (1/fh, 1/fl).
  return Rational(a) + simplest_in_open(fh.inverse(), fl.inverse()).inverse();
}

std::string Rational::to_string() const {
  if (is_integer()) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

double Rational::to_double() const {
  // Scale so both parts fit a double's mantissa reasonably.
  const std::size_t nb = num_.bit_length();
  const std::size_t db = den_.bit_length();
  if (nb <= 52 && db <= 52) return num_.to_double() / den_.to_double();
  // Shift the larger operand down, tracking the exponent.
  BigInt n = num_, d = den_;
  int exp = 0;
  while (n.bit_length() > 64) {
    n = n.shr(32);
    exp += 32;
  }
  while (d.bit_length() > 64) {
    d = d.shr(32);
    exp -= 32;
  }
  double base = n.to_double() / d.to_double();
  while (exp >= 32) {
    base *= 4294967296.0;
    exp -= 32;
  }
  while (exp <= -32) {
    base /= 4294967296.0;
    exp += 32;
  }
  while (exp > 0) {
    base *= 2.0;
    --exp;
  }
  while (exp < 0) {
    base /= 2.0;
    ++exp;
  }
  return base;
}

std::size_t Rational::hash() const {
  return num_.hash() * 1000003u ^ den_.hash();
}

}  // namespace cqa
