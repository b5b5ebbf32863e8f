#include "cqa/arith/bigint.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <new>
#include <vector>

#include "cqa/guard/fault.h"
#include "cqa/guard/meter.h"

namespace cqa {

namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;
using u128 = unsigned __int128;
using i128 = __int128;
using Limbs = std::vector<u32>;

constexpr u64 kBase = u64{1} << 32;
constexpr u64 kSmallMagCapPos = (u64{1} << 63) - 1;  // INT64_MAX
constexpr u64 kSmallMagCapNeg = u64{1} << 63;        // |INT64_MIN|

inline u64 abs_u64(i64 v) {
  // Two's complement negate in unsigned space; safe on INT64_MIN.
  return v < 0 ? ~static_cast<u64>(v) + 1 : static_cast<u64>(v);
}

// Read-only view of a trimmed little-endian magnitude. Small values view
// a caller-provided 2-limb buffer; heap values view their limb vector.
struct MagView {
  const u32* p = nullptr;
  std::size_t n = 0;
  u32 operator[](std::size_t i) const { return p[i]; }
  bool empty() const { return n == 0; }
};

inline MagView view_of(const Limbs& v) { return {v.data(), v.size()}; }

// Fills buf with |v|'s limbs and returns a view over it.
inline MagView small_view(i64 v, u32 buf[2]) {
  u64 m = abs_u64(v);
  std::size_t n = 0;
  while (m != 0) {
    buf[n++] = static_cast<u32>(m);
    m >>= 32;
  }
  return {buf, n};
}

inline void trim(Limbs* v) {
  while (!v->empty() && v->back() == 0) v->pop_back();
}

// Drops trailing zero limbs from a view (sub-spans inside Karatsuba).
inline MagView trimmed(MagView v) {
  while (v.n > 0 && v.p[v.n - 1] == 0) --v.n;
  return v;
}

int cmp_mag(MagView a, MagView b) {
  if (a.n != b.n) return a.n < b.n ? -1 : 1;
  for (std::size_t i = a.n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// out = a + b. out must not alias a or b.
void add_mag_into(MagView a, MagView b, Limbs* out) {
  const MagView& lo = a.n < b.n ? a : b;
  const MagView& hi = a.n < b.n ? b : a;
  out->clear();
  out->reserve(hi.n + 1);
  u64 carry = 0;
  for (std::size_t i = 0; i < hi.n; ++i) {
    u64 s = carry + hi[i] + (i < lo.n ? lo[i] : 0);
    out->push_back(static_cast<u32>(s));
    carry = s >> 32;
  }
  if (carry != 0) out->push_back(static_cast<u32>(carry));
}

// *a += b. b must not alias a's storage.
void add_mag_inplace(Limbs* a, MagView b) {
  if (b.n > a->size()) a->resize(b.n, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < a->size(); ++i) {
    u64 s = carry + (*a)[i] + (i < b.n ? b[i] : 0);
    (*a)[i] = static_cast<u32>(s);
    carry = s >> 32;
    if (carry == 0 && i >= b.n) break;  // no more incoming limbs or carry
  }
  if (carry != 0) a->push_back(static_cast<u32>(carry));
}

// *a -= b; requires |a| >= |b|. b must not alias a's storage.
void sub_mag_inplace(Limbs* a, MagView b) {
  CQA_DCHECK(cmp_mag(view_of(*a), b) >= 0);
  i64 borrow = 0;
  for (std::size_t i = 0; i < a->size(); ++i) {
    i64 d = static_cast<i64>((*a)[i]) -
            (i < b.n ? static_cast<i64>(b[i]) : 0) - borrow;
    if (d < 0) {
      d += static_cast<i64>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<u32>(d);
    if (borrow == 0 && i >= b.n) break;
  }
  trim(a);
}

// *a = b - *a; requires |b| >= |a|. b must not alias a's storage.
void rsub_mag_inplace(Limbs* a, MagView b) {
  CQA_DCHECK(cmp_mag(b, view_of(*a)) >= 0);
  a->resize(b.n, 0);
  i64 borrow = 0;
  for (std::size_t i = 0; i < b.n; ++i) {
    i64 d = static_cast<i64>(b[i]) - static_cast<i64>((*a)[i]) - borrow;
    if (d < 0) {
      d += static_cast<i64>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<u32>(d);
  }
  trim(a);
}

// Schoolbook out = a * b, on 64-bit super-limbs: the 32-bit views are
// read in pairs and multiplied via unsigned __int128, quartering the
// multiply count of a 32x32 kernel. The row carry lands exactly one
// super-limb past the row (acc[i + bn] is untouched before row i writes
// it), so no extra propagation pass is needed. A thread-local
// accumulator keeps leaf calls allocation-free. out must not alias a/b.
void mul_mag_school_into(MagView a, MagView b, Limbs* out) {
  if (a.empty() || b.empty()) {
    out->clear();
    return;
  }
  const std::size_t an = (a.n + 1) / 2;
  const std::size_t bn = (b.n + 1) / 2;
  auto limb64 = [](MagView v, std::size_t i) -> u64 {
    const u64 lo = v.p[2 * i];
    const u64 hi = (2 * i + 1 < v.n) ? v.p[2 * i + 1] : 0;
    return lo | (hi << 32);
  };
  static thread_local std::vector<u64> acc;
  acc.assign(an + bn, 0);
  for (std::size_t i = 0; i < an; ++i) {
    const u64 ai = limb64(a, i);
    u64 carry = 0;
    for (std::size_t j = 0; j < bn; ++j) {
      const u128 cur =
          static_cast<u128>(ai) * limb64(b, j) + acc[i + j] + carry;
      acc[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    acc[i + bn] = carry;
  }
  out->resize(a.n + b.n);
  for (std::size_t i = 0; i < out->size(); ++i) {
    const u64 w = acc[i / 2];
    (*out)[i] = static_cast<u32>((i & 1) != 0 ? (w >> 32) : w);
  }
  trim(out);
}

void mul_mag_into(MagView a, MagView b, Limbs* out);

// out += v << (32 * off). out must already be large enough for the
// aligned add except for a possible final carry limb.
void add_mag_at(Limbs* out, MagView v, std::size_t off) {
  if (out->size() < off + v.n) out->resize(off + v.n, 0);
  u64 carry = 0;
  std::size_t i = 0;
  for (; i < v.n; ++i) {
    u64 s = carry + (*out)[off + i] + v[i];
    (*out)[off + i] = static_cast<u32>(s);
    carry = s >> 32;
  }
  while (carry != 0) {
    if (off + i == out->size()) {
      out->push_back(static_cast<u32>(carry));
      break;
    }
    u64 s = carry + (*out)[off + i];
    (*out)[off + i] = static_cast<u32>(s);
    carry = s >> 32;
    ++i;
  }
}

// RAII scratch vector borrowed from the limb arena. Karatsuba churns
// five temporaries per internal recursion node; borrowing them keeps the
// recursion allocation-free once the pool's capacities are warm.
struct Scratch {
  arith::LimbRep* rep;
  Scratch() : rep(arith::arena_acquire()) { rep->limbs.clear(); }
  ~Scratch() { arith::arena_release(rep); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  Limbs* operator->() const { return &rep->limbs; }
  Limbs& operator*() const { return rep->limbs; }
};

// Karatsuba out = a * b for operands both >= kKaratsubaLimbs limbs.
// Split at half the larger operand: a = a1*B^k + a0, b likewise, then
// a*b = z2*B^2k + (z1 - z0 - z2)*B^k + z0 with z0 = a0*b0, z2 = a1*b1,
// z1 = (a0+a1)*(b0+b1). Three recursive multiplies of ~half size.
void mul_mag_karatsuba_into(MagView a, MagView b, Limbs* out) {
  const std::size_t k = (std::max(a.n, b.n) + 1) / 2;
  const MagView a0 = trimmed({a.p, std::min(k, a.n)});
  const MagView a1 = a.n > k ? MagView{a.p + k, a.n - k} : MagView{};
  const MagView b0 = trimmed({b.p, std::min(k, b.n)});
  const MagView b1 = b.n > k ? MagView{b.p + k, b.n - k} : MagView{};

  Scratch z0, z2, sa, sb, z1;
  mul_mag_into(a0, b0, &*z0);
  mul_mag_into(a1, b1, &*z2);
  add_mag_into(a0, a1, &*sa);
  add_mag_into(b0, b1, &*sb);
  mul_mag_into(view_of(*sa), view_of(*sb), &*z1);
  // z1 = z1 - z0 - z2 >= 0 (the cross terms).
  sub_mag_inplace(&*z1, view_of(*z0));
  sub_mag_inplace(&*z1, view_of(*z2));

  out->assign(a.n + b.n, 0);
  std::copy(z0->begin(), z0->end(), out->begin());
  add_mag_at(out, view_of(*z1), k);
  add_mag_at(out, view_of(*z2), 2 * k);
  trim(out);
}

void mul_mag_into(MagView a, MagView b, Limbs* out) {
  if (a.empty() || b.empty()) {
    out->clear();
    return;
  }
  if (std::min(a.n, b.n) >= BigInt::kKaratsubaLimbs) {
    mul_mag_karatsuba_into(a, b, out);
  } else {
    mul_mag_school_into(a, b, out);
  }
}

// Knuth Algorithm D on magnitudes. q and r must not alias a or b.
void divmod_mag(MagView a, MagView b, Limbs* q, Limbs* r) {
  CQA_CHECK(!b.empty());
  q->clear();
  r->clear();
  if (cmp_mag(a, b) < 0) {
    r->assign(a.p, a.p + a.n);
    return;
  }
  if (b.n == 1) {
    // Short division.
    const u64 d = b[0];
    q->assign(a.n, 0);
    u64 rem = 0;
    for (std::size_t i = a.n; i-- > 0;) {
      u64 cur = (rem << 32) | a[i];
      (*q)[i] = static_cast<u32>(cur / d);
      rem = cur % d;
    }
    trim(q);
    if (rem != 0) r->push_back(static_cast<u32>(rem));
    return;
  }

  // Normalize so the top limb of the divisor has its high bit set.
  int shift = 0;
  {
    u32 top = b[b.n - 1];
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  auto shl_mag = [](MagView v, int s) -> Limbs {
    Limbs out(v.n + (s != 0 ? 1 : 0), 0);
    if (s == 0) {
      out.assign(v.p, v.p + v.n);
      return out;
    }
    for (std::size_t i = 0; i < v.n; ++i) {
      out[i] |= v[i] << s;
      out[i + 1] |= static_cast<u32>(static_cast<u64>(v[i]) >> (32 - s));
    }
    trim(&out);
    return out;
  };
  Limbs u = shl_mag(a, shift);
  Limbs v = shl_mag(b, shift);
  const std::size_t n = v.size();
  const std::size_t m = u.size() >= n ? u.size() - n : 0;
  u.resize(u.size() + 1, 0);  // room for the virtual top limb
  q->assign(m + 1, 0);

  const u64 vn1 = v[n - 1];
  const u64 vn2 = v[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    u64 num = (static_cast<u64>(u[j + n]) << 32) | u[j + n - 1];
    u64 qhat, rhat;
    if (u[j + n] == vn1) {
      // qhat would be >= base; clamp (Knuth D3). The multiply-subtract
      // add-back step corrects any remaining overestimate.
      qhat = kBase - 1;
      rhat = num - qhat * vn1;
    } else {
      qhat = num / vn1;
      rhat = num % vn1;
    }
    while (rhat < kBase && qhat * vn2 > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += vn1;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    i64 borrow = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u64 p = qhat * v[i] + carry;
      carry = p >> 32;
      i64 t = static_cast<i64>(u[i + j]) -
              static_cast<i64>(p & 0xffffffffu) - borrow;
      if (t < 0) {
        t += static_cast<i64>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<u32>(t);
    }
    i64 t = static_cast<i64>(u[j + n]) - static_cast<i64>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large; add back.
      t += static_cast<i64>(kBase);
      --qhat;
      u64 c2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u64 s = static_cast<u64>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<u32>(s);
        c2 = s >> 32;
      }
      t += static_cast<i64>(c2);
      t &= static_cast<i64>(0xffffffffll);
    }
    u[j + n] = static_cast<u32>(t);
    (*q)[j] = static_cast<u32>(qhat);
  }
  trim(q);
  // Remainder = u[0..n) >> shift.
  u.resize(n);
  if (shift != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      u32 hi = (i + 1 < n) ? u[i + 1] : 0;
      u[i] = (u[i] >> shift) |
             static_cast<u32>((static_cast<u64>(hi) << (32 - shift)) &
                              0xffffffffu);
    }
  }
  trim(&u);
  *r = std::move(u);
}

}  // namespace

// ---------------------------------------------------------------------------
// Representation management.

BigInt::BigInt(const BigInt& o) : small_(o.small_) {
  if (o.rep_ != nullptr) {
    rep_ = arith::arena_acquire();
    rep_->negative = o.rep_->negative;
    rep_->limbs = o.rep_->limbs;  // assign into retained capacity
  }
}

BigInt& BigInt::operator=(const BigInt& o) {
  if (this == &o) return *this;
  small_ = o.small_;
  if (o.rep_ != nullptr) {
    if (rep_ == nullptr) rep_ = arith::arena_acquire();
    rep_->negative = o.rep_->negative;
    rep_->limbs = o.rep_->limbs;
  } else {
    release_rep();
  }
  return *this;
}

BigInt& BigInt::operator=(BigInt&& o) noexcept {
  if (this == &o) return *this;
  std::swap(small_, o.small_);
  std::swap(rep_, o.rep_);
  return *this;
}

void BigInt::adopt_mag(bool negative, arith::LimbRep* rep) {
  Limbs& limbs = rep->limbs;
  trim(&limbs);
  if (limbs.size() <= 2) {
    u64 mag = limbs.empty() ? 0 : limbs[0];
    if (limbs.size() == 2) mag |= static_cast<u64>(limbs[1]) << 32;
    const u64 cap = negative ? kSmallMagCapNeg : kSmallMagCapPos;
    if (mag <= cap) {
      release_rep();
      arith::arena_release(rep);
      small_ = negative ? static_cast<i64>(~mag + 1) : static_cast<i64>(mag);
      return;
    }
  }
  release_rep();
  rep->negative = negative;  // limbs nonempty here: |v| > int64 range
  rep_ = rep;
  small_ = 0;
}

BigInt BigInt::from_mag(bool negative, arith::LimbRep* rep) {
  BigInt out;
  out.adopt_mag(negative, rep);
  return out;
}

BigInt BigInt::from_u128(bool negative, u128 mag) {
  const u128 cap = negative ? static_cast<u128>(kSmallMagCapNeg)
                            : static_cast<u128>(kSmallMagCapPos);
  if (mag <= cap) {
    const u64 m = static_cast<u64>(mag);
    return BigInt(negative ? static_cast<i64>(~m + 1) : static_cast<i64>(m));
  }
  arith::LimbRep* rep = arith::arena_acquire();
  rep->limbs.clear();
  u128 m = mag;
  while (m != 0) {
    rep->limbs.push_back(static_cast<u32>(m));
    m >>= 32;
  }
  BigInt out;
  out.adopt_mag(negative, rep);
  return out;
}

BigInt BigInt::from_i128(i128 v) {
  const bool neg = v < 0;
  const u128 mag = neg ? u128{0} - static_cast<u128>(v) : static_cast<u128>(v);
  return from_u128(neg, mag);
}

std::size_t BigInt::limb_count() const noexcept {
  if (rep_ != nullptr) return rep_->limbs.size();
  const u64 mag = abs_u64(small_);
  if (mag == 0) return 0;
  return (mag >> 32) != 0 ? 2 : 1;
}

// ---------------------------------------------------------------------------
// Parsing and rendering.

Result<BigInt> BigInt::from_string(const std::string& s) {
  std::size_t i = 0;
  bool neg = false;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    neg = s[i] == '-';
    ++i;
  }
  if (i >= s.size()) return Status::invalid("empty integer literal: " + s);
  BigInt out;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return Status::invalid("bad digit in integer literal: " + s);
    }
    out *= BigInt(10);
    out += BigInt(s[i] - '0');
  }
  if (neg) out = -out;
  return out;
}

std::string BigInt::to_string() const {
  if (rep_ == nullptr) return std::to_string(small_);
  // Repeated division by 10^9 on a limb copy.
  Limbs mag = rep_->limbs;
  const u64 kChunk = 1000000000ull;
  std::string digits;
  while (!mag.empty()) {
    u64 rem = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      u64 cur = (rem << 32) | mag[i];
      mag[i] = static_cast<u32>(cur / kChunk);
      rem = cur % kChunk;
    }
    trim(&mag);
    for (int k = 0; k < 9; ++k) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (rep_->negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::to_double() const {
  if (rep_ == nullptr) return static_cast<double>(small_);
  double out = 0;
  for (std::size_t i = rep_->limbs.size(); i-- > 0;) {
    out = out * 4294967296.0 + static_cast<double>(rep_->limbs[i]);
  }
  return rep_->negative ? -out : out;
}

Result<std::int64_t> BigInt::to_int64() const {
  if (rep_ != nullptr) return Status::out_of_range("BigInt exceeds int64");
  return small_;
}

std::size_t BigInt::bit_length() const noexcept {
  if (rep_ == nullptr) {
    return static_cast<std::size_t>(std::bit_width(abs_u64(small_)));
  }
  const Limbs& limbs = rep_->limbs;
  return (limbs.size() - 1) * 32 +
         static_cast<std::size_t>(std::bit_width(limbs.back()));
}

std::size_t BigInt::hash() const noexcept {
  u32 buf[2];
  const MagView m = rep_ != nullptr ? view_of(rep_->limbs)
                                    : small_view(small_, buf);
  std::size_t h = is_negative() ? 0x9e3779b97f4a7c15ull : 0;
  for (std::size_t i = 0; i < m.n; ++i) {
    h ^= m[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Sign manipulation and comparison.

BigInt BigInt::operator-() const {
  if (rep_ == nullptr) {
    if (small_ == std::numeric_limits<i64>::min()) {
      return from_u128(false, static_cast<u128>(kSmallMagCapNeg));
    }
    return BigInt(-small_);
  }
  BigInt out = *this;
  // A positive heap magnitude of exactly 2^63 re-inlines to INT64_MIN.
  arith::LimbRep* rep = out.rep_;
  out.rep_ = nullptr;
  out.adopt_mag(!rep->negative, rep);
  return out;
}

BigInt BigInt::abs() const {
  if (rep_ == nullptr) {
    if (small_ == std::numeric_limits<i64>::min()) {
      return from_u128(false, static_cast<u128>(kSmallMagCapNeg));
    }
    return BigInt(small_ < 0 ? -small_ : small_);
  }
  BigInt out = *this;
  out.rep_->negative = false;  // heap magnitudes stay heap when positive
  return out;
}

int BigInt::cmp(const BigInt& o) const noexcept {
  if (rep_ == nullptr && o.rep_ == nullptr) {
    return small_ < o.small_ ? -1 : (small_ > o.small_ ? 1 : 0);
  }
  if (rep_ == nullptr) return o.rep_->negative ? 1 : -1;  // |o| is larger
  if (o.rep_ == nullptr) return rep_->negative ? -1 : 1;
  if (rep_->negative != o.rep_->negative) return rep_->negative ? -1 : 1;
  const int c = cmp_mag(view_of(rep_->limbs), view_of(o.rep_->limbs));
  return rep_->negative ? -c : c;
}

// ---------------------------------------------------------------------------
// Addition / subtraction.

BigInt BigInt::operator+(const BigInt& o) const {
  if (rep_ == nullptr && o.rep_ == nullptr) {
    i64 r;
    if (!__builtin_add_overflow(small_, o.small_, &r)) return BigInt(r);
    return from_i128(static_cast<i128>(small_) + o.small_);
  }
  BigInt out = *this;
  out.add_assign(o, /*negate_o=*/false);
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (rep_ == nullptr && o.rep_ == nullptr) {
    i64 r;
    if (!__builtin_sub_overflow(small_, o.small_, &r)) return BigInt(r);
    return from_i128(static_cast<i128>(small_) - o.small_);
  }
  BigInt out = *this;
  out.add_assign(o, /*negate_o=*/true);
  return out;
}

BigInt& BigInt::operator+=(const BigInt& o) {
  add_assign(o, /*negate_o=*/false);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& o) {
  add_assign(o, /*negate_o=*/true);
  return *this;
}

void BigInt::add_assign(const BigInt& o, bool negate_o) {
  if (rep_ == nullptr && o.rep_ == nullptr) {
    i64 r;
    const bool overflow =
        negate_o ? __builtin_sub_overflow(small_, o.small_, &r)
                 : __builtin_add_overflow(small_, o.small_, &r);
    if (!overflow) {
      small_ = r;
      return;
    }
    const i128 s = negate_o ? static_cast<i128>(small_) - o.small_
                            : static_cast<i128>(small_) + o.small_;
    *this = from_i128(s);
    return;
  }
  if (this == &o) {
    // Self add/sub: x += x doubles, x -= x zeroes. Divert to copies.
    const BigInt copy = o;
    add_assign(copy, negate_o);
    return;
  }
  if (rep_ == nullptr) {
    // Small += heap: promote *this first so the in-place path applies.
    arith::LimbRep* rep = arith::arena_acquire();
    u32 buf[2];
    const MagView m = small_view(small_, buf);
    rep->limbs.assign(m.p, m.p + m.n);
    rep->negative = small_ < 0;
    rep_ = rep;
    small_ = 0;
  }
  u32 obuf[2];
  const MagView om = o.rep_ != nullptr ? view_of(o.rep_->limbs)
                                       : small_view(o.small_, obuf);
  const bool oneg = (o.is_negative() && !o.is_zero()) ^ negate_o;
  bool myneg = rep_->negative;
  Limbs& limbs = rep_->limbs;
  if (myneg == oneg || om.empty()) {
    add_mag_inplace(&limbs, om);
    // Magnitude grew; still out of int64 range, no re-inline check needed.
    return;
  }
  const int c = cmp_mag(view_of(limbs), om);
  if (c == 0) {
    release_rep();
    small_ = 0;
    return;
  }
  if (c > 0) {
    sub_mag_inplace(&limbs, om);
  } else {
    rsub_mag_inplace(&limbs, om);
    myneg = oneg;
  }
  // Subtraction can shrink back into int64 range: re-canonicalize.
  arith::LimbRep* rep = rep_;
  rep_ = nullptr;
  adopt_mag(myneg, rep);
}

// ---------------------------------------------------------------------------
// Multiplication.

BigInt BigInt::operator*(const BigInt& o) const {
  // Guard hooks on the two allocating hot ops (multiply, divmod): the
  // thread meter records the would-be result bit-length *before* the
  // allocation so a Karpinski-Macintyre coefficient blowup trips the
  // quota ahead of the OOM, and chaos runs can inject an allocation
  // failure here. Both are one TLS/atomic load when off.
  guard::charge_bigint_bits_tl(32 * (limb_count() + o.limb_count()));
  if (guard::fault_fires(guard::FaultSite::kBigIntAlloc)) {
    throw std::bad_alloc();
  }
  if (rep_ == nullptr && o.rep_ == nullptr) {
    i64 r;
    if (!__builtin_mul_overflow(small_, o.small_, &r)) return BigInt(r);
    return from_i128(static_cast<i128>(small_) * o.small_);
  }
  u32 abuf[2], bbuf[2];
  const MagView am =
      rep_ != nullptr ? view_of(rep_->limbs) : small_view(small_, abuf);
  const MagView bm = o.rep_ != nullptr ? view_of(o.rep_->limbs)
                                       : small_view(o.small_, bbuf);
  arith::LimbRep* rep = arith::arena_acquire();
  mul_mag_into(am, bm, &rep->limbs);
  return from_mag(is_negative() != o.is_negative() && !rep->limbs.empty(),
                  rep);
}

BigInt& BigInt::operator*=(const BigInt& o) {
  if (rep_ == nullptr && o.rep_ == nullptr) {
    guard::charge_bigint_bits_tl(32 * (limb_count() + o.limb_count()));
    if (guard::fault_fires(guard::FaultSite::kBigIntAlloc)) {
      throw std::bad_alloc();
    }
    i64 r;
    if (!__builtin_mul_overflow(small_, o.small_, &r)) {
      small_ = r;
      return *this;
    }
    *this = from_i128(static_cast<i128>(small_) * o.small_);
    return *this;
  }
  // Heap multiply cannot run in place; the result node and the released
  // operand node both recycle through the arena.
  return *this = *this * o;
}

BigInt BigInt::mul_schoolbook(const BigInt& a, const BigInt& b) {
  u32 abuf[2], bbuf[2];
  const MagView am = a.rep_ != nullptr ? view_of(a.rep_->limbs)
                                       : small_view(a.small_, abuf);
  const MagView bm = b.rep_ != nullptr ? view_of(b.rep_->limbs)
                                       : small_view(b.small_, bbuf);
  arith::LimbRep* rep = arith::arena_acquire();
  mul_mag_school_into(am, bm, &rep->limbs);
  return from_mag(a.is_negative() != b.is_negative() && !rep->limbs.empty(),
                  rep);
}

// ---------------------------------------------------------------------------
// Division.

BigInt::DivMod BigInt::divmod(const BigInt& o) const {
  CQA_CHECK(!o.is_zero());
  guard::charge_bigint_bits_tl(32 * limb_count());
  if (guard::fault_fires(guard::FaultSite::kBigIntAlloc)) {
    throw std::bad_alloc();
  }
  DivMod out;
  if (rep_ == nullptr && o.rep_ == nullptr) {
    if (small_ == std::numeric_limits<i64>::min() && o.small_ == -1) {
      // The one quotient that overflows hardware division: |INT64_MIN|.
      out.quot = from_u128(false, static_cast<u128>(kSmallMagCapNeg));
      return out;
    }
    out.quot = BigInt(small_ / o.small_);
    out.rem = BigInt(small_ % o.small_);
    return out;
  }
  u32 abuf[2], bbuf[2];
  const MagView am =
      rep_ != nullptr ? view_of(rep_->limbs) : small_view(small_, abuf);
  const MagView bm = o.rep_ != nullptr ? view_of(o.rep_->limbs)
                                       : small_view(o.small_, bbuf);
  arith::LimbRep* qrep = arith::arena_acquire();
  arith::LimbRep* rrep = arith::arena_acquire();
  divmod_mag(am, bm, &qrep->limbs, &rrep->limbs);
  const bool qneg =
      !qrep->limbs.empty() && (is_negative() != o.is_negative());
  const bool rneg = !rrep->limbs.empty() && is_negative();
  out.quot = from_mag(qneg, qrep);
  out.rem = from_mag(rneg, rrep);
  return out;
}

BigInt BigInt::operator/(const BigInt& o) const { return divmod(o).quot; }

BigInt BigInt::operator%(const BigInt& o) const { return divmod(o).rem; }

BigInt& BigInt::operator/=(const BigInt& o) {
  return *this = divmod(o).quot;
}

// ---------------------------------------------------------------------------
// Shifts.

BigInt BigInt::shl(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  if (rep_ == nullptr && bits < 64) {
    // |small| <= 2^63, so the widest result is 2^126: u128 holds it.
    return from_u128(small_ < 0, static_cast<u128>(abs_u64(small_)) << bits);
  }
  u32 buf[2];
  const MagView m =
      rep_ != nullptr ? view_of(rep_->limbs) : small_view(small_, buf);
  const std::size_t limb_shift = bits / 32;
  const int bit_shift = static_cast<int>(bits % 32);
  arith::LimbRep* rep = arith::arena_acquire();
  Limbs& out = rep->limbs;
  out.assign(m.n + limb_shift + 1, 0);
  for (std::size_t i = 0; i < m.n; ++i) {
    const u64 v = static_cast<u64>(m[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<u32>(v);
    out[i + limb_shift + 1] |= static_cast<u32>(v >> 32);
  }
  return from_mag(is_negative(), rep);
}

BigInt BigInt::shr(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  if (rep_ == nullptr) {
    const u64 res = bits >= 64 ? 0 : abs_u64(small_) >> bits;
    return from_u128(small_ < 0 && res != 0, static_cast<u128>(res));
  }
  const Limbs& limbs = rep_->limbs;
  const std::size_t limb_shift = bits / 32;
  const int bit_shift = static_cast<int>(bits % 32);
  if (limb_shift >= limbs.size()) return BigInt();
  arith::LimbRep* rep = arith::arena_acquire();
  Limbs& out = rep->limbs;
  out.assign(limbs.begin() + static_cast<std::ptrdiff_t>(limb_shift),
             limbs.end());
  if (bit_shift != 0) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const u32 hi = (i + 1 < out.size()) ? out[i + 1] : 0;
      out[i] = (out[i] >> bit_shift) |
               static_cast<u32>((static_cast<u64>(hi) << (32 - bit_shift)) &
                                0xffffffffu);
    }
  }
  trim(&out);
  return from_mag(rep_->negative && !out.empty(), rep);
}

// ---------------------------------------------------------------------------
// Number theory.

BigInt BigInt::gcd(const BigInt& a, const BigInt& b) {
  if (a.rep_ == nullptr && b.rep_ == nullptr) {
    u64 x = abs_u64(a.small_);
    u64 y = abs_u64(b.small_);
    while (y != 0) {
      const u64 t = x % y;
      x = y;
      y = t;
    }
    // gcd(INT64_MIN, 0) = 2^63 exceeds INT64_MAX; from_u128 promotes.
    return from_u128(false, static_cast<u128>(x));
  }
  BigInt x = a.abs();
  BigInt y = b.abs();
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

BigInt BigInt::lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt();
  BigInt g = gcd(a, b);
  return (a.abs() / g) * b.abs();
}

BigInt BigInt::pow(const BigInt& base, std::uint64_t e) {
  BigInt result(1);
  BigInt b = base;
  while (e != 0) {
    if (e & 1) result *= b;
    b *= b;
    e >>= 1;
  }
  return result;
}

}  // namespace cqa
