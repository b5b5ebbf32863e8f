// Fixed-width little-endian binary encoding helpers, shared by the
// serve-layer request fingerprint and the cqa::served wire protocol.
//
// Everything is byte-exact and platform-stable: integers are emitted as
// fixed-width little-endian regardless of host endianness or the width
// of size_t, doubles as the little-endian bytes of their IEEE-754
// bit pattern. Two processes (or two builds) encoding the same value
// produce the same bytes -- the property the cross-process coalescing
// fingerprint and the disk-backed result cache both rely on.

#ifndef CQA_UTIL_BINCODE_H_
#define CQA_UTIL_BINCODE_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace cqa {
namespace bincode {

inline void put_u8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void put_i64(std::string* out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_f64(std::string* out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Length-prefixed (u64 LE) byte string.
inline void put_str(std::string* out, const std::string& s) {
  put_u64(out, static_cast<std::uint64_t>(s.size()));
  out->append(s);
}

/// Cursor-based reader over an encoded buffer. Every get_* returns
/// false (leaving the output untouched) once the buffer is exhausted or
/// a length prefix overruns it, so decoders degrade to a clean error
/// instead of reading out of bounds.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::string& buf)
      : Reader(buf.data(), buf.size()) {}

  bool get_u8(std::uint8_t* v) {
    if (pos_ + 1 > size_) return fail();
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool get_u32(std::uint32_t* v) {
    if (pos_ + 4 > size_) return fail();
    std::uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return true;
  }

  bool get_u64(std::uint64_t* v) {
    if (pos_ + 8 > size_) return fail();
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool get_i64(std::int64_t* v) {
    std::uint64_t u;
    if (!get_u64(&u)) return false;
    *v = static_cast<std::int64_t>(u);
    return true;
  }

  bool get_f64(double* v) {
    std::uint64_t bits;
    if (!get_u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool get_str(std::string* s) {
    std::uint64_t len;
    if (!get_u64(&len)) return false;
    if (len > size_ - pos_) return fail();
    s->assign(data_ + pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  bool ok() const { return !failed_; }
  bool exhausted() const { return pos_ == size_; }
  std::size_t pos() const { return pos_; }

 private:
  bool fail() {
    failed_ = true;
    return false;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// FNV-1a over a byte string: the stable 64-bit hash used to pick a
/// shard from a fingerprint and to checksum disk-cache entries. `seed`
/// salts the basis so independent uses cannot collide structurally.
inline std::uint64_t fnv1a(const std::string& bytes,
                           std::uint64_t seed = 0) {
  std::uint64_t h = 14695981039346656037ull ^ seed;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace bincode
}  // namespace cqa

#endif  // CQA_UTIL_BINCODE_H_
