#include "cqa/served/disk_cache.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "cqa/util/bincode.h"

namespace cqa {
namespace served {

namespace {

constexpr char kMagic[] = "CQADC";      // 5 bytes, then format version
// v2: answer payloads grew the guard worker_hung byte; v1 records would
// fail decode_answer, so a version bump drops them wholesale at open().
// v3: request fingerprints (the keys) moved to format 2. Old keys can
// never hit again, yet would count toward capacity, which refuses new
// keys when full. v4: request fingerprints moved to format 3, for the
// same reason.
constexpr std::uint8_t kFormatVersion = 4;
constexpr std::uint64_t kChecksumSalt = 0xd15cc4c4e5a17ULL;

std::uint64_t record_checksum(const std::string& key,
                              const std::string& value) {
  return bincode::fnv1a(value, bincode::fnv1a(key, kChecksumSalt));
}

}  // namespace

DiskCache::DiskCache(std::string path, std::size_t capacity)
    : path_(std::move(path)), capacity_(capacity) {}

Status DiskCache::open() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();

  // Load phase: validate the header, then records until the first sign
  // of corruption. Order matters only for last-write-wins duplicates.
  std::vector<std::pair<std::string, std::string>> records;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      bincode::Reader r(bytes);
      bool header_ok = bytes.size() >= 6 &&
                       bytes.compare(0, 5, kMagic) == 0 &&
                       static_cast<std::uint8_t>(bytes[5]) == kFormatVersion;
      if (header_ok) {
        bincode::Reader body(bytes.data() + 6, bytes.size() - 6);
        while (!body.exhausted()) {
          std::string key, value;
          std::uint64_t sum;
          if (!body.get_str(&key) || !body.get_str(&value) ||
              !body.get_u64(&sum) || record_checksum(key, value) != sum) {
            // Truncated tail or bit rot: drop this record and the rest.
            ++dropped_corrupt_;
            break;
          }
          records.emplace_back(std::move(key), std::move(value));
        }
      } else if (!bytes.empty()) {
        ++dropped_corrupt_;  // unreadable header: start empty
      }
    }
  }
  for (auto& [key, value] : records) {
    if (index_.size() >= capacity_ && index_.find(key) == index_.end()) {
      continue;
    }
    index_[std::move(key)] = std::move(value);
  }
  loaded_ = index_.size();

  // Compact rewrite: duplicates collapse, the corrupt tail disappears.
  out_.close();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    return Status::internal("disk cache unwritable: " + path_);
  }
  std::string header(kMagic, 5);
  header.push_back(static_cast<char>(kFormatVersion));
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const auto& [key, value] : index_) append_record(key, value);
  out_.flush();
  return Status::ok();
}

std::optional<std::string> DiskCache::lookup(
    const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void DiskCache::store(const std::string& fingerprint,
                      const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    if (index_.size() >= capacity_) {
      ++rejected_full_;
      return;
    }
    index_.emplace(fingerprint, value);
  } else {
    if (it->second == value) return;  // identical answer: nothing to do
    it->second = value;
  }
  ++stores_;
  if (out_) {
    append_record(fingerprint, value);
    out_.flush();
  }
}

void DiskCache::append_record(const std::string& key,
                              const std::string& value) {
  std::string rec;
  rec.reserve(24 + key.size() + value.size());
  bincode::put_str(&rec, key);
  bincode::put_str(&rec, value);
  bincode::put_u64(&rec, record_checksum(key, value));
  out_.write(rec.data(), static_cast<std::streamsize>(rec.size()));
}

DiskCacheStats DiskCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DiskCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.stores = stores_;
  s.loaded = loaded_;
  s.dropped_corrupt = dropped_corrupt_;
  s.rejected_full = rejected_full_;
  s.entries = index_.size();
  return s;
}

}  // namespace served
}  // namespace cqa
