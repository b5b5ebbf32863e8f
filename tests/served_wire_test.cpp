// cqa::served wire + persistence units: frame codec (versioning,
// corruption), Request/Answer payload round trips, the platform-stable
// request fingerprint (golden bytes), the disk-backed result cache's
// corruption tolerance, and the per-scrape-window queue-depth peak.

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "cqa/logic/printer.h"
#include "cqa/runtime/metrics.h"
#include "cqa/serve/scheduler.h"
#include "cqa/served/disk_cache.h"
#include "cqa/served/wire.h"
#include "cqa/util/bincode.h"
#include "gtest/gtest.h"

namespace cqa {
namespace {

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

std::string temp_path(const char* stem) {
  return std::string("/tmp/cqa_wire_test.") + std::to_string(getpid()) +
         "." + stem;
}

// ---------------------------------------------------------------- frames

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) close(fds_[0]);
    if (fds_[1] >= 0) close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramePair, RoundTripsEveryMessageType) {
  for (auto type :
       {served::MsgType::kRequest, served::MsgType::kAnswer,
        served::MsgType::kPing, served::MsgType::kPong,
        served::MsgType::kStats, served::MsgType::kStatsReply}) {
    ASSERT_TRUE(
        served::write_frame(fds_[0], type, 42, "payload bytes").is_ok());
    served::Frame frame;
    ASSERT_TRUE(served::read_frame(fds_[1], &frame).is_ok());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.id, 42u);
    EXPECT_EQ(frame.payload, "payload bytes");
  }
}

TEST_F(FramePair, RejectsVersionMismatchBeforePayload) {
  // Hand-craft a frame claiming wire version 99; the checksum is valid,
  // so the version check (not the corruption check) must reject it.
  std::string body;
  bincode::put_u8(&body, 99);
  bincode::put_u8(&body, 1);
  bincode::put_u64(&body, 7);
  std::string buf;
  bincode::put_u32(&buf, static_cast<std::uint32_t>(body.size()));
  bincode::put_u64(&buf, served::frame_checksum(body));
  buf += body;
  ASSERT_EQ(write(fds_[0], buf.data(), buf.size()),
            static_cast<ssize_t>(buf.size()));
  served::Frame frame;
  Status s = served::read_frame(fds_[1], &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST_F(FramePair, RejectsOversizedLengthPrefixWithoutAllocating) {
  std::string buf;
  bincode::put_u32(&buf, served::kMaxFrameBody + 1);
  bincode::put_u64(&buf, 0);  // checksum slot; length is checked first
  ASSERT_EQ(write(fds_[0], buf.data(), buf.size()),
            static_cast<ssize_t>(buf.size()));
  served::Frame frame;
  EXPECT_EQ(served::read_frame(fds_[1], &frame).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FramePair, FlippedBitFailsChecksumBeforeDecoding) {
  // A valid frame with one payload bit flipped in transit must surface
  // as corruption (kInvalidArgument), never as a decodable frame.
  std::string body;
  bincode::put_u8(&body, served::kWireVersion);
  bincode::put_u8(&body, static_cast<std::uint8_t>(served::MsgType::kPing));
  bincode::put_u64(&body, 7);
  body += "payload";
  std::string buf;
  bincode::put_u32(&buf, static_cast<std::uint32_t>(body.size()));
  bincode::put_u64(&buf, served::frame_checksum(body));
  buf += body;
  buf[buf.size() - 3] ^= 0x40;  // flip one bit inside "payload"
  ASSERT_EQ(write(fds_[0], buf.data(), buf.size()),
            static_cast<ssize_t>(buf.size()));
  served::Frame frame;
  Status s = served::read_frame(fds_[1], &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("checksum"), std::string::npos);
}

TEST_F(FramePair, ReadDeadlineExpiresAsDeadlineExceeded) {
  // Nothing ever arrives: a bounded read must give up with
  // kDeadlineExceeded instead of blocking forever.
  served::Frame frame;
  Status s = served::read_frame(fds_[1], &frame, /*timeout_ms=*/50);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FramePair, ReadDeadlineExpiresMidFrameToo) {
  // Header arrives, body never does -- the stalled-write shape. The
  // bounded read must expire mid-frame rather than hang.
  std::string body;
  bincode::put_u8(&body, served::kWireVersion);
  bincode::put_u8(&body, static_cast<std::uint8_t>(served::MsgType::kPing));
  bincode::put_u64(&body, 7);
  body += "never fully sent";
  std::string buf;
  bincode::put_u32(&buf, static_cast<std::uint32_t>(body.size()));
  bincode::put_u64(&buf, served::frame_checksum(body));
  buf += body.substr(0, 4);  // stall mid-body
  ASSERT_EQ(write(fds_[0], buf.data(), buf.size()),
            static_cast<ssize_t>(buf.size()));
  served::Frame frame;
  Status s = served::read_frame(fds_[1], &frame, /*timeout_ms=*/50);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FramePair, CleanEofIsCancelledMidFrameIsInternal) {
  // Clean EOF on a frame boundary: the peer just went away.
  close(fds_[0]);
  fds_[0] = -1;
  served::Frame frame;
  EXPECT_EQ(served::read_frame(fds_[1], &frame).code(),
            StatusCode::kCancelled);
}

TEST_F(FramePair, TruncatedFrameIsInternal) {
  std::string buf;
  bincode::put_u32(&buf, 100);  // promises 100 bytes, delivers 3
  buf += "abc";
  ASSERT_EQ(write(fds_[0], buf.data(), buf.size()),
            static_cast<ssize_t>(buf.size()));
  close(fds_[0]);
  fds_[0] = -1;
  served::Frame frame;
  EXPECT_EQ(served::read_frame(fds_[1], &frame).code(),
            StatusCode::kInternal);
}

// --------------------------------------------------------------- request

Request full_request() {
  guard::ResourceQuota quota;
  quota.max_qe_atoms = 11;
  quota.max_fm_rows = 22;
  quota.max_sweep_sections = 33;
  quota.max_bigint_bits = 44;
  quota.max_resident_bytes = 55;
  return Request::volume("x^2 + y^2 <= 9/10")
      .vars({"x", "y"})
      .epsilon(0.03)
      .delta(0.04)
      .deadline_ms(77)
      .quota(quota)
      .strategy(VolumeStrategy::kMonteCarlo)
      .seed(99)
      .vc_dim(3.5)
      .max_mc_samples(1234)
      .priority(Priority::kBatch)
      .bind("r", Rational(9, 10))
      .build();
}

TEST(RequestCodec, StrategyBytesPastTheLadderAreInvalid) {
  // VolumeStrategy keeps only kAuto, kInclusionExclusion, kMonteCarlo and
  // kTrivialHalf (bytes 0..3); any later byte is an unknown strategy.
  Request in = Request::volume("x <= 1/2")
                   .vars({"x"})
                   .strategy(VolumeStrategy::kAuto)
                   .build();
  const std::string payload = served::encode_request(in);
  // The strategy byte precedes seed (8), vc flag (1), vc (8), cap (8),
  // priority (1), aggregate fn (1) and the binding count (8).
  const std::size_t at = payload.size() - 36;
  ASSERT_EQ(payload[at], 0);
  std::string last = payload;
  last[at] = 3;
  auto trivial = served::decode_request(last);
  ASSERT_TRUE(trivial.is_ok());
  EXPECT_EQ(trivial.value().strategy, VolumeStrategy::kTrivialHalf);
  for (const std::uint8_t b : {4, 5, 6}) {
    std::string bad = payload;
    bad[at] = static_cast<char>(b);
    auto out = served::decode_request(bad);
    ASSERT_FALSE(out.is_ok()) << "byte " << int{b};
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RequestCodec, RoundTripsEveryAnswerAffectingField) {
  const Request in = full_request();
  auto out = served::decode_request(served::encode_request(in));
  ASSERT_TRUE(out.is_ok());
  const Request& r = out.value();
  EXPECT_EQ(r.kind, in.kind);
  EXPECT_EQ(r.query, in.query);
  EXPECT_EQ(r.output_vars, in.output_vars);
  EXPECT_DOUBLE_EQ(r.budget.epsilon, in.budget.epsilon);
  EXPECT_DOUBLE_EQ(r.budget.delta, in.budget.delta);
  EXPECT_EQ(r.budget.deadline_ms, in.budget.deadline_ms);
  EXPECT_EQ(r.budget.quota.max_qe_atoms, 11u);
  EXPECT_EQ(r.budget.quota.max_resident_bytes, 55u);
  EXPECT_EQ(r.strategy, in.strategy);
  EXPECT_EQ(r.seed, in.seed);
  EXPECT_EQ(r.vc_dim, in.vc_dim);
  EXPECT_EQ(r.max_mc_samples, in.max_mc_samples);
  EXPECT_EQ(r.priority, in.priority);
  EXPECT_EQ(r.aggregate_fn, in.aggregate_fn);
  ASSERT_EQ(r.bindings.size(), 1u);
  EXPECT_EQ(r.bindings[0].first, "r");
  EXPECT_EQ(r.bindings[0].second, Rational(9, 10));
  // A cancel token cannot cross a process boundary.
  EXPECT_EQ(r.cancel, nullptr);
}

TEST(RequestCodec, NonFiniteVcDimDecodesAndFailsValidation) {
  // The router validates every decoded request, so a non-finite VC
  // dimension from the wire is refused before it can size a sample.
  Request in = full_request();
  in.vc_dim = std::numeric_limits<double>::infinity();
  auto out = served::decode_request(served::encode_request(in));
  ASSERT_TRUE(out.is_ok());
  ASSERT_TRUE(out.value().vc_dim.has_value());
  EXPECT_TRUE(std::isinf(*out.value().vc_dim));
  EXPECT_EQ(validate_request(out.value()).code(),
            StatusCode::kInvalidArgument);
}

TEST(RequestCodec, RejectsGarbageAndTrailingBytes) {
  EXPECT_FALSE(served::decode_request("not a request").is_ok());
  std::string payload = served::encode_request(full_request());
  payload += "trailing";
  EXPECT_FALSE(served::decode_request(payload).is_ok());
}

// ---------------------------------------------------------------- answer

TEST(AnswerCodec, RoundTripsExactVolumeWithGuardReport) {
  Answer a;
  a.kind = RequestKind::kVolume;
  a.volume.exact = Rational(1, 4);
  a.volume.estimate = 0.25;
  a.volume.lower = 0.2;
  a.volume.upper = 0.3;
  a.volume.points_evaluated = 640;
  a.volume.points_requested = 1000;
  a.guard.usage.qe_atoms = 5;
  a.guard.quota_tripped = true;
  a.guard.tripped_quota = "max_fm_rows";
  a.guard.rung = guard::Rung::kMcPartial;
  a.guard.shed = true;
  a.guard.worker_crashed = true;
  a.guard.worker_hung = true;
  a.elapsed_ms = 1.5;
  const std::string payload =
      served::encode_answer(Result<Answer>(std::move(a)), nullptr);
  Result<Answer> out{Status::internal("undecoded")};
  ASSERT_TRUE(served::decode_answer(payload, nullptr, &out).is_ok());
  ASSERT_TRUE(out.is_ok());
  const Answer& b = out.value();
  EXPECT_EQ(b.kind, RequestKind::kVolume);
  ASSERT_TRUE(b.volume.exact.has_value());
  EXPECT_EQ(*b.volume.exact, Rational(1, 4));
  EXPECT_DOUBLE_EQ(b.volume.lower.value(), 0.2);
  EXPECT_DOUBLE_EQ(b.volume.upper.value(), 0.3);
  EXPECT_EQ(b.volume.points_evaluated, 640u);
  EXPECT_EQ(b.guard.usage.qe_atoms, 5u);
  EXPECT_TRUE(b.guard.quota_tripped);
  EXPECT_EQ(b.guard.tripped_quota, "max_fm_rows");
  EXPECT_EQ(b.guard.rung, guard::Rung::kMcPartial);
  EXPECT_TRUE(b.guard.shed);
  EXPECT_TRUE(b.guard.worker_crashed);
  EXPECT_TRUE(b.guard.worker_hung);
  EXPECT_DOUBLE_EQ(b.elapsed_ms, 1.5);
}

TEST(AnswerCodec, RoundTripsErrorStatus) {
  const std::string payload = served::encode_answer(
      Result<Answer>(Status::resource_exhausted("shard full")), nullptr);
  Result<Answer> out{Status::internal("undecoded")};
  ASSERT_TRUE(served::decode_answer(payload, nullptr, &out).is_ok());
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.status().message(), "shard full");
}

TEST(AnswerCodec, ReParsesRewriteFormulaInReceiversDatabase) {
  ConstraintDatabase sender;
  auto parsed = sender.parse("x >= 0 & x + 1 <= 2");
  ASSERT_TRUE(parsed.is_ok());
  Answer a;
  a.kind = RequestKind::kRewrite;
  a.formula = parsed.value();
  const std::string payload =
      served::encode_answer(Result<Answer>(std::move(a)), &sender.vars());

  ConstraintDatabase receiver;
  Result<Answer> out{Status::internal("undecoded")};
  ASSERT_TRUE(served::decode_answer(payload, &receiver, &out).is_ok());
  ASSERT_TRUE(out.is_ok());
  ASSERT_NE(out.value().formula, nullptr);
  EXPECT_EQ(to_string(out.value().formula, receiver.vars()),
            to_string(parsed.value(), sender.vars()));
}

TEST(AnswerCodec, RoundTripsTruthMuGrowthAggregate) {
  {
    Answer a;
    a.kind = RequestKind::kAsk;
    a.truth = true;
    const std::string payload =
        served::encode_answer(Result<Answer>(std::move(a)), nullptr);
    Result<Answer> out{Status::internal("undecoded")};
    ASSERT_TRUE(served::decode_answer(payload, nullptr, &out).is_ok());
    EXPECT_EQ(out.value().truth, std::optional<bool>(true));
  }
  {
    Answer a;
    a.kind = RequestKind::kMu;
    a.mu = Rational(5, 4);
    const std::string payload =
        served::encode_answer(Result<Answer>(std::move(a)), nullptr);
    Result<Answer> out{Status::internal("undecoded")};
    ASSERT_TRUE(served::decode_answer(payload, nullptr, &out).is_ok());
    ASSERT_TRUE(out.value().mu.has_value());
    EXPECT_EQ(*out.value().mu, Rational(5, 4));
  }
  {
    Answer a;
    a.kind = RequestKind::kGrowthPolynomial;
    a.growth = UPoly({Rational(1), Rational(0), Rational(2)});
    const std::string payload =
        served::encode_answer(Result<Answer>(std::move(a)), nullptr);
    Result<Answer> out{Status::internal("undecoded")};
    ASSERT_TRUE(served::decode_answer(payload, nullptr, &out).is_ok());
    ASSERT_TRUE(out.value().growth.has_value());
    EXPECT_EQ(*out.value().growth,
              UPoly({Rational(1), Rational(0), Rational(2)}));
  }
  {
    Answer a;
    a.kind = RequestKind::kAggregate;
    a.aggregate = Rational(10, 3);
    const std::string payload =
        served::encode_answer(Result<Answer>(std::move(a)), nullptr);
    Result<Answer> out{Status::internal("undecoded")};
    ASSERT_TRUE(served::decode_answer(payload, nullptr, &out).is_ok());
    ASSERT_TRUE(out.value().aggregate.has_value());
    EXPECT_EQ(*out.value().aggregate, Rational(10, 3));
  }
}

TEST(AnswerCodec, CacheableMeansFullFidelitySuccess) {
  Answer ok;
  ok.kind = RequestKind::kVolume;
  ok.volume.exact = Rational(1, 2);
  EXPECT_TRUE(served::answer_is_cacheable(
      served::encode_answer(Result<Answer>(std::move(ok)), nullptr)));

  Answer degraded;
  degraded.kind = RequestKind::kVolume;
  degraded.status = AnswerStatus::kDegraded;
  EXPECT_FALSE(served::answer_is_cacheable(
      served::encode_answer(Result<Answer>(std::move(degraded)), nullptr)));

  EXPECT_FALSE(served::answer_is_cacheable(served::encode_answer(
      Result<Answer>(Status::internal("boom")), nullptr)));
  EXPECT_FALSE(served::answer_is_cacheable(""));
}

// ----------------------------------------------------------- fingerprint

TEST(Fingerprint, GoldenBytesAreStableAcrossPlatformsAndSessions) {
  // The persistent cache and the shard router key on these exact bytes;
  // any change invalidates every cache on disk, so changing this golden
  // value must be a deliberate format bump.
  Request r = Request::volume("x <= 1/2")
                  .vars({"x"})
                  .epsilon(0.5)
                  .delta(0.25)
                  .deadline_ms(16)
                  .seed(3)
                  .build();
  EXPECT_EQ(hex(serve::request_fingerprint(r)), "0303080000000000000078203c3d20312f320100000000000000010000000000"
      "000078000000000000e03f000000000000d03f100000000000000000093d0000"
      "00000090d003000000000020a107000000000040420f00000000000000004000"
      "0000000300000000000000ff0000000000000000000000000000000000000000"
      "000000000000");
}

TEST(Fingerprint, CoversSeedQuotaAndBindings) {
  Request a = Request::volume("x <= 1/2").vars({"x"}).seed(1).build();
  Request b = Request::volume("x <= 1/2").vars({"x"}).seed(2).build();
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(b));

  Request c = Request::volume("x <= 1/2").vars({"x"}).seed(1).build();
  c.budget.quota.max_fm_rows = 7;
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(c));

  Request d = Request::volume("x <= 1/2").vars({"x"}).seed(1).build();
  d.bindings.emplace_back("y", Rational(1));
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(d));
}

TEST(Fingerprint, LengthPrefixingDefeatsConcatenationCollisions) {
  Request a = Request::volume("ab").vars({"c"}).build();
  Request b = Request::volume("a").vars({"bc"}).build();
  Request c = Request::volume("a").vars({"b", "c"}).build();
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(b));
  EXPECT_NE(serve::request_fingerprint(b), serve::request_fingerprint(c));
}

// ------------------------------------------------------------ disk cache

TEST(DiskCache, PersistsAcrossReopen) {
  const std::string path = temp_path("persist.cache");
  std::remove(path.c_str());
  {
    served::DiskCache cache(path);
    ASSERT_TRUE(cache.open().is_ok());
    cache.store("fp1", "answer one");
    cache.store("fp2", "answer two");
    cache.store("fp1", "answer one v2");  // last write wins
  }
  served::DiskCache cache(path);
  ASSERT_TRUE(cache.open().is_ok());
  EXPECT_EQ(cache.lookup("fp1").value_or(""), "answer one v2");
  EXPECT_EQ(cache.lookup("fp2").value_or(""), "answer two");
  EXPECT_EQ(cache.stats().loaded, 2u);
  std::remove(path.c_str());
}

TEST(DiskCache, DropsCorruptTailKeepsValidPrefix) {
  const std::string path = temp_path("corrupt.cache");
  std::remove(path.c_str());
  {
    served::DiskCache cache(path);
    ASSERT_TRUE(cache.open().is_ok());
    cache.store("good", "value");
  }
  {
    // Simulate a torn write: garbage appended after the valid records.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "garbage that is not a record";
  }
  served::DiskCache cache(path);
  ASSERT_TRUE(cache.open().is_ok());
  EXPECT_EQ(cache.lookup("good").value_or(""), "value");
  EXPECT_GE(cache.stats().dropped_corrupt, 1u);
  // open() compacted the file: reopening is clean again.
  served::DiskCache again(path);
  ASSERT_TRUE(again.open().is_ok());
  EXPECT_EQ(again.stats().dropped_corrupt, 0u);
  EXPECT_EQ(again.lookup("good").value_or(""), "value");
  std::remove(path.c_str());
}

TEST(DiskCache, FlippedBitInvalidatesOnlyFromThatRecordOn) {
  const std::string path = temp_path("bitrot.cache");
  std::remove(path.c_str());
  {
    served::DiskCache cache(path);
    ASSERT_TRUE(cache.open().is_ok());
    cache.store("k1", "vvvvvvvv1");
    cache.store("k2", "vvvvvvvv2");
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size - 10);  // inside the last record's value/checksum
    f.put('X');
  }
  served::DiskCache cache(path);
  ASSERT_TRUE(cache.open().is_ok());
  EXPECT_TRUE(cache.lookup("k1").has_value());
  EXPECT_FALSE(cache.lookup("k2").has_value());
  EXPECT_GE(cache.stats().dropped_corrupt, 1u);
  std::remove(path.c_str());
}

TEST(DiskCache, BadHeaderStartsEmptyInsteadOfFailing) {
  const std::string path = temp_path("header.cache");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTTHEMAGICBYTES and then some";
  }
  served::DiskCache cache(path);
  ASSERT_TRUE(cache.open().is_ok());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_GE(cache.stats().dropped_corrupt, 1u);
  std::remove(path.c_str());
}

TEST(DiskCache, RefusesNewKeysAtCapacityButUpdatesExisting) {
  const std::string path = temp_path("capacity.cache");
  std::remove(path.c_str());
  served::DiskCache cache(path, /*capacity=*/2);
  ASSERT_TRUE(cache.open().is_ok());
  cache.store("a", "1");
  cache.store("b", "2");
  cache.store("c", "3");  // refused
  cache.store("a", "1b");  // update is fine
  EXPECT_FALSE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.lookup("a").value_or(""), "1b");
  EXPECT_GE(cache.stats().rejected_full, 1u);
  std::remove(path.c_str());
}

// ----------------------------------------------------- gauge peak window

TEST(GaugePeak, TakePeakReadsAndResetsPerScrapeWindow) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("depth");
  g->set(3);
  g->set(9);
  g->set(2);
  // First scrape sees the peak of the window...
  EXPECT_EQ(g->take_peak(), 9);
  // ...the next window's peak restarts from the current value, so the
  // old spike does not linger and the peak >= value invariant holds.
  EXPECT_EQ(g->take_peak(), 2);
  g->set(5);
  EXPECT_EQ(g->take_peak(), 5);
}

}  // namespace
}  // namespace cqa
