// cqa::served wire protocol: length-prefixed binary frames over
// TCP/unix-domain stream sockets.
//
// The framing extends the scheduler's length-prefixed fingerprint
// discipline (fixed-width little-endian integers, u64 length prefixes
// on every string) to request/answer transport:
//
//   frame := u32 LE body_len | u64 LE checksum | body
//   body  := u8 version | u8 type | u64 LE id | payload
//
// `checksum` is salted FNV-1a over the body: a bit flipped anywhere in
// transit (hostile proxy, failing NIC) fails the frame as
// kInvalidArgument before any payload decoding, so corruption is a
// typed connection-level error, never a silently wrong answer. `id` is
// a caller-chosen correlation id: clients may pipeline many frames on
// one connection and match answers out of order; the shard router
// rewrites ids when forwarding to workers and restores them on the way
// back. A version byte other than kWireVersion rejects the frame before
// any payload decoding.
//
// Payload encodings cover every answer-affecting Request field and the
// full Answer -- including the volume bars, degradation status, and the
// guard report -- so a remote answer carries the same honest error bars
// and accounting a local Session::run() returns. Rationals travel as
// their canonical decimal string; rewrite formulas travel as their
// printed form and are re-parsed client-side. kCells answers are the
// one deliberate exception: linear-cell objects are not
// wire-serializable, so servers answer them with kUnsupported.

#ifndef CQA_SERVED_WIRE_H_
#define CQA_SERVED_WIRE_H_

#include <cstdint>
#include <string>

#include "cqa/core/constraint_database.h"
#include "cqa/runtime/request.h"
#include "cqa/util/status.h"

namespace cqa {
namespace served {

// v2: frame checksum. v3: VolumeStrategy lost its sweep-only member, so
// every later strategy ordinal in a request frame moved down by one.
// v4: VolumeStrategy keeps only the ladder (kAuto, kInclusionExclusion,
// kMonteCarlo, kTrivialHalf); kTrivialHalf moved from 5 to 3, and 4..6
// are unknown strategies.
inline constexpr std::uint8_t kWireVersion = 4;
/// Upper bound on one frame body; larger length prefixes are treated as
/// corruption and fail the connection instead of allocating blindly.
inline constexpr std::uint32_t kMaxFrameBody = 64u << 20;

enum class MsgType : std::uint8_t {
  kRequest = 1,     // client -> server: encoded Request
  kAnswer = 2,      // server -> client: encoded Result<Answer>
  kPing = 3,        // health check; payload echoed back
  kPong = 4,
  kStats = 5,       // server aggregates per-shard metrics
  kStatsReply = 6,  // plain-text stats dump
};

struct Frame {
  MsgType type = MsgType::kRequest;
  std::uint64_t id = 0;
  std::string payload;
};

/// Blocking full-frame write/read on a stream socket. write_frame is
/// atomic per call (callers serialize per-fd); read_frame returns
/// kUnavailable-style Status::cancelled("connection closed") on clean
/// EOF before any byte, kInternal on I/O errors and mid-frame EOF
/// (torn frame), kInvalidArgument on a malformed, corrupt (checksum
/// mismatch), or version-mismatched frame.
///
/// `timeout_ms` >= 0 bounds the whole read: each recv is preceded by a
/// poll against the remaining budget and expiry returns
/// kDeadlineExceeded -- possibly mid-frame, leaving the stream
/// unsynchronized (callers must treat the connection as poisoned).
/// The default -1 blocks forever, the server/worker discipline.
Status write_frame(int fd, MsgType type, std::uint64_t id,
                   const std::string& payload);
Status read_frame(int fd, Frame* out, std::int64_t timeout_ms = -1);

/// Salted FNV-1a over a frame body -- exposed so tests and the chaos
/// layer can craft valid (and deliberately invalid) frames.
std::uint64_t frame_checksum(const std::string& body);

/// Request payload codec. Every answer-affecting field round-trips;
/// the process-local bits (cancel token pointer, priority lane) travel
/// too except `cancel`, which cannot cross a process boundary and is
/// always null after decode.
std::string encode_request(const Request& request);
Result<Request> decode_request(const std::string& payload);

/// Answer payload codec. `vars` (may be null) names variables when
/// printing a rewrite formula; `db` (may be null) re-parses it on
/// decode -- when null, formula-bearing answers decode with a null
/// formula rather than failing, so thin routers can still peek.
std::string encode_answer(const Result<Answer>& result,
                          const VarTable* vars);
Status decode_answer(const std::string& payload, ConstraintDatabase* db,
                     Result<Answer>* out);

/// True when an encoded answer payload is a full-fidelity success
/// (is_ok() and AnswerStatus::kOk): the only answers the persistent
/// result cache stores. Peeks the header bytes without a full decode.
bool answer_is_cacheable(const std::string& payload);

}  // namespace served
}  // namespace cqa

#endif  // CQA_SERVED_WIRE_H_
