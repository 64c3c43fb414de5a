// The serving tier's length-prefixed binary wire protocol.
//
// Every message on the wire is one fixed-shape frame: a 4-byte length
// prefix (the byte count of everything after it) followed by a versioned
// header and the operation payload. v1 frames are exactly kFrameBytes
// long — GET/PUT/STATS requests and their responses all fit the same
// shape — so the length prefix exists for forward compatibility and,
// more importantly, as the first garbage rejection point: a decoder can
// condemn a byte stream after four bytes instead of waiting for a full
// header that will never arrive.
//
// Layout (all integers little-endian):
//
//   offset  size  field
//        0     4  body_len     == kBodyBytes for v1
//        4     2  magic        0x5150 ("PQ")
//        6     1  version      1
//        7     1  opcode       bits 0..5 the Op, 0x40 "found", 0x80 response
//        8     8  request_id   echoed verbatim in the response
//       16     8  key
//       24     8  value        PUT: value to write; GET response: the
//                              selected value; STATS response: ops served
//
// FrameDecoder is the incremental half: it owns a power-of-two ring
// buffer that socket reads land in directly (writable()/commit(), shaped
// for readv), and next() parses frames in place as bytes arrive — a
// frame split across any number of reads, or across the ring's wrap
// point, decodes byte-identically. Malformed input (bad length, magic,
// version, or opcode) poisons the decoder: the connection is the unit of
// failure, mirroring what the server does (close on protocol error).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pqs::net {

enum class Op : std::uint8_t {
  kGet = 1,
  kPut = 2,
  kStats = 3,
};

// One decoded (or to-be-encoded) message, wire concerns stripped.
struct Frame {
  Op op = Op::kGet;
  bool response = false;
  bool found = false;  // GET response: a record was selected
  std::uint64_t request_id = 0;
  std::uint64_t key = 0;
  std::int64_t value = 0;
};

inline constexpr std::uint16_t kMagic = 0x5150;  // "PQ" on the wire
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kFrameBytes = 32;
inline constexpr std::size_t kBodyBytes = kFrameBytes - 4;
inline constexpr std::uint8_t kOpMask = 0x3f;
inline constexpr std::uint8_t kFoundBit = 0x40;
inline constexpr std::uint8_t kResponseBit = 0x80;

// Serializes `frame` into exactly kFrameBytes at `out`.
void encode_frame(const Frame& frame, unsigned char* out);

// Incremental zero-rebuffering frame parser over a ring of socket bytes.
class FrameDecoder {
 public:
  // Capacity is rounded up to a power of two and must hold at least one
  // frame; 4 KiB is plenty for the fixed v1 frames.
  explicit FrameDecoder(std::size_t capacity = 4096);

  struct Span {
    unsigned char* data = nullptr;
    std::size_t size = 0;
  };

  enum class Result {
    kFrame,     // `out` holds the next frame
    kNeedMore,  // the buffered prefix is a valid partial frame
    kError,     // the stream is condemned (error() says why)
  };

  std::size_t capacity() const { return buf_.size(); }
  std::size_t buffered_bytes() const {
    return static_cast<std::size_t>(tail_ - head_);
  }
  std::size_t free_bytes() const { return capacity() - buffered_bytes(); }

  // Exposes the writable region as up to two contiguous spans (two when
  // the free region wraps the ring edge) so a socket read can land bytes
  // in place; commit(n) publishes the n bytes the read produced.
  std::size_t writable(Span out[2]);
  void commit(std::size_t n);

  // Copy-in convenience for producers that already hold the bytes (the
  // tests, the decode probe). Returns how many bytes fit.
  std::size_t feed(const void* data, std::size_t n);

  // Parses the next complete frame out of the buffered bytes. After
  // kError every future call returns kError (the stream has no
  // recoverable frame boundary).
  Result next(Frame& out);

  // Human-readable reason after kError, nullptr otherwise.
  const char* error() const { return error_; }

 private:
  std::uint8_t peek(std::size_t offset) const {
    return buf_[(head_ + offset) & mask_];
  }
  void copy_out(unsigned char* dst, std::size_t offset, std::size_t n) const;

  std::vector<unsigned char> buf_;
  std::size_t mask_ = 0;
  // Monotone byte positions (index = pos & mask_), consumer head and
  // producer tail; single-threaded by contract (one decoder per
  // connection, driven by that connection's IO thread).
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  const char* error_ = nullptr;
};

}  // namespace pqs::net
