// Length-prefixed binary frame protocol for the networked StudyService.
//
// One frame is one request or one response. The 24-byte header is
// little-endian, fixed-width (common/serialize.hpp layout):
//
//   frame   := header payload
//   header  := u32 magic (0x46544ECF, wire bytes CF 4E 54 46)
//            | u8  version (kFrameVersion)
//            | u8  opcode  (Opcode)
//            | u16 reserved (must be 0)
//            | u64 tenant  (authenticated tenant id; 0 = anonymous/local)
//            | u32 payload_size (<= max, kMaxFramePayload by default)
//            | u32 crc32(payload)   (common/crc32.hpp, zlib-compatible)
//
// Frames are the protocol's only wire format. The first wire byte (0xCF)
// is deliberately non-ASCII, so anything else (a newline-terminated text
// request, an HTTP probe) fails the magic check on its first byte.
//
// Each request opcode names one verb of the service (src/README.md
// §Network protocol lists them); the payload is the space-joined argument
// tail (empty for argument-less verbs). Responses are kOk/kErr with the
// response text minus its "ok "/"err " prefix as payload. CRC covers the
// payload only — header corruption is caught by magic/version/reserved/size
// validation, payload corruption by the checksum.
//
// decode_frame() is incremental: feed it the front of a receive buffer and
// it answers "need more bytes", "here is a frame, consume N bytes", or
// "protocol error" — it never throws on wire garbage. Oversized declared
// payloads are rejected *before* buffering (max-frame-size enforcement), so
// a hostile peer cannot balloon server memory with one header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fedtune::net {

inline constexpr std::uint32_t kFrameMagic = 0x46544ECFu;  // CF 4E 54 46
// Version 2: repl-* payloads end in raw journal bytes. Peers that encode
// them differently must refuse each other at decode, not install them.
inline constexpr std::uint8_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 24;
// Default max payload: comfortably above the largest legitimate response
// (a long study's trace, a full metrics exposition), far below anything
// that could hurt the daemon.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

// One request opcode per service verb; kHello is the connection-layer auth
// handshake (never forwarded to the service handler); kOk/kErr are
// response-only.
enum class Opcode : std::uint8_t {
  kPing = 1,
  kList = 2,
  kPump = 3,
  kCacheStats = 4,
  kMetrics = 5,
  kShutdown = 6,
  kCreateStudy = 7,
  kAsk = 8,
  kTell = 9,
  kStatus = 10,
  kBest = 11,
  kTrace = 12,
  kSuspend = 13,
  kResume = 14,
  kDrive = 15,
  kTraceExport = 16,
  // Cluster replication + failover (src/README.md §Cluster): repl-append
  // and repl-snapshot payloads end in raw journal bytes, everything after
  // the space that follows the last argument; the handler never splits
  // them on whitespace.
  kReplAppend = 17,   // repl-append STUDY BASE_OFFSET BYTES
  kReplAck = 18,      // repl-ack STUDY           (offset probe)
  kReplSnapshot = 19, // repl-snapshot STUDY BYTES (whole-file install)
  kPromote = 20,      // promote STUDY            (follower takeover)
  kClusterInfo = 21,  // cluster-info [STUDY]     (roster + placement)
  kHello = 31,
  kOk = 64,
  kErr = 65,
};

// Verb for a request opcode (nullptr for kOk/kErr/unknown).
const char* verb_for_opcode(Opcode op);
// Request opcode for a verb (nullopt for unknown verbs).
std::optional<Opcode> opcode_for_verb(std::string_view verb);

struct Frame {
  std::uint8_t version = kFrameVersion;
  Opcode opcode = Opcode::kPing;
  std::uint64_t tenant = 0;
  std::string payload;
};

// Serializes a frame (header + payload) into wire bytes.
std::string encode_frame(const Frame& frame);

enum class DecodeStatus : std::uint8_t {
  kNeedMore,  // valid prefix so far; read more bytes
  kFrame,     // one complete frame decoded; drop `consumed` input bytes
  kBad,       // protocol error; the connection cannot be trusted further
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;  // bytes of input covered by the frame (kFrame)
  Frame frame;               // valid when status == kFrame
  std::string error;         // human-readable reason when status == kBad
};

// Attempts to decode one frame from the front of `in`. Never throws; never
// reads past `in`. A partial prefix that already contradicts the grammar
// (wrong magic bytes, bad version, nonzero reserved field, declared payload
// above `max_payload`) fails fast as kBad instead of waiting for more
// bytes.
DecodeResult decode_frame(std::string_view in,
                          std::size_t max_payload = kMaxFramePayload);

}  // namespace fedtune::net
