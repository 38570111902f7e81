#include "svc/wire.hpp"

#include <cerrno>
#include <cstring>
#include <sys/uio.h>
#include <unistd.h>

namespace optdm::svc {

namespace {

constexpr unsigned char kMagic[4] = {'O', 'T', 'D', 'M'};

void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>((v >> 24) & 0xff);
  out[1] = static_cast<unsigned char>((v >> 16) & 0xff);
  out[2] = static_cast<unsigned char>((v >> 8) & 0xff);
  out[3] = static_cast<unsigned char>(v & 0xff);
}

std::uint32_t get_u32(const unsigned char* in) {
  return (static_cast<std::uint32_t>(in[0]) << 24) |
         (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) |
         static_cast<std::uint32_t>(in[3]);
}

bool known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kCompileRequest) &&
         raw <= static_cast<std::uint8_t>(FrameType::kShutdownResponse);
}

/// Reads exactly `n` bytes.  Returns the byte count actually read: `n` on
/// success, less on end-of-stream.  Throws `svc-io` on a read error.
std::size_t read_exact(int fd, unsigned char* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      throw util::Failure(util::FailureCode::kSvcIo,
                          std::string("read: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

std::string_view to_string(FrameType type) {
  switch (type) {
    case FrameType::kCompileRequest: return "compile-request";
    case FrameType::kCompileResponse: return "compile-response";
    case FrameType::kSimulateRequest: return "simulate-request";
    case FrameType::kSimulateResponse: return "simulate-response";
    case FrameType::kStatsRequest: return "stats-request";
    case FrameType::kStatsResponse: return "stats-response";
    case FrameType::kError: return "error";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kShutdownRequest: return "shutdown-request";
    case FrameType::kShutdownResponse: return "shutdown-response";
  }
  return "error";
}

std::string_view to_string(Priority priority) {
  switch (priority) {
    case Priority::kInteractive: return "interactive";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "normal";
}

std::optional<Priority> priority_from_string(std::string_view name) {
  if (name == "interactive") return Priority::kInteractive;
  if (name == "normal") return Priority::kNormal;
  if (name == "batch") return Priority::kBatch;
  return std::nullopt;
}

std::array<unsigned char, kHeaderSize> encode_header(const Frame& frame) {
  std::array<unsigned char, kHeaderSize> out{};
  std::memcpy(out.data(), kMagic, sizeof kMagic);
  out[4] = kWireVersion;
  out[5] = static_cast<unsigned char>(frame.type);
  out[6] = static_cast<unsigned char>(frame.priority);
  out[7] = 0;
  put_u32(out.data() + 8, frame.id);
  put_u32(out.data() + 12, static_cast<std::uint32_t>(frame.payload.size()));
  return out;
}

FrameHeader parse_header(std::span<const unsigned char, kHeaderSize> bytes) {
  using util::Failure;
  using util::FailureCode;
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw Failure(FailureCode::kFrameGarbled, "bad magic");
  // Version is checked before the type byte: a peer speaking a different
  // protocol revision may legitimately use type values this build does
  // not know, and "frame-version" is the actionable diagnosis.
  if (bytes[4] != kWireVersion)
    throw Failure(FailureCode::kFrameVersion,
                  "peer speaks version " + std::to_string(bytes[4]) +
                      ", this build speaks " + std::to_string(kWireVersion));
  if (!known_type(bytes[5]))
    throw Failure(FailureCode::kFrameGarbled,
                  "unknown frame type " + std::to_string(bytes[5]));
  if (bytes[6] >= kPriorityLevels)
    throw Failure(FailureCode::kFrameGarbled,
                  "unknown priority " + std::to_string(bytes[6]));
  if (bytes[7] != 0)
    throw Failure(FailureCode::kFrameGarbled, "nonzero reserved byte");
  FrameHeader header;
  header.type = static_cast<FrameType>(bytes[5]);
  header.priority = static_cast<Priority>(bytes[6]);
  header.id = get_u32(bytes.data() + 8);
  header.length = get_u32(bytes.data() + 12);
  if (header.length > kMaxPayload)
    throw Failure(FailureCode::kFrameOversized,
                  "declared payload of " + std::to_string(header.length) +
                      " bytes exceeds the " + std::to_string(kMaxPayload) +
                      "-byte limit");
  return header;
}

void write_frame(int fd, const Frame& frame) {
  if (frame.payload.size() > kMaxPayload)
    throw util::Failure(util::FailureCode::kFrameOversized,
                        "refusing to send a " +
                            std::to_string(frame.payload.size()) +
                            "-byte payload");
  const auto header = encode_header(frame);
  // Header and payload go out in one writev(2) — one syscall per frame on
  // the common path instead of two (and never a header-only packet when
  // the socket has TCP_NODELAY-style semantics).  The loop only runs
  // again on a partial write or EINTR.
  iovec iov[2];
  iov[0].iov_base = const_cast<unsigned char*>(header.data());
  iov[0].iov_len = header.size();
  iov[1].iov_base = const_cast<char*>(frame.payload.data());
  iov[1].iov_len = frame.payload.size();
  int first = 0;
  while (first < 2) {
    const ssize_t w = ::writev(fd, iov + first, 2 - first);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw util::Failure(util::FailureCode::kSvcIo,
                          std::string("writev: ") + std::strerror(errno));
    }
    std::size_t done = static_cast<std::size_t>(w);
    if (done == 0 && iov[first].iov_len > 0)
      throw util::Failure(util::FailureCode::kSvcIo,
                          "writev: zero-length write with bytes pending");
    while (first < 2 && done >= iov[first].iov_len) {
      done -= iov[first].iov_len;
      ++first;
    }
    if (first < 2 && done > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + done;
      iov[first].iov_len -= done;
    }
  }
}

std::optional<Frame> read_frame(int fd) {
  std::array<unsigned char, kHeaderSize> raw;
  const std::size_t got = read_exact(fd, raw.data(), raw.size());
  if (got == 0) return std::nullopt;  // clean close at a frame boundary
  if (got < raw.size())
    throw util::Failure(util::FailureCode::kFrameTruncated,
                        "stream ended after " + std::to_string(got) +
                            " of " + std::to_string(raw.size()) +
                            " header bytes");
  const FrameHeader header = parse_header(raw);
  Frame frame;
  frame.type = header.type;
  frame.priority = header.priority;
  frame.id = header.id;
  frame.payload.resize(header.length);
  if (header.length > 0) {
    const std::size_t body =
        read_exact(fd, reinterpret_cast<unsigned char*>(frame.payload.data()),
                   header.length);
    if (body < header.length)
      throw util::Failure(util::FailureCode::kFrameTruncated,
                          "stream ended after " + std::to_string(body) +
                              " of " + std::to_string(header.length) +
                              " payload bytes");
  }
  return frame;
}

}  // namespace optdm::svc
