// Command-channel framing. Every frame on a command channel carries a
// demultiplexing header so many calls can be in flight on one channel at
// once and replies can arrive in any order:
//
//   varint call_id | u8 flags | command text (rest of frame)
//
// The call-id is chosen by the requester and echoed verbatim on the reply;
// flags bit 0 (kFlagNoReply) marks a fire-and-forget request, for which the
// daemon sends no reply frame.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace ace::daemon::wire {

inline constexpr std::uint8_t kFlagNoReply = 0x01;

// Builds a frame around the serialized command text.
util::Bytes encode_frame(std::uint64_t call_id, std::uint8_t flags,
                         std::string_view body);

// A decoded frame. `body` is a view into the buffer handed to
// decode_frame — valid only while that buffer lives, by design: the parser
// consumes it in place without another copy.
struct Frame {
  std::uint64_t call_id = 0;
  std::uint8_t flags = 0;
  std::string_view body;
};

std::optional<Frame> decode_frame(const util::Bytes& frame);

// Batch payload packing: concatenates opaque records into one string-arg
// payload using netstring framing (`<decimal length>:<bytes>,`), so a
// group-committed replication round trip carries many records in a single
// frame without per-record quoting/escaping overhead. Records may
// contain any bytes; nesting is fine (a record can itself be a packed
// batch of fields).
std::string pack_batch(const std::vector<std::string>& records);
std::optional<std::vector<std::string>> unpack_batch(std::string_view packed);

}  // namespace ace::daemon::wire
