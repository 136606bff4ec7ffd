#pragma once
// Single-thread load generator for the serve workloads: one ppoll(2) loop
// over a few non-blocking TCP connections, with no thread per client, so
// generator plus server threads stay within the core count.
//
//  * open loop  — requests leave on a seeded Poisson schedule at a fixed mean
//    rate whatever the server does; RTT counts from the scheduled send time,
//    and how late the generator actually sent is recorded as lag.
//  * closed loop — every connection keeps a fixed window of requests in
//    flight and sends the next one when a reply lands; RTT counts from the
//    send time.
//
// Every reply is checked against the expected readout of its row: a lost
// request, an error status or a reply that is not bit-identical is a failure.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "numeric/format.hpp"

namespace pb {

/// What requests carry and what their replies must equal: row r of `rows`
/// (dim doubles) must come back as row r of `expected` (out_dim patterns).
struct Traffic {
  const std::vector<double>* rows = nullptr;
  std::size_t dim = 0;
  const std::vector<std::uint32_t>* expected = nullptr;
  std::size_t out_dim = 0;
  num::Format in_fmt;
  num::Format out_fmt;
};

struct LoadSpec {
  std::uint16_t port = 0;
  std::size_t connections = 1;
  /// Open loop when > 0: mean requests per second.
  double rate_per_s = 0;
  /// Closed loop: requests kept in flight per connection (open loop: 0).
  std::size_t window = 0;
  /// Send protocol-v4 frames with codec-compressed payloads (else raw v1).
  bool compress = false;
  double warmup_s = 0.3;
  double seconds = 1;
  /// After the window closes, how long outstanding replies may still take
  /// before they count as lost.
  double drain_s = 2;
  std::uint64_t seed = 0;
};

struct LoadResult {
  Summary rtt_us;   ///< requests sent inside the measured window
  Summary lag_us;   ///< open loop: send time minus scheduled time
  double throughput_per_s = 0;  ///< kOk replies to window requests / window
  std::uint64_t attempted = 0;  ///< every request sent, warm-up included
  std::uint64_t failed = 0;     ///< lost + bad status + mismatched
  std::uint64_t lost = 0;
  std::uint64_t bad_status = 0;
  std::uint64_t mismatched = 0;
};

/// Drive the server listening on 127.0.0.1:spec.port. Spans go to `tracer`
/// (a no-op when it is off). Throws on a connection that cannot be opened.
LoadResult run_load(const LoadSpec& spec, const Traffic& traffic, Tracer& tracer);

}  // namespace pb
