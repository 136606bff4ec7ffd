#include "loadgen.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <random>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "codec/payload.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace pb {

namespace serve = dp::serve;

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

struct Conn {
  serve::FdStream stream;
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;
  std::vector<std::uint8_t> rbuf;  // bytes read, not yet framed
};

struct Pending {
  std::size_t row = 0;
  Clock::time_point origin;     // scheduled (open loop) or sent (closed loop)
  Clock::time_point write_end;  // the request's bytes left the generator
  std::uint32_t span = Tracer::kNone;
  bool measured = false;
};

/// Write as much of the connection's queue as the socket takes now.
void flush(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = c.stream.write_some(c.wbuf.data() + c.woff, c.wbuf.size() - c.woff);
    if (n < 0) return;
    c.woff += static_cast<std::size_t>(n);
  }
  c.wbuf.clear();
  c.woff = 0;
}

class Generator {
 public:
  Generator(const LoadSpec& spec, const Traffic& traffic, Tracer& tracer)
      : spec_(spec), traffic_(traffic), tracer_(tracer), trace_every_(spec.window == 0 ? 1 : 16),
        rows_(traffic.rows->size() / traffic.dim) {
    for (std::size_t i = 0; i < spec.connections; ++i) {
      Conn c;
      c.stream = serve::tcp_connect(spec.port);
      c.stream.set_nonblocking(true);
      conns_.push_back(std::move(c));
    }
    if (spec.compress) {
      // Each distinct row's compressed payload is built once, before the
      // run: per request the generator only frames, so one thread outpaces
      // the server it measures. The codec's own cost is a per-layer metric.
      std::vector<std::uint32_t> bits(traffic.dim);
      for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t i = 0; i < traffic.dim; ++i) {
          bits[i] = traffic.in_fmt.from_double((*traffic.rows)[r * traffic.dim + i]);
        }
        coded_.push_back(dp::codec::encode_payload(bits, traffic.in_fmt.total_bits()));
      }
    }
  }

  LoadResult run() {
    const bool open = spec_.window == 0;
    const auto start = Clock::now();
    measure_from_ = start + seconds(spec_.warmup_s);
    measure_to_ = measure_from_ + seconds(spec_.seconds);
    const auto give_up = measure_to_ + seconds(spec_.drain_s);

    std::mt19937_64 rng(spec_.seed ^ 0x9e3779b97f4a7c15ull);
    std::exponential_distribution<double> gap(open ? spec_.rate_per_s : 1.0);
    Clock::time_point next_due = start;
    if (!open) {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        for (std::size_t w = 0; w < spec_.window; ++w) send(c, Clock::now());
        flush(conns_[c]);
      }
    }

    std::vector<pollfd> pfds(conns_.size());
    try {
      for (;;) {
        auto now = Clock::now();
        const bool sending = now < measure_to_;
        if (open && sending) {
          while (next_due <= now && next_due < measure_to_) {
            send(next_id_ % conns_.size(), next_due);
            next_due += seconds(gap(rng));
          }
          now = Clock::now();
        }
        if (!sending && pending_.empty()) break;
        if (now >= give_up) break;

        // The open loop busy-polls while it sends: a generator parked in the
        // kernel would add its own wake-up latency to every send time and
        // every RTT. The closed loop always has replies to wait for.
        Clock::time_point wake = give_up;
        if (sending) wake = open ? now : measure_to_;
        const auto wait = std::max(std::chrono::nanoseconds(0),
                                   std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now));
        const auto capped = std::min(wait, std::chrono::nanoseconds(50'000'000));
        const timespec ts{static_cast<time_t>(capped.count() / 1'000'000'000),
                          static_cast<long>(capped.count() % 1'000'000'000)};
        for (std::size_t c = 0; c < conns_.size(); ++c) {
          pfds[c] = {conns_[c].stream.fd(),
                     static_cast<short>(POLLIN | (conns_[c].wbuf.empty() ? 0 : POLLOUT)), 0};
        }
        if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) {
          throw serve::TransportError("loadgen: ppoll failed");
        }
        for (std::size_t c = 0; c < conns_.size(); ++c) {
          if (pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) receive(c, !open);
          if (!conns_[c].wbuf.empty()) flush(conns_[c]);
        }
      }
    } catch (const std::exception&) {
      // A dead connection or a malformed reply stream: whatever is still
      // outstanding is lost, and counted so below.
    }
    result_.lost = pending_.size();
    result_.failed += result_.lost;
    result_.rtt_us = rtt_.summary();
    result_.lag_us = lag_.summary();
    result_.throughput_per_s = static_cast<double>(ok_measured_) / spec_.seconds;
    return result_;
  }

 private:
  static Clock::duration seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  }

  /// Quantize, frame and write one request on connection `c`. `due` is the
  /// scheduled send time (open loop) or now (closed loop).
  void send(std::size_t c, Clock::time_point due) {
    const std::uint64_t id = next_id_++;
    const std::size_t row = static_cast<std::size_t>(id % rows_);
    const auto t0 = Clock::now();
    const bool measured = due >= measure_from_ && due < measure_to_;
    Tracer& tr = id % trace_every_ == 0 ? tracer_ : untraced_;
    const std::uint32_t root = tr.open("request", id, Tracer::kNone, due);
    if (spec_.window == 0) {
      tr.add("gen.lag", id, root, due, t0);
      if (measured) lag_.add(us_between(due, t0));
    }
    serve::Frame frame;
    frame.request_id = id;
    auto t1 = t0;
    if (spec_.compress) {
      frame.version = serve::kProtocolV4;
      frame.payload_encoding = serve::kPayloadEncodingCodec;
      frame.payload = coded_[row];
    } else {
      const double* x = traffic_.rows->data() + row * traffic_.dim;
      frame.payload.resize(traffic_.dim);
      for (std::size_t i = 0; i < traffic_.dim; ++i) {
        frame.payload[i] = traffic_.in_fmt.from_double(x[i]);
      }
      t1 = Clock::now();
      tr.add("client.quantize", id, root, t0, t1);
    }
    const std::vector<std::uint8_t> bytes = serve::encode(frame);
    const auto t2 = Clock::now();
    tr.add("client.encode", id, root, t1, t2);

    // The open loop writes at once (the schedule is the point); the closed
    // loop queues and writes once per connection per poll round, so one
    // generator thread is not bound by a syscall per request.
    Conn& conn = conns_[c];
    conn.wbuf.insert(conn.wbuf.end(), bytes.begin(), bytes.end());
    if (spec_.window == 0) flush(conn);
    const auto t3 = Clock::now();
    tr.add("client.write", id, root, t2, t3);
    ++result_.attempted;
    pending_.emplace(id, Pending{row, spec_.window == 0 ? due : t0, t3, root, measured});
  }

  /// Read what connection `c` has, then settle every complete reply frame.
  void receive(std::size_t c, bool refill) {
    // One bounded read per readiness event (poll is level-triggered and
    // reports the rest), so the buffer, and the process's peak RSS, stay
    // the same size whatever the timing.
    Conn& conn = conns_[c];
    const std::size_t old = conn.rbuf.size();
    conn.rbuf.resize(old + kReadChunk);
    const ssize_t n = conn.stream.read_some(conn.rbuf.data() + old, kReadChunk);
    conn.rbuf.resize(old + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n == 0) throw serve::TransportError("loadgen: server closed a connection");
    const auto t_read = Clock::now();
    std::size_t head = 0;
    for (;;) {
      const auto t0 = Clock::now();
      std::size_t consumed = 0;
      std::optional<serve::Frame> frame = serve::try_extract(
          std::span<const std::uint8_t>(conn.rbuf).subspan(head), consumed);
      if (!frame) break;
      head += consumed;
      const auto t1 = Clock::now();
      settle(c, *frame, t_read, t0, t1, refill);
    }
    conn.rbuf.erase(conn.rbuf.begin(), conn.rbuf.begin() + static_cast<std::ptrdiff_t>(head));
  }

  void settle(std::size_t c, serve::Frame& frame, Clock::time_point t_read,
              Clock::time_point t_extract0, Clock::time_point t_extract1, bool refill) {
    const auto it = pending_.find(frame.request_id);
    if (it == pending_.end()) throw std::runtime_error("loadgen: reply to an unknown request id");
    const Pending p = it->second;
    pending_.erase(it);
    Tracer& tr = p.span != Tracer::kNone ? tracer_ : untraced_;
    const std::uint64_t id = frame.request_id;
    tr.add("client.wait", id, p.span, p.write_end, t_read);
    tr.add("client.extract", id, p.span, t_extract0, t_extract1);

    bool ok = frame.status == serve::Status::kOk;
    Clock::time_point t_done = t_extract1;
    if (ok && frame.payload_encoding == serve::kPayloadEncodingCodec) {
      try {
        frame.payload = dp::codec::decode_payload(frame.payload, traffic_.out_fmt.total_bits(),
                                                  traffic_.out_dim);
      } catch (const std::exception&) {
        ok = false;
      }
      t_done = Clock::now();
      tr.add("client.decompress", id, p.span, t_extract1, t_done);
    }
    if (!ok) {
      ++result_.bad_status;
      ++result_.failed;
    } else {
      const std::uint32_t* want = traffic_.expected->data() + p.row * traffic_.out_dim;
      if (frame.payload.size() != traffic_.out_dim ||
          !std::equal(frame.payload.begin(), frame.payload.end(), want)) {
        ++result_.mismatched;
        ++result_.failed;
      } else if (p.measured) {
        ++ok_measured_;
        rtt_.add(us_between(p.origin, t_done));
      }
    }
    tr.close(p.span, t_done);
    if (refill && Clock::now() < measure_to_) send(c, Clock::now());
  }

  const LoadSpec& spec_;
  const Traffic& traffic_;
  Tracer& tracer_;
  Tracer untraced_{false};
  // The closed loop records spans for one request in this many: at full
  // frame rate every request's spans would cost more memory and disk than
  // they tell.
  const std::uint64_t trace_every_;
  const std::size_t rows_;
  std::vector<Conn> conns_;
  std::vector<std::vector<std::uint32_t>> coded_;  // compressed payload per row
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  Clock::time_point measure_from_, measure_to_;
  Histogram rtt_, lag_;
  std::uint64_t ok_measured_ = 0;
  LoadResult result_;
};

}  // namespace

LoadResult run_load(const LoadSpec& spec, const Traffic& traffic, Tracer& tracer) {
  if (spec.connections == 0 || (spec.window == 0) == (spec.rate_per_s <= 0)) {
    throw std::invalid_argument("run_load: need connections and exactly one of rate/window");
  }
  Generator gen(spec, traffic, tracer);
  return gen.run();
}

}  // namespace pb
