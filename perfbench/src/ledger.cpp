#include "ledger.hpp"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <span>
#include <thread>

#include "codec/payload.hpp"
#include "emac/emac.hpp"
#include "nn/io.hpp"
#include "replay.hpp"
#include "runtime/worker_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "workloads.hpp"

namespace pb {

namespace serve = dp::serve;
namespace emac = dp::emac;

namespace {

constexpr double kSteadySeconds = 3;
constexpr double kSaturateSeconds = 2;
/// Frames, payloads and features are timed in groups this large, so the
/// clock reads stay small next to the work between them.
constexpr std::size_t kGroup = 16;

/// Keeps a computed value alive without the optimizer seeing a use.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median over `reps` timings of fn(i), in nanoseconds.
template <class F>
double median_ns(std::size_t reps, F&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    t.push_back(ns_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

std::string budget_row(const char* name, double us) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "  %-34s %10.2f", name, us);
  return buf;
}

/// Rows [row0, row0 + n) of a flat row-major buffer as a batch.
runtime::BatchView rows_view(const std::vector<double>& rows, std::size_t dim, std::size_t row0,
                             std::size_t n) {
  return runtime::BatchView(std::span<const double>(rows).subspan(row0 * dim, n * dim), dim);
}

/// Median loopback round trip of a `bytes`-sized frame between tcp_connect
/// and a TcpTransport the benchmark owns, echoed by one blocking thread.
double echo_rtt_us(std::size_t bytes, std::size_t reps) {
  serve::TcpTransport listener(0);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    try {
      serve::FdStream conn;
      pollfd p{listener.readiness_fd(), POLLIN, 0};
      while (!conn.valid() && !stop.load()) {
        if (poll(&p, 1, 100) > 0) conn = listener.accept();
      }
      std::vector<std::uint8_t> buf(bytes);
      while (conn.valid() && conn.read_exact(buf.data(), bytes)) conn.write_all(buf.data(), bytes);
    } catch (const std::exception&) {
      // The client side sees the broken stream and reports it.
    }
  });
  std::vector<double> rtt;
  try {
    serve::FdStream client = serve::tcp_connect(listener.port());
    std::vector<std::uint8_t> out(bytes, 0x5a);
    std::vector<std::uint8_t> in(bytes);
    for (std::size_t i = 0; i < reps + reps / 10; ++i) {
      const auto t0 = Clock::now();
      client.write_all(out.data(), bytes);
      if (!client.read_exact(in.data(), bytes)) break;
      if (i >= reps / 10) rtt.push_back(us_between(t0, Clock::now()));
    }
    client.shutdown_write();
  } catch (const std::exception&) {
    rtt.clear();
  }
  stop = true;
  echo.join();
  return median(std::move(rtt));
}

// --- offline_mixed: the tile chain ---------------------------------------------

struct TileChain {
  double tile_us = 0;
  double convert_ns_per_elem = 0;
  double matmul_mmac_per_s = 0;
  double matmul_bytes_per_call = 0;
  double chain_self_us = 0;
};

/// Model::forward_tile_into on full tiles of every offline batch, and the
/// same tiles replayed call by call; the replay must match bit for bit.
TileChain time_tile_chain(const runtime::Model& model, const std::vector<double>& rows,
                          Verdict& verdict) {
  const nn::QuantizedNetwork& net = model.network();
  const runtime::BatchView all(rows, net.input_dim());
  TileReplay replay(net);
  const std::size_t tile = replay.tile();
  verdict.check(tile == model.preferred_tile(), "ledger: replay tile differs from the model's");
  Tracer no_spans(false);
  runtime::Model::TileScratch scratch = model.make_tile_scratch();
  std::vector<std::uint32_t> model_out(tile * net.output_dim());
  std::vector<std::uint32_t> replay_out(model_out.size());
  std::vector<double> tile_ns, convert_ns, matmul_ns, calls_ns;
  std::size_t converted_per_tile = 0;
  bool matches = true;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t row0 = 0; row0 + tile <= all.rows(); row0 += tile) {
      const auto t0 = Clock::now();
      model.forward_tile_into(all, row0, tile, scratch, model_out.data());
      tile_ns.push_back(ns_between(t0, Clock::now()));
      const TileReplay::Times t =
          replay.run(all, row0, tile, replay_out.data(), no_spans, 0, Tracer::kNone);
      convert_ns.push_back(t.convert_ns);
      matmul_ns.push_back(t.matmul_ns);
      calls_ns.push_back(t.convert_ns + t.pack_ns + t.matmul_ns);
      converted_per_tile = t.converted;
      matches = matches && model_out == replay_out;
    }
  }
  verdict.check(matches, "ledger: the replayed tile chain differs from Model::forward_tile_into");
  TileChain c;
  c.tile_us = median(tile_ns) / 1e3;
  c.convert_ns_per_elem =
      converted_per_tile == 0 ? 0 : median(convert_ns) / static_cast<double>(converted_per_tile);
  c.matmul_mmac_per_s =
      static_cast<double>(replay.macs_per_sample() * tile) / median(matmul_ns) * 1e3;
  c.matmul_bytes_per_call = replay.matmul_bytes_per_call();
  c.chain_self_us = c.tile_us - median(calls_ns) / 1e3;
  return c;
}

// --- serve_steady: the per-row path ---------------------------------------------

/// Nanoseconds per MAC of the fused Emac::dot() row path that batch-1
/// requests take, over every row; the chain must reproduce the expected
/// readout of each row.
double time_dot_ns_per_mac(const runtime::Model& model, const std::vector<double>& rows,
                           const std::vector<std::uint32_t>& expected, Verdict& verdict) {
  const nn::QuantizedNetwork& net = model.network();
  const std::size_t dim = net.input_dim();
  std::vector<std::unique_ptr<emac::Emac>> units;
  std::vector<std::vector<emac::DecodedOp>> planes;
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net.layers[li];
    units.push_back(emac::make_emac(net.layer_format(li), layer.fan_in));
    planes.emplace_back(layer.weights.size());
    units.back()->decode_plane(layer.weights.data(), layer.weights.size(), planes.back().data());
  }
  std::vector<double> row_ns;
  bool matches = true;
  std::vector<std::uint32_t> act, next;
  std::vector<emac::DecodedOp> adec;
  for (std::size_t r = 0; r < rows.size() / dim; ++r) {
    act.resize(dim);
    for (std::size_t i = 0; i < dim; ++i) act[i] = net.input_format().from_double(rows[r * dim + i]);
    double ns = 0;
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
      const nn::QuantizedLayer& layer = net.layers[li];
      adec.resize(layer.fan_in);
      units[li]->decode_plane(act.data(), layer.fan_in, adec.data());
      next.assign(layer.fan_out, 0);
      const auto t0 = Clock::now();
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        next[j] = units[li]->dot(layer.bias[j], planes[li].data() + j * layer.fan_in, adec.data(),
                                 layer.fan_in);
      }
      ns += ns_between(t0, Clock::now());
      if (layer.activation == nn::Activation::kReLU) {
        for (std::uint32_t& v : next) v = posit_relu(v, net.layer_format(li).posit());
      }
      act.swap(next);
    }
    row_ns.push_back(ns);
    const auto want = expected.begin() + static_cast<std::ptrdiff_t>(r * net.output_dim());
    matches = matches && std::equal(act.begin(), act.end(), want);
  }
  verdict.check(matches, "ledger: the per-row dot chain differs from Session::forward_bits");
  return median(std::move(row_ns)) / static_cast<double>(model.macs_per_inference());
}

// --- serve_saturate: v4 frames and codec payloads ---------------------------------

struct FrameCosts {
  double encode_ns = 0;
  double extract_ns = 0;
  double bytes_per_frame = 0;
  double payload_encode_ns = 0;
  double payload_decode_ns = 0;
};

/// Protocol-v4 request frames with codec payloads, one per row, timed
/// through encode / try_extract and encode_payload / decode_payload.
FrameCosts time_v4_frames(const std::vector<double>& rows, std::size_t dim,
                          const num::Format& fmt, Verdict& verdict) {
  const std::size_t n = rows.size() / dim;
  const int width = fmt.total_bits();
  std::vector<std::vector<std::uint32_t>> raw(n), coded(n);
  std::vector<serve::Frame> frames(n);
  std::vector<std::vector<std::uint8_t>> bytes(n);
  double total_bytes = 0;
  for (std::size_t r = 0; r < n; ++r) {
    raw[r].resize(dim);
    for (std::size_t i = 0; i < dim; ++i) raw[r][i] = fmt.from_double(rows[r * dim + i]);
    coded[r] = dp::codec::encode_payload(raw[r], width);
    frames[r].version = serve::kProtocolV4;
    frames[r].request_id = r + 1;
    frames[r].payload_encoding = serve::kPayloadEncodingCodec;
    frames[r].payload = coded[r];
    bytes[r] = serve::encode(frames[r]);
    total_bytes += static_cast<double>(bytes[r].size());
  }
  const std::size_t groups = n / kGroup;
  auto per_item_ns = [&](auto&& fn) {
    return median_ns(groups * 4,
                     [&](std::size_t i) {
                       const std::size_t r0 = (i % groups) * kGroup;
                       for (std::size_t r = r0; r < r0 + kGroup; ++r) fn(r);
                     }) /
           static_cast<double>(kGroup);
  };
  FrameCosts c;
  std::size_t consumed = 0;
  c.encode_ns = per_item_ns([&](std::size_t r) { keep(serve::encode(frames[r]).size()); });
  c.extract_ns = per_item_ns(
      [&](std::size_t r) { keep(serve::try_extract(bytes[r], consumed)->payload.size()); });
  c.bytes_per_frame = total_bytes / static_cast<double>(n);
  c.payload_encode_ns =
      per_item_ns([&](std::size_t r) { keep(dp::codec::encode_payload(raw[r], width).size()); });
  bool round_trip = true;
  c.payload_decode_ns = per_item_ns([&](std::size_t r) {
    round_trip = round_trip && dp::codec::decode_payload(coded[r], width, dim) == raw[r];
  });
  verdict.check(round_trip, "ledger: a codec payload did not decode to its patterns");
  return c;
}

}  // namespace

Metrics run_ledger(std::uint64_t seed, const std::string& workdir, Verdict& verdict,
                   std::vector<std::string>& report) {
  const std::string dir = workdir + "/ledger";

  // Served passes first, on a quiet machine: serve_steady traced (client
  // spans, batcher wait, lag), serve_saturate untraced (tile occupancy).
  Workload steady(WorkloadKind::kServeSteady, seed, dir);
  steady.set_up(verdict);
  Tracer spans(true);
  const Pass steady_pass = steady.run(kSteadySeconds, seed, spans);
  const TrafficShares steady_traffic = steady.traffic(steady_pass, verdict);
  steady.shut_down();
  Workload saturate(WorkloadKind::kServeSaturate, seed, dir);
  saturate.set_up(verdict);
  Tracer off(false);
  const Pass saturate_pass = saturate.run(kSaturateSeconds, seed, off);
  const TrafficShares saturate_traffic = saturate.traffic(saturate_pass, verdict);
  saturate.shut_down();
  for (const Pass* p : {&steady_pass, &saturate_pass}) {
    verdict.attempted += p->attempted;
    verdict.failed += p->failed;
  }

  // offline_mixed: the tile chain, the 512-row Session call, the pool, the
  // artifact load.
  const Workload offline(WorkloadKind::kOfflineMixed, seed, dir);
  const auto mixed = runtime::Model::create(offline.network());
  const std::size_t dim = mixed->input_dim();
  const TileChain chain = time_tile_chain(*mixed, offline.rows(), verdict);
  runtime::SessionOptions pool_opts;
  pool_opts.num_threads = nproc();
  runtime::Session b512(mixed, pool_opts);
  std::vector<std::uint32_t> b512_out(kOfflineBatchRows * mixed->output_dim());
  const double b512_us =
      median_ns(64, [&](std::size_t i) {
        const std::size_t b = i % kOfflineBatches;
        b512.forward_bits_into(
            rows_view(offline.rows(), dim, b * kOfflineBatchRows, kOfflineBatchRows), b512_out);
      }) / 1e3;
  runtime::WorkerPool pool(nproc());
  const runtime::WorkerPool::RowFn noop = [](std::size_t, std::size_t) {};
  const std::size_t tiles_per_batch = kOfflineBatchRows / mixed->preferred_tile();
  const double pool_us =
      median_ns(2000, [&](std::size_t) { pool.run(tiles_per_batch, noop, 1); }) / 1e3;
  const double load_ms = median_ns(15, [&](std::size_t) {
                           keep(nn::load_quantized(offline.artifact()).layers.size());
                         }) / 1e6;

  // serve_steady: client quantize, the per-row dot path, the batch-1 Session
  // call as the dispatcher makes it, v1 framing and the loopback floor.
  const auto uniform = runtime::Model::create(steady.network());
  const std::vector<double>& srows = steady.rows();
  const std::size_t nsrows = steady.row_count();
  const num::Format& in_fmt = uniform->input_format();
  std::vector<std::uint32_t> q(dim * kGroup);
  const double quantize_ns_per_feature =
      median_ns(nsrows / kGroup * 4, [&](std::size_t i) {
        const double* x = srows.data() + (i * kGroup % nsrows) * dim;
        for (std::size_t k = 0; k < q.size(); ++k) q[k] = in_fmt.from_double(x[k]);
        keep(q.data());
      }) / static_cast<double>(q.size());
  const double dot_ns_per_mac = time_dot_ns_per_mac(*uniform, srows, steady.expected(), verdict);
  // Model::forward_into and the batch-1 Session call (the dispatcher's
  // options) alternate row by row, so the two are timed under the same
  // machine conditions and their difference is the Session's own cost.
  runtime::Scratch scratch = uniform->make_scratch();
  runtime::SessionOptions serve_opts;
  serve_opts.num_threads = serve_session_threads();
  runtime::Session serve_session(uniform, serve_opts);
  std::vector<std::uint32_t> b_out(kGroup * uniform->output_dim());
  std::vector<double> row_ns, b1_ns;
  for (std::size_t i = 0; i < nsrows * 2; ++i) {
    const runtime::BatchView one = rows_view(srows, dim, i % nsrows, 1);
    const auto t0 = Clock::now();
    uniform->forward_into(one.row(0), scratch);
    const auto t1 = Clock::now();
    serve_session.forward_bits_into(one, std::span<std::uint32_t>(b_out).first(uniform->output_dim()));
    const auto t2 = Clock::now();
    row_ns.push_back(ns_between(t0, t1));
    b1_ns.push_back(ns_between(t1, t2));
  }
  const double row_us = median(std::move(row_ns)) / 1e3;
  const double b1_us = median(std::move(b1_ns)) / 1e3;
  const double b16_us =
      median_ns(nsrows / kGroup * 4, [&](std::size_t i) {
        serve_session.forward_bits_into(rows_view(srows, dim, (i * kGroup) % nsrows, kGroup), b_out);
      }) / 1e3;
  serve::Frame v1_req;
  v1_req.payload.assign(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(dim));
  serve::Frame v1_resp;
  v1_resp.type = serve::FrameType::kResponse;
  v1_resp.payload.assign(steady.expected().begin(),
                         steady.expected().begin() + static_cast<std::ptrdiff_t>(uniform->output_dim()));
  const std::vector<std::uint8_t> v1_req_bytes = serve::encode(v1_req);
  std::size_t consumed = 0;
  const double server_extract_us =
      median_ns(4000, [&](std::size_t) { keep(serve::try_extract(v1_req_bytes, consumed)->request_id); }) /
      1e3;
  const double server_encode_us =
      median_ns(4000, [&](std::size_t) { keep(serve::encode(v1_resp).size()); }) / 1e3;
  const double echo_us = echo_rtt_us(v1_req_bytes.size(), 4000);

  // serve_saturate: its v4 frames and their codec payloads.
  const FrameCosts frames = time_v4_frames(saturate.rows(), dim, in_fmt, verdict);

  // The serve_steady budget: each step of the request path at its median;
  // what the steps leave of the measured RTT p50 is the residual.
  const double rtt_us = steady_pass.latency_us.p50;
  const double wait_us = steady_pass.batcher.wait_p50_us;
  const struct {
    const char* name;
    double us;
  } terms[] = {
      {"generator lag (span)", spans.median_us("gen.lag")},
      {"client quantize (span)", spans.median_us("client.quantize")},
      {"client encode (span)", spans.median_us("client.encode")},
      {"server extract (v1 request)", server_extract_us},
      {"batcher wait p50", wait_us},
      {"session call b1", b1_us},
      {"server encode (v1 reply)", server_encode_us},
      {"transport echo RTT", echo_us},
      {"client extract (span)", spans.median_us("client.extract")},
  };
  double layer_sum = 0;
  report.push_back("serve_steady budget (us, medians):");
  for (const auto& t : terms) {
    layer_sum += t.us;
    report.push_back(budget_row(t.name, t.us));
  }
  const double residual = rtt_us - layer_sum;
  report.push_back(budget_row("layer sum", layer_sum));
  report.push_back(budget_row("serve.server.residual_us", residual));
  report.push_back(budget_row("RTT p50 (= layer sum + residual)", rtt_us));
  char breakdown[160];
  std::snprintf(breakdown, sizeof breakdown,
                "batch-1 breakdown (us): session.call_us.b1 %.2f | model.row_us %.2f | "
                "worker_pool.run_empty_us %.2f",
                b1_us, row_us, pool_us);
  report.push_back(breakdown);

  return {
      {"numeric.convert_ns_per_elem", chain.convert_ns_per_elem, "ns"},
      {"numeric.convert_per_inference",
       static_cast<double>(conversions_per_inference(mixed->network())), "count"},
      {"numeric.quantize_ns_per_feature", quantize_ns_per_feature, "ns"},
      {"emac.matmul_mmac_per_s", chain.matmul_mmac_per_s, "MMAC/s"},
      {"emac.matmul_bytes_per_call", chain.matmul_bytes_per_call, "bytes"},
      {"emac.dot_ns_per_mac", dot_ns_per_mac, "ns"},
      {"runtime.model.tile_us", chain.tile_us, "us"},
      {"runtime.model.row_us", row_us, "us"},
      {"runtime.model.chain_self_us", chain.chain_self_us, "us"},
      {"runtime.session.call_us.b1", b1_us, "us"},
      {"runtime.session.call_us.b16", b16_us, "us"},
      {"runtime.session.call_us.b512", b512_us, "us"},
      {"runtime.worker_pool.run_empty_us", pool_us, "us"},
      {"serve.batcher.wait_p50_us", wait_us, "us"},
      {"serve.batcher.wait_p99_us", steady_pass.batcher.wait_p99_us, "us"},
      {"serve.batcher.rows_per_batch", saturate_traffic.rows_per_batch, "rows"},
      {"serve.protocol.encode_ns", frames.encode_ns, "ns"},
      {"serve.protocol.extract_ns", frames.extract_ns, "ns"},
      {"serve.protocol.bytes_per_frame", frames.bytes_per_frame, "bytes"},
      {"codec.payload_encode_ns", frames.payload_encode_ns, "ns"},
      {"codec.payload_decode_ns", frames.payload_decode_ns, "ns"},
      {"codec.payload_ratio", saturate_traffic.codec_ratio, "x"},
      {"codec.artifact_load_ms", load_ms, "ms"},
      {"serve.transport.echo_rtt_us", echo_us, "us"},
      {"serve.server.residual_us", residual, "us"},
      {"gen.lag_p99_us", steady_pass.lag_us.p99, "us"},
      {"budget.rtt_p50_us", rtt_us, "us"},
      {"budget.layer_sum_us", layer_sum, "us"},
      {"traffic.steady_batch1_row_share", steady_traffic.batch1_row_share, "share"},
      {"traffic.saturate_full_tile_row_share", saturate_traffic.full_tile_row_share, "share"},
  };
}

}  // namespace pb
