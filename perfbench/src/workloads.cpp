#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "codec/payload.hpp"
#include "nn/io.hpp"
#include "replay.hpp"

namespace pb {

namespace serve = dp::serve;

namespace {

/// Offline traced runs replay one Session call in this many through the
/// benchmark's own tile chain; replaying every call would mostly measure
/// the replay.
constexpr std::uint64_t kReplayEvery = 16;

}  // namespace

bool parse_workload(const std::string& name, WorkloadKind& out) {
  for (const WorkloadKind k :
       {WorkloadKind::kOfflineMixed, WorkloadKind::kServeSteady, WorkloadKind::kServeSaturate}) {
    if (name == workload_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kOfflineMixed:
      return "offline_mixed";
    case WorkloadKind::kServeSteady:
      return "serve_steady";
    case WorkloadKind::kServeSaturate:
      return "serve_saturate";
  }
  return "?";
}

Workload::Workload(WorkloadKind kind, std::uint64_t seed, const std::string& workdir)
    : kind_(kind),
      net_(kind == WorkloadKind::kOfflineMixed ? nn::quantize(bench_mlp(), mixed_formats())
                                               : nn::quantize(bench_mlp(), uniform_format())) {
  const bool offline = kind == WorkloadKind::kOfflineMixed;
  std::filesystem::create_directories(workdir);
  artifact_ = workdir + "/" + workload_name(kind) + ".dpnetz";
  nn::save_quantized_compressed(artifact_, net_);

  const std::size_t dim = net_.input_dim();
  const std::size_t out_dim = net_.output_dim();
  const std::size_t rows = offline ? kOfflineBatches * kOfflineBatchRows : kServeRows;
  rows_ = make_rows(seed, static_cast<std::uint64_t>(kind), rows, dim);
  expected_.assign(rows * out_dim, 0);

  if (offline) {
    // The kStep recurrence is the oracle; it is slow, so a seeded sample of
    // every batch is checked against it and the remaining rows must repeat
    // the first output of their batch bit for bit.
    runtime::Session oracle(runtime::Model::create(net_, runtime::ForwardPath::kStep));
    std::mt19937_64 rng(seed ^ 0x5bd1e995u);
    for (std::size_t b = 0; b < kOfflineBatches; ++b) {
      std::vector<std::size_t> pick(kOfflineBatchRows);
      for (std::size_t i = 0; i < pick.size(); ++i) pick[i] = b * kOfflineBatchRows + i;
      std::shuffle(pick.begin(), pick.end(), rng);
      pick.resize(kOracleRowsPerBatch);
      for (const std::size_t r : pick) {
        const auto bits = oracle.forward_bits(std::span<const double>(rows_).subspan(r * dim, dim));
        std::copy(bits.begin(), bits.end(), expected_.begin() + static_cast<std::ptrdiff_t>(r * out_dim));
        oracle_rows_.push_back(r);
      }
    }
  } else {
    runtime::Session direct(runtime::Model::create(net_));
    for (std::size_t r = 0; r < rows; ++r) {
      const auto bits = direct.forward_bits(std::span<const double>(rows_).subspan(r * dim, dim));
      std::copy(bits.begin(), bits.end(), expected_.begin() + static_cast<std::ptrdiff_t>(r * out_dim));
    }
  }
}

serve::ServerOptions Workload::server_options() const {
  serve::ServerOptions opts;
  opts.tcp_port = 0;
  opts.shards = 1;
  opts.batcher.dispatchers = 1;
  opts.batcher.session_threads = serve_session_threads();
  opts.batcher.max_batch = kServeMaxBatchTiles * model_->preferred_tile();
  opts.batcher.max_wait = std::chrono::microseconds(kServeMaxWaitUs);
  opts.batcher.queue_capacity = 4096;
  return opts;
}

double Workload::set_up(Verdict& verdict) {
  const std::size_t dim = net_.input_dim();
  const std::size_t out_dim = net_.output_dim();
  std::vector<double> times;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    shut_down();
    model_.reset();
    bool correct = true;
    const auto t0 = Clock::now();
    model_ = runtime::Model::load(artifact_);
    if (kind_ == WorkloadKind::kOfflineMixed) {
      runtime::SessionOptions so;
      so.num_threads = nproc();
      session_ = std::make_unique<runtime::Session>(model_, so);
      const runtime::BatchResult<std::uint32_t> out = session_->forward_bits(
          runtime::BatchView(std::span<const double>(rows_).first(kOfflineBatchRows * dim), dim));
      for (const std::size_t r : oracle_rows_) {
        if (r >= kOfflineBatchRows) continue;
        const auto want = expected_.begin() + static_cast<std::ptrdiff_t>(r * out_dim);
        correct = correct && std::equal(want, want + static_cast<std::ptrdiff_t>(out_dim),
                                        out.row(r).begin());
      }
    } else {
      server_ = std::make_unique<serve::Server>(model_, server_options());
      serve::Client client = serve::connect_tcp(server_->tcp_port(), model_);
      const serve::Reply reply = client.forward_bits(std::span<const double>(rows_).first(dim));
      correct = reply.ok() && std::equal(reply.bits.begin(), reply.bits.end(), expected_.begin(),
                                         expected_.begin() + static_cast<std::ptrdiff_t>(out_dim));
    }
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    verdict.check(correct, "set-up: the first reply is not bit-identical to the expected output");
    ++verdict.attempted;
    if (!correct) ++verdict.failed;
  }
  batch_reference_.assign(kOfflineBatches, {});
  return median(times);
}

void Workload::shut_down() {
  server_.reset();
  session_.reset();
}

Pass Workload::run(double seconds, std::uint64_t seed, Tracer& tracer) {
  return kind_ == WorkloadKind::kOfflineMixed ? run_offline(seconds, tracer)
                                              : run_serve(seconds, seed, tracer);
}

Pass Workload::run_offline(double seconds, Tracer& tracer) {
  const std::size_t dim = net_.input_dim();
  const std::size_t out_dim = net_.output_dim();
  std::unique_ptr<TileReplay> replay;
  runtime::Model::TileScratch tile_scratch = model_->make_tile_scratch();
  std::vector<std::uint32_t> replay_out;
  if (tracer.on()) {
    replay = std::make_unique<TileReplay>(model_->network());
    replay_out.resize(replay->tile() * out_dim);
  }

  Pass pass;
  std::vector<double> latency;
  double busy_s = 0;
  const auto start = Clock::now();
  for (std::uint64_t call = 0; Clock::now() - start < std::chrono::duration<double>(seconds);
       ++call) {
    const std::size_t b = call % kOfflineBatches;
    const runtime::BatchView view(
        std::span<const double>(rows_).subspan(b * kOfflineBatchRows * dim, kOfflineBatchRows * dim),
        dim);
    const auto t0 = Clock::now();
    const runtime::BatchResult<std::uint32_t> out = session_->forward_bits(view);
    const auto t1 = Clock::now();
    const std::uint32_t span = tracer.add("session.forward_bits", call, Tracer::kNone, t0, t1);
    latency.push_back(us_between(t0, t1));
    busy_s += std::chrono::duration<double>(t1 - t0).count();
    pass.attempted += kOfflineBatchRows;

    std::vector<std::uint32_t>& ref = batch_reference_[b];
    if (ref.empty()) {
      for (const std::size_t r : oracle_rows_) {
        if (r / kOfflineBatchRows != b) continue;
        const auto want = expected_.begin() + static_cast<std::ptrdiff_t>(r * out_dim);
        const auto got = out.row(r % kOfflineBatchRows);
        if (!std::equal(got.begin(), got.end(), want)) ++pass.failed;
      }
      ref = out.data;
    } else {
      for (std::size_t r = 0; r < kOfflineBatchRows; ++r) {
        const auto got = out.row(r);
        if (!std::equal(got.begin(), got.end(), ref.begin() + static_cast<std::ptrdiff_t>(r * out_dim))) {
          ++pass.failed;
        }
      }
    }

    if (replay != nullptr && call % kReplayEvery == 0) {
      // Child spans of this call: the same batch replayed tile by tile,
      // through the model's own tile path and through the layer calls.
      const std::uint32_t root = tracer.open("replay.batch", call, span, Clock::now());
      for (std::size_t row0 = 0; row0 < kOfflineBatchRows; row0 += replay->tile()) {
        const std::size_t n = std::min(replay->tile(), kOfflineBatchRows - row0);
        const auto m0 = Clock::now();
        model_->forward_tile_into(view, row0, n, tile_scratch, replay_out.data());
        tracer.add("model.forward_tile_into", call, root, m0, Clock::now());
        replay->run(view, row0, n, replay_out.data(), tracer, call, root);
        const auto want = ref.begin() + static_cast<std::ptrdiff_t>(row0 * out_dim);
        if (!std::equal(replay_out.begin(), replay_out.begin() + static_cast<std::ptrdiff_t>(n * out_dim), want)) {
          ++pass.failed;
        }
      }
      tracer.close(root, Clock::now());
    }
  }
  pass.latency_us = summarize(std::move(latency));
  pass.throughput_per_s = busy_s > 0 ? static_cast<double>(pass.attempted) / busy_s : 0;
  return pass;
}

Pass Workload::run_serve(double seconds, std::uint64_t seed, Tracer& tracer) {
  const bool steady = kind_ == WorkloadKind::kServeSteady;
  LoadSpec spec;
  spec.port = server_->tcp_port();
  spec.connections = nproc();
  if (steady) {
    spec.rate_per_s = kSteadyRatePerS;
  } else {
    spec.window = kSaturateWindow;
    spec.compress = true;
  }
  spec.seconds = seconds;
  spec.seed = seed;
  const Traffic traffic{&rows_, net_.input_dim(), &expected_, net_.output_dim(),
                        model_->input_format(), model_->output_format()};

  const serve::BatcherStats before = server_->stats().batcher;
  const LoadResult load = run_load(spec, traffic, tracer);
  serve::BatcherStats after = server_->stats().batcher;
  after.completed -= before.completed;
  after.batches -= before.batches;
  after.accepted -= before.accepted;
  after.rejected -= before.rejected;
  after.deadline_exceeded -= before.deadline_exceeded;
  after.mean_occupancy =
      after.batches == 0 ? 0 : static_cast<double>(after.completed) / static_cast<double>(after.batches);

  if (load.failed > 0) {
    std::fprintf(stderr, "%s: %llu lost, %llu error status, %llu not bit-identical\n",
                 workload_name(kind_), static_cast<unsigned long long>(load.lost),
                 static_cast<unsigned long long>(load.bad_status),
                 static_cast<unsigned long long>(load.mismatched));
  }
  Pass pass;
  pass.latency_us = load.rtt_us;
  pass.throughput_per_s = load.throughput_per_s;
  pass.attempted = load.attempted;
  pass.failed = load.failed;
  pass.lag_us = load.lag_us;
  pass.batcher = after;
  return pass;
}

Metrics TrafficShares::as_metrics() const {
  return {{"rows_per_batch", rows_per_batch, "rows"},
          {"batch1_row_share", batch1_row_share, "share"},
          {"full_tile_row_share", full_tile_row_share, "share"},
          {"deadline_flush_share", deadline_flush_share, "share"},
          {"conversions_per_inference", conversions_per_inference, "count"},
          {"codec_ratio", codec_ratio, "x"}};
}

TrafficShares Workload::traffic(const Pass& pass, Verdict& verdict) const {
  TrafficShares t;
  t.conversions_per_inference = static_cast<double>(conversions_per_inference(net_));
  const double tile = static_cast<double>(model_->preferred_tile());
  if (kind_ == WorkloadKind::kOfflineMixed) {
    const double rows = static_cast<double>(kOfflineBatchRows);
    t.rows_per_batch = rows;
    t.full_tile_row_share = (rows - std::fmod(rows, tile)) / rows;
    verdict.check(t.conversions_per_inference > 0,
                  "offline_mixed: the model runs no boundary conversions");
    return t;
  }
  // Server::stats() gives batches b and rows c, which bound the shares from
  // below: singleton rows >= 2b - c (every other batch holds >= 2 rows);
  // only batches short of max_batch m (at most m*b - c of them) hold rows
  // outside full tiles, at most tile-1 each; a size-triggered carve is a
  // whole number of tiles, so there are at most c / tile of them.
  const double b = static_cast<double>(pass.batcher.batches);
  const double c = static_cast<double>(pass.batcher.completed);
  const double m = static_cast<double>(kServeMaxBatchTiles) * tile;
  if (b > 0 && c > 0) {
    t.rows_per_batch = c / b;
    t.batch1_row_share = std::max(0.0, 2 * b - c) / c;
    t.full_tile_row_share = std::max(0.0, c - (tile - 1) * std::min(b, m * b - c)) / c;
    t.deadline_flush_share = std::max(0.0, 1 - c / (tile * b));
  }
  if (kind_ == WorkloadKind::kServeSteady) {
    verdict.check(t.rows_per_batch >= 1 && t.rows_per_batch <= 2 && t.deadline_flush_share >= 0.5,
                  "serve_steady: batches are not dominated by deadline flushes of 1-2 rows");
    return t;
  }
  verdict.check(t.rows_per_batch >= tile, "serve_saturate: rows_per_batch is below the model tile");
  double raw = 0;
  double coded = 0;
  std::vector<std::uint32_t> bits(net_.input_dim());
  for (std::size_t r = 0; r < row_count(); ++r) {
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = model_->input_format().from_double(rows_[r * bits.size() + i]);
    }
    raw += static_cast<double>(bits.size());
    coded += static_cast<double>(
        dp::codec::encode_payload(bits, model_->input_format().total_bits()).size());
  }
  t.codec_ratio = raw / coded;
  return t;
}

}  // namespace pb
