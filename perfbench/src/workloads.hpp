#pragma once
// The three workloads. Each takes its seed, builds its inputs from it, and
// reaches the program only through the public API:
//
//  * offline_mixed  — closed loop, in process: a runtime::Session over the
//    mixed posit<8,0> | posit<5,1> x2 | posit<8,0> model runs
//    forward_bits(BatchView) on 512-row batches. Mostly emac matmul, the
//    runtime.model layer chain and numeric boundary conversion; no batcher,
//    protocol, codec or transport work.
//  * serve_steady   — open loop over TCP at a pinned low rate (see
//    kSteadyRatePerS), raw v1 frames on a uniform posit<8,0> model.
//    Batches leave on the batcher's max_wait deadline with 1-2 rows: the
//    batch-1 compute path, dispatcher wake-up, the shard loop and TCP.
//  * serve_saturate — closed loop over TCP, the same model, each connection
//    keeping a fixed window in flight with v4 codec-compressed frames.
//    Size-triggered full tiles: the blocked kernel, the codec and the
//    protocol at full frame rate. The capacity workload.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"

namespace pb {

enum class WorkloadKind { kOfflineMixed, kServeSteady, kServeSaturate };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, WorkloadKind& out);
const char* workload_name(WorkloadKind kind);

// Pinned workload constants. The steady rate was calibrated once on a 4-core
// AVX2 host, where serve_saturate serves about 46k replies/s, and is never
// recalibrated per run, so a capacity change shows instead of being
// absorbed. It sits far below a quarter of that capacity because a
// deadline-flushed row takes the per-row dot path (80-115 us) while a full
// tile costs 20-45 us a row: at a quarter of capacity the one dispatcher
// would be busy all of the time, batches would grow past two rows, and the
// workload would stop measuring the deadline path.
inline constexpr std::size_t kOfflineBatchRows = 512;
inline constexpr std::size_t kOfflineBatches = 8;
inline constexpr std::size_t kOracleRowsPerBatch = 32;
inline constexpr std::size_t kServeRows = 1024;
inline constexpr double kSteadyRatePerS = 1500;
inline constexpr std::size_t kServeMaxWaitUs = 50;
inline constexpr std::size_t kServeMaxBatchTiles = 2;
inline constexpr std::size_t kSaturateWindow = 64;
inline constexpr std::size_t kSetupRepeats = 15;

/// The serve dispatcher's Session pool: one shard loop, this dispatcher and
/// the generator's thread stay within nproc.
inline std::size_t serve_session_threads() { return nproc() > 3 ? nproc() - 2 : 1; }

/// What one measured pass of a workload produced.
struct Pass {
  Summary latency_us;
  double throughput_per_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Summary lag_us;                  // serve_steady only
  dp::serve::BatcherStats batcher; // serve only: counters of this pass
};

/// Traffic verification of one pass. The serve shares are lower bounds
/// derived from the server's batch and row counters.
struct TrafficShares {
  double rows_per_batch = 0;
  double batch1_row_share = 0;      ///< rows served in batches of one
  double full_tile_row_share = 0;   ///< rows served in full kernel tiles
  double deadline_flush_share = 0;  ///< batches flushed on max_wait
  double conversions_per_inference = 0;
  double codec_ratio = 1;           ///< raw over coded payload words
  Metrics as_metrics() const;
};

/// The model, inputs and expected outputs of one workload, all built before
/// any timed set-up: the quantized network, its .dpnetz artifact in the work
/// directory, the seeded inputs, and the outputs every reply must equal.
class Workload {
 public:
  Workload(WorkloadKind kind, std::uint64_t seed, const std::string& workdir);

  const nn::QuantizedNetwork& network() const { return net_; }
  const std::string& artifact() const { return artifact_; }
  const std::vector<double>& rows() const { return rows_; }
  std::size_t row_count() const { return rows_.size() / net_.input_dim(); }
  /// Expected readout of every row (serve: a direct Session::forward_bits
  /// per row; offline: only the oracle-sampled rows are filled).
  const std::vector<std::uint32_t>& expected() const { return expected_; }

  /// Load the artifact, build the Session or Server, and wait for the first
  /// correct reply — kSetupRepeats times, keeping the last instance. Returns
  /// the median set-up time in seconds; a wrong first reply is a problem.
  double set_up(Verdict& verdict);

  /// The loaded model of the live instance (after set_up).
  const runtime::Model& model() const { return *model_; }

  /// Stop the live Server or Session; inputs and expected outputs stay.
  void shut_down();

  /// One measured pass of `seconds` on the live instance.
  Pass run(double seconds, std::uint64_t seed, Tracer& tracer);

  /// Traffic verification for a finished pass: shares of rows served in
  /// batches of one and in full tiles, boundary conversions per inference
  /// and the codec ratio, each self-checked against the workload's purpose.
  TrafficShares traffic(const Pass& pass, Verdict& verdict) const;

 private:
  Pass run_offline(double seconds, Tracer& tracer);
  Pass run_serve(double seconds, std::uint64_t seed, Tracer& tracer);
  dp::serve::ServerOptions server_options() const;

  WorkloadKind kind_;
  nn::QuantizedNetwork net_;
  std::string artifact_;
  std::vector<double> rows_;
  std::vector<std::uint32_t> expected_;
  std::vector<std::size_t> oracle_rows_;  // offline: rows checked against kStep

  std::shared_ptr<const runtime::Model> model_;
  std::unique_ptr<runtime::Session> session_;   // offline
  std::unique_ptr<dp::serve::Server> server_;   // serve; destroyed first
  // offline: the first output of each batch, which later calls must repeat
  std::vector<std::vector<std::uint32_t>> batch_reference_;
};

}  // namespace pb
