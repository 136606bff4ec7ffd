#pragma once
// TileReplay re-runs runtime::Model::forward_tile_into from the public kernel
// API — per layer the boundary num::convert, MatmulKernel::pack_acts, the
// MatmulKernel::matmul over a packed weight plane, and the ReLU — so each
// call into a layer can be timed and traced from the benchmark's side. Its
// readout is checked bit for bit against the model's own tile path.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "emac/kernel.hpp"
#include "runtime/batch.hpp"

namespace pb {

class TileReplay {
 public:
  /// Builds kernels and packed planes for `net`, which must outlive the
  /// replay. Throws std::invalid_argument for a non-posit layer or a layer
  /// without a blocked kernel.
  explicit TileReplay(const nn::QuantizedNetwork& net);

  std::size_t tile() const { return tile_; }

  /// Nanoseconds spent in each layer call of one tile.
  struct Times {
    double convert_ns = 0;
    double pack_ns = 0;
    double matmul_ns = 0;
    std::size_t converted = 0;  ///< activations re-encoded at boundaries
  };

  /// Rows [row0, row0 + nrows) of `xs` as one tile; sample s's readout goes
  /// to out[s*output_dim ...], like Model::forward_tile_into. Spans land in
  /// `tracer` under `parent`.
  Times run(runtime::BatchView xs, std::size_t row0, std::size_t nrows, std::uint32_t* out,
            Tracer& tracer, std::uint64_t request, std::uint32_t parent);

  /// MACs of one sample through every layer.
  std::size_t macs_per_sample() const;
  /// Computed, not measured: bytes one full-tile matmul call reads and
  /// writes (packed weights and row metadata, the activation tile, the
  /// output lanes), averaged over the layers.
  double matmul_bytes_per_call() const;

 private:
  const nn::QuantizedNetwork& net_;
  std::vector<std::unique_ptr<dp::emac::MatmulKernel>> kernels_;
  std::vector<dp::emac::PackedPlane> planes_;
  std::size_t tile_ = 0;
  dp::emac::ActTile acts_;
  std::vector<std::uint32_t> bits_;
  std::vector<std::uint32_t> next_;
};

}  // namespace pb
