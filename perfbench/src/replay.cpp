#include "replay.hpp"

#include <algorithm>
#include <stdexcept>

#include "emac/emac.hpp"

namespace pb {

namespace emac = dp::emac;

TileReplay::TileReplay(const nn::QuantizedNetwork& net) : net_(net) {
  tile_ = emac::kMaxKernelTile;
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net.layers[li];
    const num::Format& fmt = net.layer_format(li);
    if (fmt.kind() != num::Kind::kPosit) {
      throw std::invalid_argument("TileReplay: posit layers only");
    }
    auto kern = emac::MatmulKernel::create(fmt, layer.fan_in);
    if (kern == nullptr) throw std::invalid_argument("TileReplay: no blocked kernel for a layer");
    std::vector<emac::DecodedOp> plane(layer.weights.size());
    emac::make_emac(fmt, layer.fan_in)->decode_plane(layer.weights.data(), layer.weights.size(),
                                                     plane.data());
    planes_.push_back(kern->pack_plane(plane.data(), layer.fan_out, layer.bias.data()));
    tile_ = std::min(tile_, kern->tile());
    kernels_.push_back(std::move(kern));
  }
}

TileReplay::Times TileReplay::run(runtime::BatchView xs, std::size_t row0, std::size_t nrows,
                                  std::uint32_t* out, Tracer& tracer, std::uint64_t request,
                                  std::uint32_t parent) {
  if (nrows == 0 || nrows > tile_ || row0 + nrows > xs.rows()) {
    throw std::invalid_argument("TileReplay::run: bad tile range");
  }
  Times times;
  const std::uint32_t root = tracer.open("replay.tile", request, parent, Clock::now());
  const std::size_t in_dim = net_.input_dim();
  bits_.assign(in_dim * tile_, 0);
  for (std::size_t s = 0; s < nrows; ++s) {
    const std::span<const double> row = xs.row(row0 + s);
    for (std::size_t i = 0; i < in_dim; ++i) {
      bits_[i * tile_ + s] = net_.input_format().from_double(row[i]);
    }
  }
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net_.layers[li];
    const num::Format& fmt = net_.layer_format(li);
    if (li > 0 && !(net_.layer_format(li - 1) == fmt)) {
      const num::Format& prev = net_.layer_format(li - 1);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < layer.fan_in; ++i) {
        for (std::size_t s = 0; s < nrows; ++s) {
          bits_[i * tile_ + s] = num::convert(bits_[i * tile_ + s], prev, fmt);
        }
      }
      const auto t1 = Clock::now();
      times.convert_ns += ns_between(t0, t1);
      times.converted += layer.fan_in * nrows;
      tracer.add("replay.convert", request, root, t0, t1);
    }
    const emac::MatmulKernel& kern = *kernels_[li];
    const auto t0 = Clock::now();
    kern.pack_acts(bits_.data(), layer.fan_in, nrows, tile_, acts_);
    const auto t1 = Clock::now();
    next_.resize(layer.fan_out * tile_);
    kern.matmul(planes_[li], acts_, nrows, next_.data());
    const auto t2 = Clock::now();
    times.pack_ns += ns_between(t0, t1);
    times.matmul_ns += ns_between(t1, t2);
    tracer.add("replay.pack_acts", request, root, t0, t1);
    tracer.add("replay.matmul", request, root, t1, t2);
    if (layer.activation == nn::Activation::kReLU) {
      const num::PositFormat& pf = fmt.posit();
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        std::uint32_t* lane = next_.data() + j * tile_;
        for (std::size_t s = 0; s < nrows; ++s) lane[s] = posit_relu(lane[s], pf);
      }
    }
    bits_.swap(next_);
  }
  const std::size_t out_dim = net_.output_dim();
  for (std::size_t s = 0; s < nrows; ++s) {
    for (std::size_t j = 0; j < out_dim; ++j) out[s * out_dim + j] = bits_[j * tile_ + s];
  }
  tracer.close(root, Clock::now());
  return times;
}

std::size_t TileReplay::macs_per_sample() const {
  std::size_t macs = 0;
  for (const nn::QuantizedLayer& layer : net_.layers) macs += layer.fan_in * layer.fan_out;
  return macs;
}

double TileReplay::matmul_bytes_per_call() const {
  double total = 0;
  for (const nn::QuantizedLayer& layer : net_.layers) {
    const double rows = static_cast<double>(layer.fan_out);
    const double k = static_cast<double>(layer.fan_in);
    const double lanes = static_cast<double>(tile_);
    const double weights = rows * k * (sizeof(std::int32_t) * 2);  // ssig + shift
    const double row_meta = rows * (sizeof(std::uint8_t) * 2 + sizeof(std::int64_t) +
                                    sizeof(std::int32_t));          // kinds, bias image
    const double acts = k * lanes * (sizeof(std::int64_t) * 2) + lanes;  // ssig + sf, kinds
    const double outs = rows * lanes * sizeof(std::uint32_t);
    total += weights + row_meta + acts + outs;
  }
  return total / static_cast<double>(net_.layers.size());
}

}  // namespace pb
