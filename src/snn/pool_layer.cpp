#include "snn/pool_layer.hpp"

#include <stdexcept>

namespace snntest::snn {

SumPoolLayer::SumPoolLayer(SumPoolSpec spec, LifParams params)
    : spec_(spec), lif_(spec.output_size(), params) {
  if (spec.window == 0 || spec.out_height() == 0 || spec.out_width() == 0) {
    throw std::invalid_argument("SumPoolLayer: window does not fit input");
  }
}

std::string SumPoolLayer::name() const {
  return "sumpool(" + std::to_string(spec_.channels) + "x" + std::to_string(spec_.in_height) +
         "x" + std::to_string(spec_.in_width) + ",w" + std::to_string(spec_.window) + ")";
}

void SumPoolLayer::pool_frame(const float* in, float* syn) const {
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  for (size_t c = 0; c < spec_.channels; ++c) {
    const float* in_base = in + c * spec_.in_height * spec_.in_width;
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        float acc = 0.0f;
        for (size_t wy = 0; wy < spec_.window; ++wy) {
          const size_t iy = oy * spec_.window + wy;
          for (size_t wx = 0; wx < spec_.window; ++wx) {
            acc += in_base[iy * spec_.in_width + ox * spec_.window + wx];
          }
        }
        syn[(c * oh + oy) * ow + ox] = acc;
      }
    }
  }
}

void SumPoolLayer::forward_into(const Tensor& in, bool record_traces, Tensor& out) {
  if (in.shape().rank() != 2 || in.shape().dim(1) != spec_.input_size()) {
    throw std::invalid_argument("SumPoolLayer::forward: bad input shape " +
                                in.shape().to_string());
  }
  const size_t T = in.shape().dim(0);
  out.resize_zero(Shape{T, lif_.size()});
  lif_.begin_run(T, record_traces);
  syn_scratch_.resize(lif_.size());
  std::vector<float>& syn = syn_scratch_;
  for (size_t t = 0; t < T; ++t) {
    pool_frame(in.row(t), syn.data());
    lif_.step(syn.data(), out.row(t));
  }
}

Tensor SumPoolLayer::backward(const Tensor& grad_out) {
  const size_t T = grad_out.shape().dim(0);
  Tensor grad_syn(Shape{T, lif_.size()});
  lif_.backward(grad_out.data(), T, surrogate_, grad_syn.data());
  Tensor grad_in(Shape{T, spec_.input_size()});
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  for (size_t t = 0; t < T; ++t) {
    const float* gs = grad_syn.row(t);
    float* gi = grad_in.row(t);
    for (size_t c = 0; c < spec_.channels; ++c) {
      float* gi_base = gi + c * spec_.in_height * spec_.in_width;
      for (size_t oy = 0; oy < oh; ++oy) {
        for (size_t ox = 0; ox < ow; ++ox) {
          const float g = gs[(c * oh + oy) * ow + ox];
          if (g == 0.0f) continue;
          for (size_t wy = 0; wy < spec_.window; ++wy) {
            const size_t iy = oy * spec_.window + wy;
            for (size_t wx = 0; wx < spec_.window; ++wx) {
              gi_base[iy * spec_.in_width + ox * spec_.window + wx] += g;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

std::unique_ptr<Layer> SumPoolLayer::clone() const {
  return std::make_unique<SumPoolLayer>(*this);
}

}  // namespace snntest::snn
