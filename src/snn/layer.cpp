#include "snn/layer.hpp"

#include "tensor/ops.hpp"

namespace snntest::snn {

void FrameMatvec::accumulate(KernelMode mode, const float* w, size_t rows, size_t cols,
                             const float* x, float* syn, obs::KernelDispatchObs* kobs) {
  if (mode == KernelMode::kDense) {
    tensor::matvec_accumulate(w, rows, cols, x, syn);
    if (kobs) kobs->record_dense_frame();
    return;
  }
  const auto view = tensor::make_frame_view(x, cols, active_);
  if (mode == KernelMode::kAuto && tensor::is_binary_frame(view)) {
    if (!wt_.built) {
      tensor::transpose(w, rows, cols, wt_.data);
      acc_.resize(rows);
      wt_.built = true;
    }
    tensor::matvec_binary_accumulate(wt_.data.data(), rows, view, acc_.data(), syn);
    if (kobs) kobs->record_frame(view.num_active, view.size, true);
    return;
  }
  const bool use_sparse =
      mode == KernelMode::kSparse || sparse_frame_wins(view.num_active, view.size);
  if (kobs) kobs->record_frame(view.num_active, view.size, use_sparse);
  if (use_sparse) {
    tensor::matvec_accumulate_gather(w, rows, cols, view.frame, view.active, view.num_active,
                                     syn);
  } else {
    tensor::matvec_accumulate(w, rows, cols, x, syn);
  }
}

}  // namespace snntest::snn
