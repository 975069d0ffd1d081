#include "nn/conv_transpose2d.hpp"

#include <stdexcept>

#include "nn/nchw_reorder.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::nn {

ConvTranspose2D::ConvTranspose2D(std::size_t in_channels,
                                 std::size_t out_channels, std::size_t kh,
                                 std::size_t kw, std::size_t stride,
                                 std::size_t pad)
    : ic_(in_channels),
      oc_(out_channels),
      kh_(kh),
      kw_(kw),
      stride_(stride),
      pad_(pad),
      w_({in_channels, out_channels * kh * kw}),
      b_({out_channels}),
      dw_({in_channels, out_channels * kh * kw}),
      db_({out_channels}) {}

const Tensor& ConvTranspose2D::forward(const Tensor& x, bool /*train*/) {
  if (x.rank() != 4 || x.dim(1) != ic_) {
    throw std::invalid_argument("ConvTranspose2D::forward: expected (B," +
                                std::to_string(ic_) + ",H,W), got " +
                                shape_to_string(x.shape()));
  }
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  if ((h - 1) * stride_ + kh_ < 2 * pad_ ||
      (w - 1) * stride_ + kw_ < 2 * pad_) {
    throw std::invalid_argument("ConvTranspose2D: padding too large");
  }
  Cache& c = cache_;
  c.ws.reset();
  c.out_h = (h - 1) * stride_ - 2 * pad_ + kh_;
  c.out_w = (w - 1) * stride_ - 2 * pad_ + kw_;
  c.input_shape = x.shape();

  // Reorder x NCHW -> (B*H*W, IC): one row per input pixel.
  const std::size_t p = h * w;
  Tensor& x_mat = c.ws.acquire({batch * p, ic_});
  planes_to_rows(x.data(), x_mat.data(), batch, ic_, p);
  c.x_mat = &x_mat;

  // Patches this layer scatters: (B*H*W, OC*kh*kw).
  Tensor& patches = c.ws.acquire({batch * p, oc_ * kh_ * kw_});
  matmul_into(patches, x_mat, w_);
  // col2im with the geometry of the *underlying* conv (output -> input):
  // image is our output (Ho, Wo), "cols grid" is our input (h, w).
  Tensor& y = c.ws.acquire({batch, oc_, c.out_h, c.out_w});
  col2im_into(patches, batch, oc_, c.out_h, c.out_w, kh_, kw_, stride_, pad_,
              h, w, y);
  // Per-channel bias.
  float* py = y.data();
  const float* pb = b_.data();
  const std::size_t op = c.out_h * c.out_w;
  for (std::size_t bi = 0; bi < batch; ++bi) {
    for (std::size_t c = 0; c < oc_; ++c) {
      float* __restrict plane = py + (bi * oc_ + c) * op;
      const float add = pb[c];
      for (std::size_t pi = 0; pi < op; ++pi) plane[pi] += add;
    }
  }
  return y;
}

const Tensor& ConvTranspose2D::do_backward(const Tensor& grad_out,
                                           Grads want) {
  Cache& c = cache_;
  if (!c.x_mat) {
    throw std::logic_error("ConvTranspose2D::backward: no forward cached");
  }
  const std::size_t batch = c.input_shape.at(0);
  const std::size_t h = c.input_shape.at(2);
  const std::size_t w = c.input_shape.at(3);
  if (grad_out.rank() != 4 || grad_out.dim(0) != batch ||
      grad_out.dim(1) != oc_ || grad_out.dim(2) != c.out_h ||
      grad_out.dim(3) != c.out_w) {
    throw std::invalid_argument("ConvTranspose2D::backward: bad grad shape " +
                                shape_to_string(grad_out.shape()));
  }
  // Adjoint of col2im is im2col with the same geometry.
  Tensor& dpatches = c.ws.acquire({batch * h * w, oc_ * kh_ * kw_});
  std::size_t gh = 0, gw = 0;
  im2col_into(grad_out, kh_, kw_, stride_, pad_, gh, gw, dpatches);
  if (gh != h || gw != w) {
    throw std::logic_error("ConvTranspose2D::backward: geometry mismatch");
  }

  if (wants_params(want)) {
    // dW (IC, OC*k*k) += x_mat^T (IC, B*p) x dpatches (B*p, OC*k*k).
    matmul_acc(dw_, *c.x_mat, dpatches, /*trans_a=*/true);

    // db: sum of grad_out over batch and spatial dims (double-accumulated).
    const std::size_t op = c.out_h * c.out_w;
    const float* pg = grad_out.data();
    for (std::size_t bi = 0; bi < batch; ++bi) {
      for (std::size_t ch = 0; ch < oc_; ++ch) {
        const float* __restrict plane = pg + (bi * oc_ + ch) * op;
        double acc = 0.0;
        for (std::size_t pi = 0; pi < op; ++pi) acc += plane[pi];
        db_[ch] += static_cast<float>(acc);
      }
    }
  }
  if (!wants_input(want)) return no_input_grad();

  // dx_mat = dpatches x W^T -> (B*p, IC), scattered to NCHW by the
  // fused tile epilogue.
  const std::size_t p = h * w;
  Tensor& dx_mat = c.ws.acquire({batch * p, ic_});
  Tensor& dx = c.ws.acquire(c.input_shape);
  RowsToPlanesTile ep{dx_mat.data(), dx.data(), /*bias=*/nullptr, ic_, p};
  GemmTileHook hook{&ep, rows_to_planes_tile};
  matmul_into(dx_mat, dpatches, w_, /*trans_a=*/false, /*trans_b=*/true,
              &hook);
  return dx;
}

}  // namespace mdgan::nn
