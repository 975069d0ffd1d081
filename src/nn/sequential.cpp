#include "nn/sequential.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mdgan::nn {

const Tensor& Sequential::forward(const Tensor& x, bool train) {
  const Tensor* h = &x;
  for (auto& layer : layers_) h = &layer->forward(*h, train);
  return *h;
}

void Sequential::append(LayerPtr layer) {
  if (lowest_with_params_ == static_cast<std::size_t>(-1) &&
      !layer->params().empty()) {
    lowest_with_params_ = layers_.size();
  }
  layers_.push_back(std::move(layer));
}

const Tensor& Sequential::do_backward(const Tensor& grad_out, Grads want) {
  const bool input = wants_input(want);
  // The lowest layer that runs: the first one for dL/dx, else the lowest
  // with parameters (none runs when no layer has any).
  const std::size_t lowest = input ? 0 : lowest_with_params_;
  const Grads above = wants_params(want) ? Grads::kBoth : Grads::kInput;
  const Tensor* g = &grad_out;
  for (std::size_t i = layers_.size(); i-- > lowest;) {
    g = &layers_[i]->backward(*g, input || i > lowest ? above : want);
  }
  return input ? *g : no_input_grad();
}

void Sequential::swap_cache(std::size_t slot) {
  for (auto& layer : layers_) layer->swap_cache(slot);
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::size_t Sequential::num_parameters() {
  std::size_t n = 0;
  for (Tensor* p : params()) n += p->numel();
  return n;
}

std::vector<float> Sequential::flatten_parameters() {
  std::vector<float> flat;
  flat.reserve(num_parameters());
  for (Tensor* p : params()) {
    flat.insert(flat.end(), p->vec().begin(), p->vec().end());
  }
  return flat;
}

void Sequential::assign_parameters(const std::vector<float>& flat) {
  std::size_t off = 0;
  for (Tensor* p : params()) {
    if (off + p->numel() > flat.size()) {
      throw std::invalid_argument(
          "Sequential::assign_parameters: flat vector too short");
    }
    std::copy_n(flat.data() + off, p->numel(), p->data());
    off += p->numel();
  }
  if (off != flat.size()) {
    throw std::invalid_argument(
        "Sequential::assign_parameters: flat vector too long (" +
        std::to_string(flat.size()) + " vs " + std::to_string(off) + ")");
  }
}

std::vector<float> Sequential::flatten_gradients() {
  std::vector<float> flat;
  for (Tensor* g : grads()) {
    flat.insert(flat.end(), g->vec().begin(), g->vec().end());
  }
  return flat;
}

void Sequential::clone_parameters_into(Sequential& other) {
  other.assign_parameters(flatten_parameters());
}

std::string Sequential::summary() {
  std::ostringstream os;
  os << "Sequential(" << layers_.size() << " layers, " << num_parameters()
     << " params)\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    os << "  [" << i << "] " << layers_[i]->name() << " ("
       << layers_[i]->param_count() << " params)\n";
  }
  return os.str();
}

}  // namespace mdgan::nn
