// Weight initialization policies. GAN builders use dcgan_init (normal
// with stddev 0.02, the DCGAN/Keras-ACGAN convention the paper's stack
// inherits); the scoring classifier uses He initialization.
#pragma once

#include "common/rng.hpp"
#include "nn/sequential.hpp"

namespace mdgan::nn {

// w ~ N(0, stddev^2).
void normal_init(Tensor& w, float stddev, Rng& rng);

// He-normal for ReLU-family fan-in.
void he_normal(Tensor& w, std::size_t fan_in, Rng& rng);

// Walks a Sequential and initializes every Dense / Conv2D /
// ConvTranspose2D / MinibatchDiscrimination weight with N(0, 0.02)
// (biases stay zero, BatchNorm stays (gamma=1, beta=0)).
void dcgan_init(Sequential& model, Rng& rng);

// Walks a Sequential and He-initializes Dense/conv weights (classifier
// training converges faster than with DCGAN init).
void he_init(Sequential& model, Rng& rng);

}  // namespace mdgan::nn
