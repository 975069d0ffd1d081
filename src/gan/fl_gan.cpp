#include "gan/fl_gan.hpp"

#include <stdexcept>

#include "dist/cluster.hpp"

namespace mdgan::gan {

FlGan::FlGan(GanArch arch, FlGanConfig cfg,
             std::vector<data::InMemoryDataset> shards, std::uint64_t seed,
             dist::Transport& net)
    : arch_(arch),
      cfg_(cfg),
      codes_(arch.image.num_classes, arch.latent_dim),
      net_(net),
      seed_(seed) {
  if (shards.empty()) throw std::invalid_argument("FlGan: no shards");
  if (net_.n_workers() != shards.size()) {
    throw std::invalid_argument("FlGan: network sized for " +
                                std::to_string(net_.n_workers()) +
                                " workers, got " +
                                std::to_string(shards.size()) + " shards");
  }
  // Federated learning synchronizes all workers to one model at round
  // start, so every worker begins from identical weights.
  Rng init_rng = Rng(seed).split(0x1417);
  nn::Sequential g0 = build_generator(arch_, init_rng);
  nn::Sequential d0 = build_discriminator(arch_, init_rng);

  workers_.reserve(shards.size());
  for (std::size_t n = 0; n < shards.size(); ++n) {
    auto w = std::make_unique<Worker>();
    w->shard = std::move(shards[n]);
    if (w->shard.size() < cfg_.hp.batch) {
      throw std::invalid_argument("FlGan: shard smaller than batch size");
    }
    Rng scratch = Rng(seed).split(0x1417);  // same-arch fresh models
    w->g = build_generator(arch_, scratch);
    w->d = build_discriminator(arch_, scratch);
    g0.clone_parameters_into(w->g);
    d0.clone_parameters_into(w->d);
    w->g_opt = std::make_unique<opt::Adam>(w->g.params(), w->g.grads(),
                                           cfg_.hp.g_adam);
    w->d_opt = std::make_unique<opt::Adam>(w->d.params(), w->d.grads(),
                                           cfg_.hp.d_adam);
    w->rng = Rng(seed).split(0xf1a).split(n + 1);
    workers_.push_back(std::move(w));
  }
}

std::int64_t FlGan::round_length() const {
  const std::size_t m = workers_.front()->shard.size();
  const std::int64_t len = static_cast<std::int64_t>(
      cfg_.epochs_per_round * m / cfg_.hp.batch);
  return len > 0 ? len : 1;
}

void FlGan::synchronize() {
  // Workers -> server: both parameter vectors.
  const std::size_t n = workers_.size();
  std::vector<std::vector<float>> g_params(n), d_params(n);
  for (std::size_t i = 0; i < n; ++i) {
    g_params[i] = workers_[i]->g.flatten_parameters();
    d_params[i] = workers_[i]->d.flatten_parameters();
    ByteBuffer buf;
    buf.write_floats(g_params[i].data(), g_params[i].size());
    buf.write_floats(d_params[i].data(), d_params[i].size());
    net_.send(static_cast<int>(i + 1), dist::kServerId, "fl_params",
              std::move(buf));
  }
  // Server consumes the messages (content identical to the local copies;
  // the wire is the accounting boundary).
  for (std::size_t i = 0; i < n; ++i) {
    auto msg = net_.receive_tagged(dist::kServerId, "fl_params");
    if (!msg) throw std::logic_error("FlGan::synchronize: missing params");
  }

  // Average.
  std::vector<float> g_avg(g_params[0].size(), 0.f);
  std::vector<float> d_avg(d_params[0].size(), 0.f);
  const float inv_n = 1.f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < g_avg.size(); ++j) {
      g_avg[j] += g_params[i][j] * inv_n;
    }
    for (std::size_t j = 0; j < d_avg.size(); ++j) {
      d_avg[j] += d_params[i][j] * inv_n;
    }
  }

  // Server -> workers: averaged model.
  for (std::size_t i = 0; i < n; ++i) {
    ByteBuffer buf;
    buf.write_floats(g_avg.data(), g_avg.size());
    buf.write_floats(d_avg.data(), d_avg.size());
    net_.send(dist::kServerId, static_cast<int>(i + 1), "fl_avg",
              std::move(buf));
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto msg = net_.receive_tagged(static_cast<int>(i + 1), "fl_avg");
    if (!msg) throw std::logic_error("FlGan::synchronize: missing avg");
    auto g_in = msg->payload.read_floats();
    auto d_in = msg->payload.read_floats();
    workers_[i]->g.assign_parameters(g_in);
    workers_[i]->d.assign_parameters(d_in);
  }
}

void FlGan::train(std::int64_t iters, std::int64_t eval_every,
                  const EvalHook& hook) {
  const std::int64_t round = round_length();
  for (std::int64_t i = 1; i <= iters; ++i) {
    net_.begin_iteration(i);
    std::vector<int> ids;
    for (std::size_t n = 1; n <= workers_.size(); ++n) {
      ids.push_back(static_cast<int>(n));
    }
    dist::for_each_worker(ids, [this](int id) {
      Worker& w = *workers_[id - 1];
      local_gan_step(w.shard, w.rng, w.g, *w.g_opt, w.d, *w.d_opt, arch_,
                     codes_, cfg_.hp);
    });
    if (i % round == 0) synchronize();
    if (hook && eval_every > 0 && (i % eval_every == 0 || i == iters)) {
      nn::Sequential avg = server_generator();
      hook(i, avg);
    }
  }
}

nn::Sequential FlGan::server_generator() {
  Rng scratch = Rng(seed_).split(0x1417);
  nn::Sequential avg = build_generator(arch_, scratch);
  std::vector<float> acc(avg.num_parameters(), 0.f);
  const float inv_n = 1.f / static_cast<float>(workers_.size());
  for (auto& w : workers_) {
    const auto p = w->g.flatten_parameters();
    for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += p[j] * inv_n;
  }
  avg.assign_parameters(acc);
  return avg;
}

}  // namespace mdgan::gan
