#include "core/md_gan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "dist/cluster.hpp"

namespace mdgan::core {

std::size_t k_log_n(std::size_t n_workers) {
  if (n_workers == 0) throw std::invalid_argument("k_log_n: N == 0");
  const auto k = static_cast<std::size_t>(
      std::floor(std::log(static_cast<double>(n_workers))));
  return std::max<std::size_t>(1, std::min(k, n_workers));
}

MdGan::MdGan(gan::GanArch arch, MdGanConfig cfg,
             std::vector<data::InMemoryDataset> shards, std::uint64_t seed,
             dist::Transport& net,
             const dist::AvailabilitySchedule* availability, NodeRole role)
    : arch_(arch),
      cfg_(cfg),
      codes_(arch.image.num_classes, arch.latent_dim),
      net_(net),
      availability_(availability),
      seed_(seed),
      role_(role),
      server_rng_(Rng(seed).split(0x5e1)),
      swap_rng_(Rng(seed).split(0x50a9)) {
  const std::size_t n_workers = net_.n_workers();
  switch (role_.kind) {
    case NodeRole::Kind::kInProcess:
      if (shards.empty()) throw std::invalid_argument("MdGan: no shards");
      if (n_workers != shards.size()) {
        throw std::invalid_argument(
            "MdGan: network sized for " + std::to_string(n_workers) +
            " workers, got " + std::to_string(shards.size()) + " shards");
      }
      break;
    case NodeRole::Kind::kServer:
      if (!shards.empty()) {
        throw std::invalid_argument("MdGan: the server role holds no shard");
      }
      if (cfg_.shard_size == 0) {
        throw std::invalid_argument(
            "MdGan: the server role needs cfg.shard_size (it fixes the "
            "swap period)");
      }
      break;
    case NodeRole::Kind::kWorker:
      if (role_.worker_id < 1 ||
          role_.worker_id > static_cast<int>(n_workers)) {
        throw std::invalid_argument("MdGan: worker id " +
                                    std::to_string(role_.worker_id) +
                                    " outside [1, " +
                                    std::to_string(n_workers) + "]");
      }
      if (shards.size() != 1) {
        throw std::invalid_argument(
            "MdGan: the worker role holds exactly its own shard");
      }
      break;
  }
  if (cfg_.k == 0 || cfg_.k > n_workers) {
    throw std::invalid_argument("MdGan: need 1 <= k <= N");
  }
  const std::size_t n_discs =
      cfg_.n_discriminators == 0 ? n_workers : cfg_.n_discriminators;
  if (n_discs > n_workers) {
    throw std::invalid_argument("MdGan: more discriminators than workers");
  }

  // The same init stream as the standalone/FL-GAN constructors, so a
  // (seed, arch) pair pins identical initial weights across competitors
  // — required by the N=1 equivalence test. Every role derives the same
  // initial models: that is what lets a worker process train the same
  // D_j the in-process run would.
  Rng init_rng = Rng(seed).split(0x1417);
  g_ = gan::build_generator(arch_, init_rng);
  nn::Sequential d0 = gan::build_discriminator(arch_, init_rng);
  g_opt_ = std::make_unique<opt::Adam>(g_.params(), g_.grads(),
                                       cfg_.hp.g_adam);

  // workers_[i] is worker i+1's local state; role-split instances
  // populate only the slots they embody.
  workers_.resize(n_workers);
  for (std::size_t n = 0; n < shards.size(); ++n) {
    const std::size_t worker_1based =
        role_.kind == NodeRole::Kind::kWorker
            ? static_cast<std::size_t>(role_.worker_id)
            : n + 1;
    auto w = std::make_unique<Worker>();
    w->shard = std::move(shards[n]);
    if (w->shard.size() < cfg_.hp.batch) {
      throw std::invalid_argument("MdGan: shard smaller than batch size");
    }
    w->rng = Rng(seed).split(0x3d9a).split(worker_1based);
    workers_[worker_1based - 1] = std::move(w);
  }
  // m, which fixes the swap period: the first shard governs, as it
  // always has (hand-built uneven shards stay legal in-process). A
  // role-split worker must agree with the cluster-wide cfg.shard_size,
  // or its replayed swap schedule would diverge from everyone else's.
  shard_size_ = cfg_.shard_size != 0
                    ? cfg_.shard_size
                    : workers_[role_.kind == NodeRole::Kind::kWorker
                                   ? static_cast<std::size_t>(
                                         role_.worker_id - 1)
                                   : 0]
                          ->shard.size();
  if (role_.kind == NodeRole::Kind::kWorker && cfg_.shard_size != 0 &&
      cfg_.shard_size !=
          workers_[static_cast<std::size_t>(role_.worker_id - 1)]
              ->shard.size()) {
    throw std::invalid_argument(
        "MdGan: cfg.shard_size disagrees with this worker's shard");
  }

  discs_.reserve(n_discs);
  for (std::size_t j = 0; j < n_discs; ++j) {
    Disc disc;
    Rng scratch = Rng(seed).split(0x1417);
    disc.net = gan::build_discriminator(arch_, scratch);
    // Paper §IV-A: discriminators may differ per worker; like the paper
    // we start them identical (copies of D_0) for simplicity.
    d0.clone_parameters_into(disc.net);
    disc.opt = std::make_unique<opt::Adam>(disc.net.params(),
                                           disc.net.grads(),
                                           cfg_.hp.d_adam);
    disc.holder = static_cast<int>(j + 1);  // D_j starts on worker j+1
    discs_.push_back(std::move(disc));
  }
  last_holder_.assign(discs_.size(), -1);
  readmitted_.assign(n_workers + 1, false);

  if (cfg_.sink != nullptr) {
    obs::Registry& r = cfg_.sink->registry();
    gen_updates_total_ = &r.counter("gen_updates_total");
    swap_skipped_total_ = &r.counter("swap_skipped_total");
    local_steps_total_ = &r.counter("local_steps_total");
    readmitted_feedback_total_ = &r.counter("readmitted_feedback_total");
  }
}

nn::Sequential& MdGan::discriminator_of(std::size_t worker_1based) {
  for (auto& d : discs_) {
    if (d.holder == static_cast<int>(worker_1based)) return d.net;
  }
  throw std::out_of_range("MdGan: worker " + std::to_string(worker_1based) +
                          " hosts no discriminator");
}

int MdGan::holder_of(std::size_t disc_index) const {
  return discs_.at(disc_index).holder;
}

std::int64_t MdGan::swap_period() const {
  const std::int64_t period = static_cast<std::int64_t>(
      cfg_.epochs_per_swap * shard_size_ / cfg_.hp.batch);
  return period > 0 ? period : 1;
}

std::vector<std::size_t> MdGan::participating_discs(
    const std::vector<int>& present_workers) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < discs_.size(); ++j) {
    const int holder = discs_[j].holder;
    if (holder <= 0) continue;
    if (!net_.is_alive(holder)) {
      // Fail-stop: a discriminator on a crashed worker is gone. Prune
      // it so its parameters can never re-enter the game. The last
      // holder is kept: a state-transfer re-admission rebirths exactly
      // the discriminators that died with the rejoiner.
      last_holder_[j] = holder;
      discs_[j].holder = -1;
      continue;
    }
    // `present_workers` is ascending; a holder missing from it is
    // scheduled absent — its discriminator lies dormant this round.
    if (!std::binary_search(present_workers.begin(), present_workers.end(),
                            holder)) {
      continue;
    }
    out.push_back(j);
  }
  return out;
}

// Serialize one generated batch into its immutable wire blob:
// [floats X(j)][b × i32 labels] — the shared tail of every frame that
// carries batch j.
static dist::SharedBuf::Segment encode_batch_blob(
    const Tensor& x, const std::vector<int>& labels) {
  auto blob = std::make_shared<ByteBuffer>();
  blob->write_floats(x.data(), x.numel());
  for (int y : labels) blob->write_pod<std::int32_t>(y);
  return blob;
}

void MdGan::server_generate_and_send(const std::vector<std::size_t>& discs,
                                     std::size_t k_eff) {
  const std::size_t b = cfg_.hp.batch;
  latent_batches_.clear();
  latent_labels_.clear();
  latent_batches_.reserve(k_eff);
  latent_labels_.reserve(k_eff);

  // Each batch is serialized ONCE into an immutable blob shared by
  // reference across every recipient's frame: broadcast serialization
  // is O(k · batch bytes) + W small headers, not O(W · batch bytes).
  std::vector<dist::SharedBuf::Segment> blobs;
  blobs.reserve(k_eff);

  // Generate K = {X(1..k)}. Generated in train mode: the update-step
  // re-forward reproduces the exact same activations (batch statistics
  // depend only on the batch itself).
  for (std::size_t j = 0; j < k_eff; ++j) {
    std::vector<int> labels;
    Tensor z = gan::sample_latent(arch_, codes_, b, server_rng_, labels);
    blobs.push_back(encode_batch_blob(g_.forward(z, /*train=*/true),
                                      labels));
    latent_batches_.push_back(std::move(z));
    latent_labels_.push_back(std::move(labels));
  }

  // SPLIT (§IV-B1): the participant at position p gets X_g = X(p mod k),
  // X_d = X((p+1) mod k) — two distinct batches whenever k >= 2. Each
  // frame is (4-byte id header, shared blob) pairs — byte-identical on
  // the wire to the historical contiguous encode.
  for (std::size_t p = 0; p < discs.size(); ++p) {
    const std::size_t gi = p % k_eff;
    const std::size_t di = (p + 1) % k_eff;
    dist::SharedBuf out;
    ByteBuffer hg;
    hg.write_pod<std::uint32_t>(static_cast<std::uint32_t>(gi));
    out.append(std::make_shared<const ByteBuffer>(std::move(hg)));
    out.append(blobs[gi]);
    ByteBuffer hd;
    hd.write_pod<std::uint32_t>(static_cast<std::uint32_t>(di));
    out.append(std::make_shared<const ByteBuffer>(std::move(hd)));
    out.append(blobs[di]);
    net_.send(dist::kServerId, discs_[discs[p]].holder, "gen_batches",
              std::move(out));
  }
}

void MdGan::local_work(const std::vector<std::size_t>& discs) {
  switch (role_.kind) {
    case NodeRole::Kind::kInProcess: {
      std::vector<int> ids(discs.size());
      for (std::size_t p = 0; p < discs.size(); ++p) {
        ids[p] = static_cast<int>(p);
      }
      dist::for_each_worker(
          ids,
          [this, &discs](int p) {
            worker_iteration(discs[static_cast<std::size_t>(p)]);
          },
          cfg_.parallel_workers);
      break;
    }
    case NodeRole::Kind::kServer:
      break;
    case NodeRole::Kind::kWorker:
      // This process embodies one worker: run only the discriminators
      // it currently hosts (receive_tagged blocks until the server's
      // batches arrive over the wire).
      for (std::size_t p = 0; p < discs.size(); ++p) {
        if (discs_[discs[p]].holder == role_.worker_id) {
          worker_iteration(discs[p]);
        }
      }
      break;
  }
}

std::optional<dist::Message> receive_resilient(dist::Transport& net, int node,
                                               const std::string& tag,
                                               int sender,
                                               const RecvRetryPolicy& policy) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t churn = 0;
  for (;;) {
    const std::uint64_t epoch0 = net.membership_epoch();
    if (auto msg = net.receive_tagged(node, tag)) return msg;
    if (!net.is_alive(sender)) return std::nullopt;
    if (net.membership_epoch() == epoch0) return std::nullopt;
    // Membership churn woke the receive, but the peer we are waiting on
    // is still alive: keep waiting — within the policy's budget, so a
    // pathologically flapping cluster surfaces a clean error instead of
    // retrying forever.
    if (++churn > policy.churn_retries) {
      throw std::runtime_error(
          "receive_resilient: node " + std::to_string(node) +
          " gave up waiting for '" + tag + "' from " +
          std::to_string(sender) + " after " +
          std::to_string(policy.churn_retries) +
          " membership-churn retries");
    }
    if (policy.total_timeout_s > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > policy.total_timeout_s) {
        throw std::runtime_error(
            "receive_resilient: node " + std::to_string(node) +
            " gave up waiting for '" + tag + "' from " +
            std::to_string(sender) + " after " +
            std::to_string(policy.total_timeout_s) + "s total");
      }
    }
  }
}

std::optional<dist::Message> MdGan::receive_resilient(int node,
                                                      const std::string& tag,
                                                      int sender) {
  return core::receive_resilient(
      net_, node, tag, sender,
      RecvRetryPolicy{cfg_.recv_churn_retries, cfg_.recv_total_timeout_s});
}

void MdGan::worker_iteration(std::size_t disc_index) {
  Disc& disc = discs_[disc_index];
  Worker& w = *workers_[disc.holder - 1];
  const std::size_t b = cfg_.hp.batch;
  const std::size_t d = arch_.image_dim();
  obs::Span span(trace(), "local_step", obs::Cat::kPhase, disc.holder,
                 iters_run_ + 1);
  if (local_steps_total_ != nullptr) local_steps_total_->inc();

  auto msg = receive_resilient(disc.holder, "gen_batches", dist::kServerId);
  if (!msg) {
    throw std::logic_error("MdGan worker " + std::to_string(disc.holder) +
                           ": missing generated batches");
  }
  const auto gi = msg->payload.read_pod<std::uint32_t>();
  auto xg_flat = msg->payload.read_floats();
  std::vector<int> yg(b);
  for (auto& y : yg) y = msg->payload.read_pod<std::int32_t>();
  msg->payload.read_pod<std::uint32_t>();  // d-batch id (unused here)
  auto xd_flat = msg->payload.read_floats();
  std::vector<int> yd(b);
  for (auto& y : yd) y = msg->payload.read_pod<std::int32_t>();

  Tensor x_g({b, d}, std::move(xg_flat));
  Tensor x_d({b, d}, std::move(xd_flat));

  // L discriminator learning steps (Algorithm 1 lines 6-8).
  std::vector<int> y_real;
  Tensor x_real = w.shard.sample_batch(w.rng, b, &y_real);
  for (std::size_t l = 0; l < cfg_.hp.disc_steps; ++l) {
    gan::disc_learning_step(disc.net, *disc.opt, x_real, y_real, x_d, yd,
                            arch_.acgan);
  }

  // Error feedback F_n on X_g (Algorithm 1 lines 9-10), optionally
  // compressed at the wire boundary (§VII-2).
  Tensor feedback = gan::generator_feedback(
      disc.net, x_g, arch_.acgan ? &yg : nullptr, cfg_.hp.saturating);

  // The local iteration's modeled compute happens between receiving the
  // batches and shipping the feedback, so the feedback departs at
  // arrival + compute on the worker's simulated clock.
  if (cfg_.sim_worker_step_seconds > 0.0) {
    net_.advance_time(disc.holder, cfg_.sim_worker_step_seconds);
  }
  if (cfg_.step_delay_s > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(cfg_.step_delay_s));
  }

  ByteBuffer buf;
  buf.write_pod<std::uint32_t>(gi);
  dist::compress(feedback.vec(), cfg_.feedback_compression, buf);
  net_.send(disc.holder, dist::kServerId, "feedback", std::move(buf));
}

void MdGan::server_fold_sync(std::vector<dist::Message>&& feedbacks,
                             std::size_t k_eff) {
  const std::size_t b = cfg_.hp.batch;
  const std::size_t d = arch_.image_dim();

  // The engine collected every feedback of the round; fold in ascending
  // sender order: SimNetwork already pops that way, but TCP frames
  // arrive in racy wall-clock order, and the float accumulation order
  // must not depend on which transport carried them.
  struct Feedback {
    int from;
    std::uint32_t batch;
    Tensor grad;
  };
  std::vector<Feedback> received;
  received.reserve(feedbacks.size());
  for (auto& msg : feedbacks) {
    const auto j = msg.payload.read_pod<std::uint32_t>();
    if (j >= k_eff) throw std::logic_error("MdGan server: bad batch id");
    if (msg.from > 0 && msg.from < static_cast<int>(readmitted_.size()) &&
        readmitted_[static_cast<std::size_t>(msg.from)]) {
      ++readmitted_feedback_;  // a state-transfer rejoiner is back in
      if (readmitted_feedback_total_ != nullptr) {
        readmitted_feedback_total_->inc();
      }
    }
    received.push_back(
        {msg.from, j, Tensor({b, d}, dist::decompress(msg.payload))});
  }
  std::sort(received.begin(), received.end(),
            [](const Feedback& a, const Feedback& b2) {
              return a.from < b2.from;  // one feedback per sender
            });

  // Group by generated-batch id.
  std::vector<Tensor> upstream(k_eff);
  std::vector<std::size_t> counts(k_eff, 0);
  for (auto& fb : received) {
    const auto j = fb.batch;
    if (upstream[j].empty()) {
      upstream[j] = std::move(fb.grad);
    } else {
      upstream[j] += fb.grad;
    }
    ++counts[j];
  }

  // ∆w = (1/N) Σ_n backprop(F_n) — equivalently, per batch j, backprop
  // the summed feedback scaled by 1/N (paper §IV-B2; the 1/b factor is
  // already inside each F_n).
  const float inv_n = 1.f / static_cast<float>(received.size());
  g_opt_->zero_grad();
  for (std::size_t j = 0; j < k_eff; ++j) {
    if (counts[j] == 0) continue;  // batch unused by the SPLIT this round
    // Re-forward G on the cached latent batch: G's parameters have not
    // changed since generation, so this reproduces x exactly and primes
    // the layer caches for backward.
    g_.forward(latent_batches_[j], /*train=*/true);
    upstream[j] *= inv_n;
    g_.backward(upstream[j]);
  }
  g_opt_->step();
  ++gen_updates_;
  if (gen_updates_total_ != nullptr) gen_updates_total_->inc();
  // Server apply: the server's clock is already at the arrival of the
  // slowest feedback (the engine's receive loop advanced it); the
  // update's modeled compute lands on top of that.
  if (cfg_.sim_server_update_seconds > 0.0) {
    net_.advance_time(dist::kServerId, cfg_.sim_server_update_seconds);
  }
}

void MdGan::server_apply_async(dist::Message&& feedback,
                               std::size_t staleness, std::size_t k_eff) {
  const std::size_t b = cfg_.hp.batch;
  const std::size_t d = arch_.image_dim();
  // One Adam update for this feedback, on arrival. The re-forward uses
  // the *current* generator parameters, which already moved since the
  // batch was generated — the inconsistent-update regime of §VII-1.
  const auto j = feedback.payload.read_pod<std::uint32_t>();
  if (j >= k_eff) throw std::logic_error("MdGan server: bad batch id");
  if (feedback.from > 0 &&
      feedback.from < static_cast<int>(readmitted_.size()) &&
      readmitted_[static_cast<std::size_t>(feedback.from)]) {
    ++readmitted_feedback_;
    if (readmitted_feedback_total_ != nullptr) {
      readmitted_feedback_total_->inc();
    }
  }
  Tensor fb({b, d}, dist::decompress(feedback.payload));
  g_opt_->zero_grad();
  g_.forward(latent_batches_[j], /*train=*/true);
  g_.backward(fb);
  // Staleness-aware step: damping shrinks the learning rate of updates
  // computed against an old generator. Damping 0 is a plain step.
  const float scale =
      cfg_.async_staleness_damping > 0.f
          ? 1.f / (1.f + cfg_.async_staleness_damping *
                             static_cast<float>(staleness))
          : 1.f;
  g_opt_->step_scaled(scale);
  ++gen_updates_;
  if (gen_updates_total_ != nullptr) gen_updates_total_->inc();
  // One modeled update cost per applied feedback: in the async regime
  // the server is busy for every arrival, not once per round.
  if (cfg_.sim_server_update_seconds > 0.0) {
    net_.advance_time(dist::kServerId, cfg_.sim_server_update_seconds);
  }
}

void MdGan::swap_discriminators(const std::vector<int>& present_workers) {
  auto alive_discs = participating_discs(present_workers);
  if (alive_discs.empty() || present_workers.size() < 2) {
    if (swap_skipped_total_ != nullptr) swap_skipped_total_->inc();
    return;
  }

  // New holders: a uniform injection of discriminators into present
  // workers with no discriminator staying put (gossip SWAP of §IV-C1;
  // with n_discs == N this is exactly a derangement, and with
  // n_discs < N it relocates the discriminators to a fresh subset so
  // the whole dataset is visited over time — §VII-4). Absent workers
  // are skipped deterministically: `present_workers` comes from the
  // engine's membership view, which every role replays identically.
  const std::size_t nd = alive_discs.size();
  std::vector<int> targets;
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto perm = swap_rng_.permutation(present_workers.size());
    targets.clear();
    bool ok = true;
    for (std::size_t p = 0; p < nd; ++p) {
      const int target = present_workers[perm[p]];
      if (target == discs_[alive_discs[p]].holder) {
        ok = false;
        break;
      }
      targets.push_back(target);
    }
    if (ok) break;
    targets.clear();
  }
  if (targets.empty()) {
    // e.g. one worker present hosting the disc: no derangement exists.
    if (swap_skipped_total_ != nullptr) swap_skipped_total_->inc();
    return;
  }

  // Ship parameters old holder -> new holder (W->W traffic), then
  // adopt. The wire carries θ only — the paper's swap cost — so the
  // host-local Adam moments cannot travel with the discriminator; every
  // adoption resets them, in-process included, which is what keeps
  // role-split (TCP) and in-process runs bit-identical.
  switch (role_.kind) {
    case NodeRole::Kind::kInProcess:
      for (std::size_t p = 0; p < nd; ++p) {
        Disc& disc = discs_[alive_discs[p]];
        const auto params = disc.net.flatten_parameters();
        ByteBuffer buf;
        buf.write_pod<std::uint32_t>(
            static_cast<std::uint32_t>(alive_discs[p]));
        buf.write_floats(params.data(), params.size());
        net_.send(disc.holder, targets[p], "disc_swap", std::move(buf));
      }
      for (std::size_t p = 0; p < nd; ++p) {
        Disc& disc = discs_[alive_discs[p]];
        auto msg = net_.receive_tagged(targets[p], "disc_swap");
        if (!msg) throw std::logic_error("MdGan swap: missing message");
        msg->payload.read_pod<std::uint32_t>();
        disc.net.assign_parameters(msg->payload.read_floats());
        disc.opt->reset();
        disc.holder = targets[p];
      }
      break;
    case NodeRole::Kind::kServer:
      // The parameters move worker-to-worker; the server only replays
      // the holder bookkeeping.
      for (std::size_t p = 0; p < nd; ++p) {
        discs_[alive_discs[p]].holder = targets[p];
      }
      break;
    case NodeRole::Kind::kWorker: {
      const int me = role_.worker_id;
      for (std::size_t p = 0; p < nd; ++p) {
        Disc& disc = discs_[alive_discs[p]];
        if (disc.holder != me) continue;
        const auto params = disc.net.flatten_parameters();
        ByteBuffer buf;
        buf.write_pod<std::uint32_t>(
            static_cast<std::uint32_t>(alive_discs[p]));
        buf.write_floats(params.data(), params.size());
        net_.send(me, targets[p], "disc_swap", std::move(buf));
      }
      for (std::size_t p = 0; p < nd; ++p) {
        if (targets[p] != me) continue;
        // The incoming parameters travel from the old holder via the
        // relay; if that worker crashed unscheduled mid-swap they will
        // never arrive. Skip the adoption — the holder bookkeeping
        // below still runs, so this view stays aligned with the other
        // roles', and the next membership round prunes the orphan.
        const int source = discs_[alive_discs[p]].holder;
        auto msg = receive_resilient(me, "disc_swap", source);
        if (!msg) {
          if (!net_.is_alive(source)) {
            MDGAN_LOG_WARN << "MdGan worker " << me << ": swap source "
                           << source << " died mid-swap; keeping current "
                              "discriminator " << alive_discs[p]
                           << " parameters";
            continue;
          }
          throw std::logic_error("MdGan swap: missing message");
        }
        const auto idx = msg->payload.read_pod<std::uint32_t>();
        if (idx != alive_discs[p]) {
          throw std::logic_error("MdGan swap: discriminator id mismatch");
        }
        Disc& disc = discs_[idx];
        disc.net.assign_parameters(msg->payload.read_floats());
        disc.opt->reset();
      }
      for (std::size_t p = 0; p < nd; ++p) {
        discs_[alive_discs[p]].holder = targets[p];
      }
      break;
    }
  }
}

void MdGan::readmit_worker(int worker, std::int64_t round) {
  // Rebirth every discriminator that died with this worker: a FRESH
  // model (the old parameters died with the old incarnation and cannot
  // be recovered), drawn from a stream every role derives identically
  // from (seed, worker, admission round, disc index) — the rejoiner in
  // adopt_rejoin_state, the server and every survivor here. Fresh Adam
  // moments too, like a swap adoption.
  for (std::size_t j = 0; j < discs_.size(); ++j) {
    if (discs_[j].holder != -1 || last_holder_[j] != worker) continue;
    Rng scratch = Rng(seed_)
                      .split(0xd15c)
                      .split(static_cast<std::uint64_t>(worker))
                      .split(static_cast<std::uint64_t>(round))
                      .split(j);
    discs_[j].net = gan::build_discriminator(arch_, scratch);
    discs_[j].opt = std::make_unique<opt::Adam>(
        discs_[j].net.params(), discs_[j].net.grads(), cfg_.hp.d_adam);
    discs_[j].holder = worker;
    last_holder_[j] = -1;
    MDGAN_LOG_INFO << "MdGan: discriminator " << j << " reborn on worker "
                   << worker << " (admission round " << round << ")";
  }
  // Reseed the worker's sampling stream from the admission round (a
  // shared-knowledge tuple): the restarted process cannot know how far
  // the old incarnation drew, so every role restarts the stream at the
  // same point instead.
  auto& slot = workers_[static_cast<std::size_t>(worker - 1)];
  if (slot != nullptr) {
    slot->rng = Rng(seed_)
                    .split(0x3d9a)
                    .split(static_cast<std::uint64_t>(worker))
                    .split(static_cast<std::uint64_t>(round));
  }
  readmitted_[static_cast<std::size_t>(worker)] = true;
}

ByteBuffer MdGan::serialize_rejoin_state(std::int64_t round) {
  RejoinState st;
  st.admission_round = round;
  st.membership_epoch = net_.membership_epoch();
  st.generator_params = g_.flatten_parameters();
  st.holders.reserve(discs_.size());
  for (const auto& d : discs_) st.holders.push_back(d.holder);
  st.swap_rng = swap_rng_.state();
  return st.encode();
}

void MdGan::adopt_rejoin_state(RejoinState&& st) {
  if (st.holders.size() != discs_.size()) {
    throw std::runtime_error(
        "MdGan: rejoin state carries " + std::to_string(st.holders.size()) +
        " discriminators, this cluster has " + std::to_string(discs_.size()));
  }
  if (st.generator_params.size() != g_.flatten_parameters().size()) {
    throw std::runtime_error(
        "MdGan: rejoin state generator size mismatch (architecture or "
        "config disagrees with the server)");
  }
  g_.assign_parameters(st.generator_params);
  swap_rng_.set_state(st.swap_rng);
  const int me = role_.worker_id;
  for (std::size_t j = 0; j < discs_.size(); ++j) {
    discs_[j].holder = st.holders[j];
    last_holder_[j] = -1;
    if (st.holders[j] == me && role_.kind == NodeRole::Kind::kWorker) {
      // The holder map was serialized AFTER the server re-admitted this
      // worker, so the discriminators mapped to it are the reborn ones:
      // derive the identical fresh model the other roles derived.
      Rng scratch = Rng(seed_)
                        .split(0xd15c)
                        .split(static_cast<std::uint64_t>(me))
                        .split(static_cast<std::uint64_t>(st.admission_round))
                        .split(j);
      discs_[j].net = gan::build_discriminator(arch_, scratch);
      discs_[j].opt = std::make_unique<opt::Adam>(
          discs_[j].net.params(), discs_[j].net.grads(), cfg_.hp.d_adam);
    }
  }
  if (role_.kind == NodeRole::Kind::kWorker) {
    workers_[static_cast<std::size_t>(me - 1)]->rng =
        Rng(seed_)
            .split(0x3d9a)
            .split(static_cast<std::uint64_t>(me))
            .split(static_cast<std::uint64_t>(st.admission_round));
  }
  MDGAN_LOG_INFO << "MdGan: adopted rejoin state (admission round "
                 << st.admission_round << ", epoch " << st.membership_epoch
                 << ", " << st.generator_params.size() << " generator params)";
}

// Binds the engine's phase callbacks to the trainer plus the train()
// call's eval context.
struct MdGan::EngineBridge final : RoundDelegate {
  MdGan& md;
  std::int64_t total_iters;
  std::int64_t eval_every;
  const gan::EvalHook& hook;

  EngineBridge(MdGan& m, std::int64_t iters, std::int64_t every,
               const gan::EvalHook& h)
      : md(m), total_iters(iters), eval_every(every), hook(h) {}

  void on_leave(int worker, bool permanent, std::int64_t /*iter*/) override {
    if (!permanent) return;  // dormant discs stay with their host
    for (std::size_t j = 0; j < md.discs_.size(); ++j) {
      if (md.discs_[j].holder == worker) {
        md.last_holder_[j] = worker;  // a re-admission rebirths it here
        md.discs_[j].holder = -1;     // died with its host
      }
    }
  }
  void on_join(int /*worker*/, std::int64_t /*iter*/) override {
    // Nothing to restore: a rejoining worker kept its shard, RNG stream
    // and any dormant discriminator; participants() picks them back up.
  }
  void on_readmit(int worker, std::int64_t iter) override {
    md.readmit_worker(worker, iter);
  }
  ByteBuffer make_rejoin_state(int /*worker*/, std::int64_t iter) override {
    return md.serialize_rejoin_state(iter);
  }
  std::vector<std::size_t> participants(
      const std::vector<int>& present_workers) override {
    return md.participating_discs(present_workers);
  }
  std::vector<int> feedback_senders(
      const std::vector<std::size_t>& discs) override {
    std::vector<int> out;
    out.reserve(discs.size());
    for (auto j : discs) out.push_back(md.discs_[j].holder);
    return out;
  }
  void broadcast(const std::vector<std::size_t>& discs,
                 std::size_t k_eff) override {
    md.server_generate_and_send(discs, k_eff);
  }
  void local_work(const std::vector<std::size_t>& discs) override {
    md.local_work(discs);
  }
  void fold_sync(std::vector<dist::Message>&& feedbacks,
                 std::size_t k_eff) override {
    md.server_fold_sync(std::move(feedbacks), k_eff);
  }
  void apply_async(dist::Message&& feedback, std::size_t staleness,
                   std::size_t k_eff) override {
    md.server_apply_async(std::move(feedback), staleness, k_eff);
  }
  void swap(std::int64_t /*iter*/,
            const std::vector<int>& present_workers) override {
    md.swap_discriminators(present_workers);
  }
  void end_round(std::int64_t iter, double round_seconds) override {
    md.round_sim_s_.push_back(round_seconds);
    md.iters_run_ = iter;
    // The hook observes the server generator; worker roles hold only
    // the stale initial copy, so they never fire it.
    if (md.runs_server() && hook && eval_every > 0 &&
        (iter % eval_every == 0 || iter == total_iters)) {
      hook(iter, md.g_);
    }
  }
};

void MdGan::train(std::int64_t iters, std::int64_t eval_every,
                  const gan::EvalHook& hook) {
  train_from(/*first_iter=*/1, iters, eval_every, hook);
}

void MdGan::train_from(std::int64_t first_iter, std::int64_t iters,
                       std::int64_t eval_every, const gan::EvalHook& hook) {
  if (first_iter < 1) {
    throw std::invalid_argument("MdGan: first_iter must be >= 1");
  }
  if (iters < first_iter) return;  // the run already ended before re-entry
  RoundEngineConfig ec;
  ec.role = role_;
  ec.mode = server_mode();
  ec.k = cfg_.k;
  ec.swap_enabled = cfg_.swap_enabled;
  ec.swap_period = swap_period();
  ec.max_staleness = cfg_.async_max_staleness;
  ec.sink = cfg_.sink;
  // Per-link wire accounting rides the transport; leave an externally
  // attached sink alone.
  if (cfg_.sink != nullptr && net_.sink() == nullptr) {
    net_.set_sink(cfg_.sink);
  }
  EngineBridge bridge(*this, iters, eval_every, hook);
  RoundEngine engine(net_, ec, bridge, availability_);
  engine.run(first_iter, iters - first_iter + 1);
  stale_dropped_ += engine.stale_dropped();
}

}  // namespace mdgan::core
