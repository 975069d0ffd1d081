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
    const int worker = role_.kind == NodeRole::Kind::kWorker
                           ? role_.worker_id
                           : static_cast<int>(n + 1);
    auto w = std::make_unique<Worker>();
    w->shard = std::move(shards[n]);
    if (w->shard.size() < cfg_.hp.batch) {
      throw std::invalid_argument("MdGan: shard smaller than batch size");
    }
    w->rng = sample_stream(worker);
    workers_[static_cast<std::size_t>(worker - 1)] = std::move(w);
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

std::vector<std::size_t> MdGan::participants(
    const std::vector<int>& present_workers) {
  for (std::size_t j = 0; j < discs_.size(); ++j) {
    const int holder = discs_[j].holder;
    if (holder > 0 && !net_.is_alive(holder)) {
      // Fail-stop: a discriminator on a crashed worker is gone. Prune
      // it so its parameters can never re-enter the game. The last
      // holder is kept: a state-transfer re-admission rebirths exactly
      // the discriminators that died with the rejoiner.
      last_holder_[j] = holder;
      discs_[j].holder = -1;
    }
  }
  return held_by(present_workers);
}

std::vector<std::size_t> MdGan::held_by(
    const std::vector<int>& present_workers) const {
  // `present_workers` is ascending; a holder missing from it is absent
  // (scheduled, or lost) — its discriminator lies dormant.
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < discs_.size(); ++j) {
    const int holder = discs_[j].holder;
    if (holder > 0 && std::binary_search(present_workers.begin(),
                                         present_workers.end(), holder)) {
      out.push_back(j);
    }
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

std::vector<int> MdGan::feedback_senders(
    const std::vector<std::size_t>& discs) {
  std::vector<int> out;
  out.reserve(discs.size());
  for (auto j : discs) out.push_back(discs_[j].holder);
  return out;
}

void MdGan::broadcast(const std::vector<std::size_t>& discs,
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
  hosted_.clear();
  for (std::size_t j : discs) {
    if (role_.hosts(discs_[j].holder)) hosted_.push_back(static_cast<int>(j));
  }
  dist::for_each_worker(hosted_, [this](int j) {
    worker_iteration(static_cast<std::size_t>(j));
  });
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

void MdGan::worker_iteration(std::size_t disc_index) {
  Disc& disc = discs_[disc_index];
  Worker& w = *workers_[disc.holder - 1];
  const std::size_t b = cfg_.hp.batch;
  const std::size_t d = arch_.image_dim();
  obs::Span span(trace(), "local_step", obs::Cat::kPhase, disc.holder,
                 iters_run_ + 1);
  if (local_steps_total_ != nullptr) local_steps_total_->inc();

  auto msg = receive_resilient(net_, disc.holder, "gen_batches",
                               dist::kServerId, cfg_.recv_retry);
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
  // compressed at the wire boundary (§VII-2). F_n lives in the
  // discriminator's scratch; nothing runs on it before the send.
  const Tensor& feedback = gan::generator_feedback(
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
  net_.send(disc.holder, dist::kServerId, dist::kFeedbackTag,
            std::move(buf));
}

MdGan::Feedback MdGan::decode_feedback(dist::Message& msg,
                                       std::size_t k_eff) {
  const auto j = msg.payload.read_pod<std::uint32_t>();
  if (j >= k_eff) throw std::logic_error("MdGan server: bad batch id");
  if (msg.from > 0 && msg.from < static_cast<int>(readmitted_.size()) &&
      readmitted_[static_cast<std::size_t>(msg.from)] &&
      readmitted_feedback_total_ != nullptr) {
    readmitted_feedback_total_->inc();  // a state-transfer rejoiner is back in
  }
  return {msg.from, j,
          Tensor({cfg_.hp.batch, arch_.image_dim()},
                 dist::decompress(msg.payload))};
}

void MdGan::fold_sync(std::vector<dist::Message>&& feedbacks,
                      std::size_t k_eff) {
  // The engine collected every feedback of the round; fold in ascending
  // sender order: SimNetwork already pops that way, but TCP frames
  // arrive in racy wall-clock order, and the float accumulation order
  // must not depend on which transport carried them.
  std::vector<Feedback> received;
  received.reserve(feedbacks.size());
  for (auto& msg : feedbacks) received.push_back(decode_feedback(msg, k_eff));
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

void MdGan::apply_async(dist::Message&& feedback, std::size_t staleness,
                        std::size_t k_eff) {
  // One Adam update for this feedback, on arrival. The re-forward uses
  // the *current* generator parameters, which already moved since the
  // batch was generated — the inconsistent-update regime of §VII-1.
  const Feedback fb = decode_feedback(feedback, k_eff);
  g_opt_->zero_grad();
  g_.forward(latent_batches_[fb.batch], /*train=*/true);
  g_.backward(fb.grad);
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

void MdGan::swap(std::int64_t /*iter*/,
                 const std::vector<int>& present_workers) {
  // The engine's membership view alone decides who swaps, never live
  // transport liveness: the roles observe a death at different times
  // (the workers exit right after their last swap), and every role must
  // draw the same derangement. A holder that died since the round
  // started is caught by the source check below and pruned by the next
  // round's participants().
  const auto alive_discs = held_by(present_workers);
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

  // Ship parameters old holder -> new holder (W->W traffic) for every
  // discriminator this process hosts, then adopt every one that lands
  // on a worker it hosts; the server hosts none and only replays the
  // holder bookkeeping. The wire carries θ only — the paper's swap
  // cost — so the host-local Adam moments cannot travel with the
  // discriminator; every adoption resets them, which is what keeps
  // role-split (TCP) and in-process runs bit-identical.
  for (std::size_t p = 0; p < nd; ++p) {
    Disc& disc = discs_[alive_discs[p]];
    if (!role_.hosts(disc.holder)) continue;
    const auto params = disc.net.flatten_parameters();
    ByteBuffer buf;
    buf.write_pod<std::uint32_t>(static_cast<std::uint32_t>(alive_discs[p]));
    buf.write_floats(params.data(), params.size());
    net_.send(disc.holder, targets[p], "disc_swap", std::move(buf));
  }
  for (std::size_t p = 0; p < nd; ++p) {
    const int target = targets[p];
    if (!role_.hosts(target)) continue;
    // The incoming parameters travel from the old holder (via the relay
    // over TCP); if that worker crashed unscheduled mid-swap they will
    // never arrive. Skip the adoption — the holder bookkeeping below
    // still runs, so this view stays aligned with the other roles', and
    // the next membership round prunes the orphan.
    const int source = discs_[alive_discs[p]].holder;
    auto msg =
        receive_resilient(net_, target, "disc_swap", source, cfg_.recv_retry);
    if (!msg) {
      if (!net_.is_alive(source)) {
        MDGAN_LOG_WARN << "MdGan worker " << target << ": swap source "
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
}

void MdGan::rebirth(std::size_t j, int worker, std::int64_t round) {
  Rng scratch = Rng(seed_)
                    .split(0xd15c)
                    .split(static_cast<std::uint64_t>(worker))
                    .split(static_cast<std::uint64_t>(round))
                    .split(j);
  Disc& disc = discs_[j];
  disc.net = gan::build_discriminator(arch_, scratch);
  disc.opt = std::make_unique<opt::Adam>(disc.net.params(), disc.net.grads(),
                                         cfg_.hp.d_adam);
  disc.holder = worker;
}

Rng MdGan::sample_stream(int worker, std::int64_t round) const {
  const Rng stream =
      Rng(seed_).split(0x3d9a).split(static_cast<std::uint64_t>(worker));
  return round > 0 ? stream.split(static_cast<std::uint64_t>(round)) : stream;
}

void MdGan::on_leave(int worker, bool permanent, std::int64_t /*iter*/) {
  if (!permanent) return;  // dormant discs stay with their host
  for (std::size_t j = 0; j < discs_.size(); ++j) {
    if (discs_[j].holder == worker) {
      last_holder_[j] = worker;  // a re-admission rebirths it here
      discs_[j].holder = -1;     // died with its host
    }
  }
}

void MdGan::on_readmit(int worker, std::int64_t round) {
  // Rebirth every discriminator that died with this worker; every role
  // derives the same fresh model — the rejoiner in adopt_rejoin_state,
  // the server and every survivor here.
  for (std::size_t j = 0; j < discs_.size(); ++j) {
    if (discs_[j].holder != -1 || last_holder_[j] != worker) continue;
    rebirth(j, worker, round);
    last_holder_[j] = -1;
    MDGAN_LOG_INFO << "MdGan: discriminator " << j << " reborn on worker "
                   << worker << " (admission round " << round << ")";
  }
  // The restarted process cannot know how far the old incarnation drew,
  // so every role restarts the worker's sampling stream at the same
  // point instead.
  auto& slot = workers_[static_cast<std::size_t>(worker - 1)];
  if (slot != nullptr) slot->rng = sample_stream(worker, round);
  readmitted_[static_cast<std::size_t>(worker)] = true;
}

ByteBuffer MdGan::make_rejoin_state(int /*worker*/, std::int64_t round) {
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
  const bool worker_role = role_.kind == NodeRole::Kind::kWorker;
  const int me = role_.worker_id;
  for (std::size_t j = 0; j < discs_.size(); ++j) {
    discs_[j].holder = st.holders[j];
    last_holder_[j] = -1;
    // The holder map was serialized AFTER the server re-admitted this
    // worker, so the discriminators mapped to it are the reborn ones:
    // derive the identical fresh model the other roles derived.
    if (worker_role && st.holders[j] == me) {
      rebirth(j, me, st.admission_round);
    }
  }
  if (worker_role) {
    workers_[static_cast<std::size_t>(me - 1)]->rng =
        sample_stream(me, st.admission_round);
  }
  MDGAN_LOG_INFO << "MdGan: adopted rejoin state (admission round "
                 << st.admission_round << ", epoch " << st.membership_epoch
                 << ", " << st.generator_params.size() << " generator params)";
}

void MdGan::end_round(std::int64_t iter, double round_seconds) {
  round_sim_s_.push_back(round_seconds);
  iters_run_ = iter;
  // The hook observes the server generator; worker roles hold only the
  // stale initial copy, so they never fire it.
  if (role_.runs_server() && *eval_hook_ && eval_every_ > 0 &&
      (iter % eval_every_ == 0 || iter == total_iters_)) {
    (*eval_hook_)(iter, g_);
  }
}

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
  total_iters_ = iters;
  eval_every_ = eval_every;
  eval_hook_ = &hook;
  RoundEngine engine(net_, ec, *this, availability_);
  engine.run(first_iter, iters - first_iter + 1);
  stale_dropped_ += engine.stale_dropped();
}

}  // namespace mdgan::core
