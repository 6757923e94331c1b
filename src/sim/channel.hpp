// Lossy, delaying, order-preserving channel (the paper's network model:
// "a network that can delay and lose, but not reorder, messages").
//
// Templated on the message payload so the sim substrate stays independent of
// the protocol layer.  Loss and delay are pluggable processes
// (sim/channel_process.hpp): iid Bernoulli loss with deterministic or
// exponential delay reproduces the paper; the Gilbert-Elliott loss process
// and the heavy-tail delay laws extend it to bursty, correlated channels.
//
// A channel borrows its link: the loss and delay configuration is one
// immutable sim::LinkConfig read through a pointer, shared by every channel
// that runs the same link (both directions of a tree edge, the channels of
// every session of a farm run).  The channel itself keeps only its mutable
// state -- counters, the last arrival time, the Gilbert-Elliott state bit,
// the sink -- and one pointer to a cold block that holds its own copy of
// the link when it was built by value or had its loss changed, and its
// tracer when traced.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sigcomp::sim {

/// Counters exposed by a channel; the experiment harness aggregates these
/// into signaling-message-rate metrics.
struct ChannelCounters {
  std::uint64_t sent = 0;       ///< messages handed to the channel
  std::uint64_t delivered = 0;  ///< messages that reached the sink
  std::uint64_t lost = 0;       ///< messages dropped by the loss process
};

/// Unidirectional point-to-point channel.
template <typename Payload>
class Channel {
 public:
  /// Delivery callback invoked for every message that survives the loss
  /// process, after its sampled delay.
  using Sink = std::function<void(const Payload&)>;

  /// A channel running `link`, which it borrows: `link` must outlive the
  /// channel and must not change while it runs.  The link is validated
  /// (throws std::invalid_argument -- e.g. a loss probability outside
  /// [0, 1]).  FIFO order is enforced even with random delays: a message
  /// never arrives before one sent earlier.
  Channel(Simulator& sim, Rng& rng, const LinkConfig& link, Sink sink)
      : link_(&link), sim_(&sim), rng_(&rng), sink_(std::move(sink)) {
    link.validate();
  }
  /// A temporary link would dangle: refused at compile time.
  Channel(Simulator& sim, Rng& rng, LinkConfig&& link, Sink sink) = delete;

  /// A channel that owns its link: a copy of `loss` and `delay` kept in the
  /// cold block, validated as above.
  Channel(Simulator& sim, Rng& rng, LossConfig loss, DelayConfig delay,
          Sink sink)
      : sim_(&sim),
        rng_(&rng),
        sink_(std::move(sink)),
        cold_(std::make_unique<Cold>()) {
    cold_->link = LinkConfig{loss, delay};
    cold_->link.validate();
    link_ = &cold_->link;
  }

  /// Legacy convenience: iid Bernoulli(loss) with deterministic or
  /// exponential per-message delay -- the paper's channel.
  Channel(Simulator& sim, Rng& rng, double loss, double mean_delay,
          Distribution delay_dist, Sink sink)
      : Channel(sim, rng, LossConfig::iid(loss),
                DelayConfig::from(delay_dist, mean_delay), std::move(sink)) {}

  /// Sends a message: counts it, applies the loss process, and if it
  /// survives schedules delivery after the (order-corrected) delay.
  void send(Payload message) {
    ++counters_.sent;
    trace(TraceCategory::kSend, message);
    if (LossProcess::drop(link_->loss, bad_, *rng_)) {
      ++counters_.lost;
      trace(TraceCategory::kDrop, message);
      return;
    }
    Time arrival = sim_->now() + link_->delay.sample(*rng_);
    if (arrival < last_arrival_) arrival = last_arrival_;  // no reordering
    last_arrival_ = arrival;
    sim_->schedule_at(arrival, [this, m = std::move(message)] {
      ++counters_.delivered;
      trace(TraceCategory::kDeliver, m);
      sink_(m);
    });
  }

  /// Sent/delivered/lost counters since construction.
  [[nodiscard]] const ChannelCounters& counters() const noexcept { return counters_; }

  /// Long-run average loss probability (the iid loss, or the GE stationary
  /// mean).
  [[nodiscard]] double loss() const { return link_->loss.mean_loss(); }
  /// Mean one-way delay in seconds.
  [[nodiscard]] double mean_delay() const noexcept { return link_->delay.mean; }

  /// The loss process configuration this channel runs: the borrowed
  /// link's, or the channel's own copy.
  [[nodiscard]] const LossConfig& loss_config() const noexcept {
    return link_->loss;
  }
  /// The delay process configuration this channel runs.
  [[nodiscard]] const DelayConfig& delay_config() const noexcept {
    return link_->delay;
  }

  /// Replaces the delivery sink (used when wiring mutually-connected nodes).
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Changes the loss process mid-run to iid Bernoulli(loss) -- fault
  /// injection in tests: blackhole a link with loss = 1, then heal it.
  /// Copy on write: the channel switches to its own copy of the link, and
  /// a borrowed link -- with every other channel on it -- is left as it
  /// was.  Throws std::invalid_argument when `loss` is outside [0, 1].
  void set_loss(double loss) {
    const LinkConfig changed{LossConfig::iid(loss), link_->delay};
    changed.loss.validate();
    Cold& cold = this->cold();
    cold.link = changed;
    link_ = &cold.link;
    bad_ = false;
  }

  /// Attaches a trace log.  `describe` renders a payload for the trace
  /// detail field; `label` identifies this channel in the records.
  /// A null `log` detaches tracing.
  void set_trace(TraceLog* log, std::string label,
                 std::function<std::string(const Payload&)> describe) {
    traced_ = log != nullptr;
    if (!traced_) {
      if (cold_) {
        cold_->log = nullptr;
        cold_->label.clear();
        cold_->describe = nullptr;
      }
      return;
    }
    Cold& cold = this->cold();
    cold.log = log;
    cold.label = std::move(label);
    cold.describe = std::move(describe);
  }

 private:
  /// What most channels never need, kept behind one pointer: every farm
  /// channel borrows its link and is never traced, and the 72-byte link
  /// copy plus the tracer's 72 bytes would otherwise sit in every session.
  struct Cold {
    /// The channel's own link: by-value constructors and set_loss.
    LinkConfig link;
    TraceLog* log = nullptr;  ///< null when untraced
    std::string label;
    std::function<std::string(const Payload&)> describe;
  };

  /// The cold block, allocated on first use.
  Cold& cold() {
    if (!cold_) cold_ = std::make_unique<Cold>();
    return *cold_;
  }

  void trace(TraceCategory category, const Payload& message) {
    if (!traced_) return;
    std::string detail = cold_->label;
    if (cold_->describe) {
      detail += ' ';
      detail += cold_->describe(message);
    }
    cold_->log->record(sim_->now(), category, std::move(detail));
  }

  // Hot first: send() and the delivery it schedules touch everything down
  // to the sink; the cold block is read only when traced_ is set.
  const LinkConfig* link_ = nullptr;  ///< borrowed, or &cold_->link
  Simulator* sim_;
  Rng* rng_;
  ChannelCounters counters_;
  Time last_arrival_ = 0.0;
  bool bad_ = false;     ///< the Gilbert-Elliott state (false under iid)
  bool traced_ = false;  ///< a trace log is attached
  Sink sink_;
  std::unique_ptr<Cold> cold_;  ///< null until owned link or tracer
};

}  // namespace sigcomp::sim
