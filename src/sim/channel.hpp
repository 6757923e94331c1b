// Lossy, delaying, order-preserving channel (the paper's network model:
// "a network that can delay and lose, but not reorder, messages").
//
// Templated on the message payload so the sim substrate stays independent of
// the protocol layer.  Loss and delay are pluggable processes
// (sim/channel_process.hpp): iid Bernoulli loss with deterministic or
// exponential delay reproduces the paper; the Gilbert-Elliott loss process
// and the heavy-tail delay laws extend it to bursty, correlated channels.
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

  /// Fully configured channel.  Both configurations are validated (throws
  /// std::invalid_argument -- e.g. a loss probability outside [0, 1]).
  /// FIFO order is enforced even with random delays: a message never
  /// arrives before one sent earlier.
  Channel(Simulator& sim, Rng& rng, LossConfig loss, DelayConfig delay,
          Sink sink)
      : sim_(&sim),
        rng_(&rng),
        loss_(loss),
        delay_(delay),
        sink_(std::move(sink)) {
    delay_.validate();
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
    if (loss_.drop(*rng_)) {
      ++counters_.lost;
      trace(TraceCategory::kDrop, message);
      return;
    }
    Time arrival = sim_->now() + delay_.sample(*rng_);
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
  [[nodiscard]] double loss() const { return loss_.config().mean_loss(); }
  /// Mean one-way delay in seconds.
  [[nodiscard]] double mean_delay() const noexcept { return delay_.mean; }

  /// The loss process configuration this channel runs.
  [[nodiscard]] const LossConfig& loss_config() const noexcept {
    return loss_.config();
  }
  /// The delay process configuration this channel runs.
  [[nodiscard]] const DelayConfig& delay_config() const noexcept {
    return delay_;
  }

  /// Replaces the delivery sink (used when wiring mutually-connected nodes).
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Changes the loss process mid-run to iid Bernoulli(loss) -- fault
  /// injection in tests: blackhole a link with loss = 1, then heal it.
  /// Throws std::invalid_argument when `loss` is outside [0, 1].
  void set_loss(double loss) { loss_.set_loss(loss); }

  /// Attaches a trace log.  `describe` renders a payload for the trace
  /// detail field; `label` identifies this channel in the records.
  /// A null `log` detaches tracing.
  void set_trace(TraceLog* log, std::string label,
                 std::function<std::string(const Payload&)> describe) {
    trace_ = log == nullptr ? nullptr
                            : std::make_unique<Tracer>(Tracer{
                                  log, std::move(label), std::move(describe)});
  }

 private:
  /// Tracing state, kept behind one pointer: most channels (every farm
  /// channel) are never traced, and these 72 bytes would otherwise sit in
  /// every session.
  struct Tracer {
    TraceLog* log;
    std::string label;
    std::function<std::string(const Payload&)> describe;
  };

  void trace(TraceCategory category, const Payload& message) {
    if (!trace_) return;
    std::string detail = trace_->label;
    if (trace_->describe) {
      detail += ' ';
      detail += trace_->describe(message);
    }
    trace_->log->record(sim_->now(), category, std::move(detail));
  }

  // Hot first: send() and the delivery it schedules touch everything down
  // to the sink; the trace pointer is read (and is null) on both.
  Simulator* sim_;
  Rng* rng_;
  ChannelCounters counters_;
  Time last_arrival_ = 0.0;
  LossProcess loss_;
  DelayConfig delay_;
  Sink sink_;
  std::unique_ptr<Tracer> trace_;  ///< null when untraced
};

}  // namespace sigcomp::sim
