#include "protocols/single_hop_run.hpp"

#include <memory>
#include <stdexcept>

#include "core/rng_streams.hpp"
#include "protocols/engine.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

namespace {

/// One self-contained replication: wiring, lifecycle and measurement.
class SingleHopRun {
 public:
  SingleHopRun(ProtocolKind kind, const SingleHopParams& params,
               const SimOptions& options)
      : params_(params),
        options_(options),
        mech_(mechanisms(kind)),
        sim_(options.event_queue),
        rng_channel_(options.seed, rng::kSessionChannel),
        rng_sender_(options.seed, rng::kSessionSender),
        rng_receiver_(options.seed, rng::kSessionReceiver),
        rng_lifecycle_(options.seed, rng::kSessionLifecycle),
        rng_failure_(options.seed, rng::kSessionFailure),
        link_{params.loss_config(),
              sim::DelayConfig{options.delay_model, params.delay,
                               options.delay_shape}},
        forward_(sim_, rng_channel_, link_,
                 [this](const Message& m) { receiver_->handle(m); }),
        reverse_(sim_, rng_channel_, link_,
                 [this](const Message& m) { sender_->handle(m); }) {
    params_.validate();
    if (options_.crash_fraction < 0.0 || options_.crash_fraction > 1.0) {
      throw std::invalid_argument("SimOptions: crash_fraction must be in [0, 1]");
    }
    if (options_.crash_detection_delay < 0.0) {
      throw std::invalid_argument(
          "SimOptions: crash_detection_delay must be >= 0");
    }
    if (options_.retrans_backoff < 1.0) {
      throw std::invalid_argument("SimOptions: retrans_backoff must be >= 1");
    }
    if (options_.lifetime_dist == LifetimeDistribution::kPareto &&
        options_.lifetime_shape <= 1.0) {
      throw std::invalid_argument(
          "SimOptions: Pareto lifetimes need tail index > 1 (finite mean)");
    }
    TimerSettings timers{options.timer_dist, params.refresh_timer,
                         params.timeout_timer, params.retrans_timer};
    timers.backoff = options_.retrans_backoff;
    sender_ = std::make_unique<SenderEngine>(sim_, rng_sender_, mech_, timers,
                                             forward_, [this] { on_change(); });
    receiver_ = std::make_unique<ReceiverEngine>(sim_, rng_receiver_, mech_, timers,
                                                 reverse_, [this] { on_change(); });
    if (options_.trace != nullptr) {
      const auto describe = [](const Message& m) {
        return std::string(to_string(m.type));
      };
      forward_.set_trace(options_.trace, "fwd", describe);
      reverse_.set_trace(options_.trace, "rev", describe);
    }
  }

  SimResult run() {
    start_session();
    if (mech_.external_failure_detector && params_.false_signal_rate > 0.0) {
      schedule_false_signal();
    }
    // The lifecycle keeps scheduling events until the last session absorbs;
    // afterwards only stragglers remain.
    while (completed_ < options_.sessions && sim_.step()) {
    }
    if (completed_ < options_.sessions) {
      throw std::logic_error("single-hop simulation stalled before completing");
    }

    SimResult out;
    out.sessions = completed_;
    out.total_time = end_time_;
    out.messages = forward_.counters().sent + reverse_.counters().sent;
    out.receiver_timeouts = receiver_->timeouts();
    out.crashes = crashes_;
    out.mean_orphan_time = orphan_total_ / static_cast<double>(completed_);
    out.metrics.inconsistency = inconsistent_.mean(end_time_);
    out.metrics.session_length = end_time_ / static_cast<double>(completed_);
    out.metrics.raw_message_rate =
        end_time_ > 0.0 ? static_cast<double>(out.messages) / end_time_ : 0.0;
    // M-bar = (messages per session) * lambda_r, mirroring Eq. (2).
    out.metrics.message_rate = static_cast<double>(out.messages) /
                               static_cast<double>(completed_) *
                               params_.removal_rate;
    return out;
  }

 private:
  void start_session() {
    ++epoch_;
    sender_removed_ = false;
    sender_->begin_epoch(epoch_);
    receiver_->begin_epoch(epoch_);
    sender_->install(++version_);
    schedule_update();
    removal_event_ = sim_.schedule_in(
        draw_lifetime(), [this] {
          removal_event_.reset();
          sender_removed_ = true;
          removal_time_ = sim_.now();
          if (rng_lifecycle_.bernoulli(options_.crash_fraction)) {
            ++crashes_;
            trace_session("crash");
            sender_->crash();
            // The hard-state external detector eventually notices the
            // crash and tells the receiver to drop the orphaned state.
            if (mech_.external_failure_detector) {
              const std::uint64_t epoch = epoch_;
              sim_.schedule_in(
                  rng_lifecycle_.exponential(options_.crash_detection_delay),
                  [this, epoch] {
                    if (epoch == epoch_) receiver_->external_removal_signal();
                  });
            }
          } else {
            trace_session("remove");
            sender_->remove();
          }
          check_absorption();
        });
    trace_session("start");
    on_change();
  }

  double draw_lifetime() {
    const double mean = params_.mean_lifetime();
    switch (options_.lifetime_dist) {
      case LifetimeDistribution::kExponential:
        return rng_lifecycle_.exponential(mean);
      case LifetimeDistribution::kPareto:
        return rng_lifecycle_.pareto_with_mean(options_.lifetime_shape, mean);
      case LifetimeDistribution::kLognormal:
        return rng_lifecycle_.lognormal_with_mean(mean, options_.lifetime_shape);
    }
    return rng_lifecycle_.exponential(mean);
  }

  void trace_session(const char* what) {
    if (options_.trace != nullptr) {
      options_.trace->record(sim_.now(), sim::TraceCategory::kSession,
                             std::string(what) + " #" + std::to_string(epoch_));
    }
  }

  void schedule_update() {
    if (params_.update_rate <= 0.0) return;
    update_event_ = sim_.schedule_in(
        rng_lifecycle_.exponential(1.0 / params_.update_rate), [this] {
          update_event_.reset();
          if (!sender_removed_ && sender_->value()) {
            sender_->update(++version_);
          }
          schedule_update();
        });
  }

  void schedule_false_signal() {
    sim_.schedule_in(rng_failure_.exponential(1.0 / params_.false_signal_rate),
                     [this] {
                       receiver_->external_removal_signal();
                       schedule_false_signal();
                     });
  }

  void on_change() {
    const bool consistent = sender_->value() == receiver_->value();
    inconsistent_.set(sim_.now(), consistent ? 0.0 : 1.0);
    check_absorption();
  }

  void check_absorption() {
    if (!sender_removed_ || receiver_->value()) return;
    // Both ends are empty: the session is absorbed (the model's (0,0)).
    ++completed_;
    end_time_ = sim_.now();
    orphan_total_ += sim_.now() - removal_time_;
    trace_session("absorbed");
    sender_removed_ = false;
    sim_.cancel_timer(update_event_);
    sim_.cancel_timer(removal_event_);
    sender_->reset();
    receiver_->reset();
    if (completed_ < options_.sessions) {
      // Renewal: the next session starts immediately (merged (0,0)/(1,0)1).
      sim_.schedule_in(0.0, [this] { start_session(); });
    }
  }

  SingleHopParams params_;
  SimOptions options_;
  MechanismSet mech_;

  sim::Simulator sim_;
  sim::Rng rng_channel_;
  sim::Rng rng_sender_;
  sim::Rng rng_receiver_;
  sim::Rng rng_lifecycle_;
  sim::Rng rng_failure_;
  sim::LinkConfig link_;  ///< both channels borrow it
  MessageChannel forward_;
  MessageChannel reverse_;
  std::unique_ptr<SenderEngine> sender_;
  std::unique_ptr<ReceiverEngine> receiver_;

  sim::TimeWeightedValue inconsistent_;
  sim::EventId update_event_;
  sim::EventId removal_event_;
  bool sender_removed_ = false;
  std::uint64_t epoch_ = 0;
  std::int64_t version_ = 0;
  std::size_t completed_ = 0;
  std::size_t crashes_ = 0;
  double end_time_ = 0.0;
  double removal_time_ = 0.0;
  double orphan_total_ = 0.0;
};

}  // namespace

SimResult run_single_hop(ProtocolKind kind, const SingleHopParams& params,
                         const SimOptions& options) {
  if (options.sessions == 0) {
    throw std::invalid_argument("run_single_hop: sessions must be > 0");
  }
  SingleHopRun run(kind, params, options);
  return run.run();
}

ReplicatedResult run_single_hop_replicated(ProtocolKind kind,
                                           const SingleHopParams& params,
                                           const SimOptions& options,
                                           std::size_t replications) {
  if (replications == 0) {
    throw std::invalid_argument("run_single_hop_replicated: need >= 1 replication");
  }
  sim::RunningStats inconsistency;
  sim::RunningStats message_rate;
  for (std::size_t r = 0; r < replications; ++r) {
    SimOptions rep = options;
    rep.seed = options.seed + r;
    const SimResult result = run_single_hop(kind, params, rep);
    inconsistency.add(result.metrics.inconsistency);
    message_rate.add(result.metrics.message_rate);
  }
  ReplicatedResult out;
  out.inconsistency = sim::confidence_interval_95(inconsistency);
  out.message_rate = sim::confidence_interval_95(message_rate);
  out.replications = replications;
  return out;
}

}  // namespace sigcomp::protocols
