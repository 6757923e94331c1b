#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sigcomp::sim {

namespace {

std::variant<EventQueue, TimingWheelQueue> make_queue(
    EventQueueBackend backend) {
  if (backend == EventQueueBackend::kWheel) {
    return std::variant<EventQueue, TimingWheelQueue>{
        std::in_place_type<TimingWheelQueue>};
  }
  return std::variant<EventQueue, TimingWheelQueue>{
      std::in_place_type<EventQueue>};
}

}  // namespace

const char* to_string(EventQueueBackend backend) noexcept {
  return backend == EventQueueBackend::kWheel ? "wheel" : "heap";
}

std::optional<EventQueueBackend> parse_event_queue_backend(
    std::string_view name) noexcept {
  if (name == "heap") return EventQueueBackend::kHeap;
  if (name == "wheel") return EventQueueBackend::kWheel;
  return std::nullopt;
}

Simulator::Simulator(EventQueueBackend backend) : queue_(make_queue(backend)) {}

EventId Simulator::schedule_at(Time t, EventCallback action) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  return std::visit(
      [&](auto& queue) { return queue.push(t, std::move(action)); }, queue_);
}

EventId Simulator::schedule_in(Time delay, EventCallback action) {
  if (delay < 0.0) delay = 0.0;
  const Time t = now_ + delay;
  return std::visit(
      [&](auto& queue) { return queue.push(t, std::move(action)); }, queue_);
}

void Simulator::set_arrivals(std::span<const Time> times,
                             std::function<void(std::uint32_t)> on_arrival) {
  if (arrival_pending()) {
    throw std::logic_error("Simulator::set_arrivals: arrivals still pending");
  }
  if (times.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "Simulator::set_arrivals: more than 2^32 - 1 arrivals");
  }
  for (const Time t : times) {
    if (!std::isfinite(t) || t < now_) {
      throw std::invalid_argument(
          "Simulator::set_arrivals: arrival time in the past or not finite");
    }
  }
  arrival_order_.resize(times.size());
  std::iota(arrival_order_.begin(), arrival_order_.end(), std::uint32_t{0});
  std::sort(arrival_order_.begin(), arrival_order_.end(),
            [times](std::uint32_t a, std::uint32_t b) {
              return times[a] != times[b] ? times[a] < times[b] : a < b;
            });
  arrival_times_ = times;
  next_arrival_ = 0;
  on_arrival_ = std::move(on_arrival);
}

bool Simulator::step() {
  // The callback may re-enter the simulator (scheduling is the common
  // case), but it never changes the variant's alternative, so running it
  // inside the visit is safe.
  constexpr Time kNoLimit = std::numeric_limits<Time>::infinity();
  return std::visit(
      [this](auto& queue) {
        return execute_due(queue, kNoLimit, /*strict_queue=*/false);
      },
      queue_);
}

void Simulator::run_until(Time t) {
  std::visit(
      [this, t](auto& queue) {
        while (execute_due(queue, t, /*strict_queue=*/false)) {
        }
      },
      queue_);
  if (t > now_) now_ = t;
}

void Simulator::run(std::uint64_t max_events) {
  while (executed_ < max_events && step()) {
  }
}

}  // namespace sigcomp::sim
