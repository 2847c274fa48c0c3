// Simulated exclusive resources (NICs, AM server threads, fabric bisection).
//
// A FifoResource models a single server with a work-conserving FIFO queue:
// each request occupies the server for a caller-supplied service time, and
// the completion callback fires on the engine when the request finishes.
// This is how per-rank NIC injection bandwidth, the MADNESS backend's
// active-message server thread, and the global fabric bisection capacity
// are all modeled.
//
// submit() is a template so the completion closure converts to EventFn at
// the engine boundary — inside the engine's arena-aware at() — rather than
// through a std::function hop that would heap-allocate capture-heavy
// callbacks on the hot path.
#pragma once

#include <string>
#include <utility>

#include "sim/engine.hpp"

namespace ttg::sim {

/// Single-server FIFO queue over virtual time.
class FifoResource {
 public:
  FifoResource(Engine& engine, std::string name);

  /// Occupy the server for `service_time` seconds (queued after earlier
  /// requests); calls `on_done` on completion. Returns the completion time.
  template <class F>
  Time submit(Time service_time, F&& on_done) {
    const Time done = reserve(service_time);
    engine_.at(done, std::forward<F>(on_done));
    return done;
  }

  /// Time at which the server next becomes free.
  [[nodiscard]] Time free_at() const { return free_at_; }

  /// Total busy seconds accumulated (utilization accounting).
  [[nodiscard]] Time busy_time() const { return busy_; }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  /// Queue one request: advance the server's busy horizon and return the
  /// completion time (the non-template half of submit()).
  Time reserve(Time service_time);

  Engine& engine_;
  std::string name_;
  Time free_at_ = 0.0;
  Time busy_ = 0.0;
};

}  // namespace ttg::sim
