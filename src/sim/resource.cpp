#include "sim/resource.hpp"

#include <algorithm>

namespace ttg::sim {

FifoResource::FifoResource(Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

Time FifoResource::reserve(Time service_time) {
  TTG_CHECK(service_time >= 0.0, "negative service time");
  const Time start = std::max(engine_.now(), free_at_);
  const Time done = start + service_time;
  free_at_ = done;
  busy_ += service_time;
  return done;
}

}  // namespace ttg::sim
