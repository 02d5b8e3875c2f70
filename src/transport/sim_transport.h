// The discrete-event backend: a zero-cost adapter from Transport onto
// sim::Simulation. One logical event loop, virtual time, and exactly the
// schedule() calls the Network made before the Transport seam existed, so
// same-seed runs stay byte-identical with the pre-transport engine.
#pragma once

#include "sim/simulation.h"
#include "transport/transport.h"

namespace p2pdrm::transport {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(sim::Simulation& sim) : sim_(sim) {}

  util::SimTime now() const override { return sim_.now(); }
  TimerId post(std::size_t group, util::SimTime delay, Task task) override {
    (void)group;  // one loop: group confinement is trivial
    sim_.schedule(delay, std::move(task));
    return {};
  }
  void release(std::size_t, TimerId) override {}
  std::size_t groups() const override { return 1; }
  bool live() const override { return false; }
  void run_until(util::SimTime t) override { sim_.run_until(t); }
  void shutdown() override {}

  sim::Simulation& sim() { return sim_; }

 private:
  sim::Simulation& sim_;
};

}  // namespace p2pdrm::transport
