#include "sim/simulator.hpp"

#include "sim/determinism.hpp"

namespace speedlight::sim {

std::size_t Simulator::run_until(SimTime until) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto [time, seq, fn] = queue_.pop();
    now_ = time;
    det::EventScope audit(time, seq);
    fn();
    ++executed;
  }
  stats_.executed += executed;
  // Even when nothing remains to execute, time advances to the horizon so
  // back-to-back run_until() calls behave like one continuous run.
  if (until != std::numeric_limits<SimTime>::max() && now_ < until) {
    now_ = until;
  }
  return executed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [time, seq, fn] = queue_.pop();
  now_ = time;
  det::EventScope audit(time, seq);
  fn();
  ++stats_.executed;
  return true;
}

}  // namespace speedlight::sim
