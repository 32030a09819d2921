#include "sim/sim_context.hpp"

namespace speedlight::sim {

namespace {
// The active context is genuinely per OS thread (each thread runs its own
// simulations), so a thread_local pointer is the correct mechanism, not a
// hazard.
thread_local SimContext* tl_current = nullptr;
}  // namespace

std::atomic<std::size_t> SimContext::next_slot_{0};

SimContext::~SimContext() {
  for (Slot& s : slots_) {
    if (s.obj != nullptr) s.destroy(s.obj);
  }
}

SimContext& SimContext::current() noexcept {
  if (tl_current == nullptr) {
    // Threads that never installed a context fall back to a per-thread
    // default one.
    static thread_local SimContext default_ctx;
    tl_current = &default_ctx;
  }
  return *tl_current;
}

SimContext::Scoped::Scoped(SimContext& ctx) noexcept : prev_(tl_current) {
  tl_current = &ctx;
}

SimContext::Scoped::~Scoped() { tl_current = prev_; }

}  // namespace speedlight::sim
