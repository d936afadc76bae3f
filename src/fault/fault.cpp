#include "fault/fault.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace planaria::fault {

const char* fault_class_name(FaultClass fault_class) {
  switch (fault_class) {
    case FaultClass::kTraceCorruption: return "trace-corruption";
    case FaultClass::kSlpPatternFlip: return "slp-pattern-flip";
    case FaultClass::kTlpPatternFlip: return "tlp-pattern-flip";
    case FaultClass::kPrefetchDrop: return "prefetch-drop";
    case FaultClass::kPrefetchDelay: return "prefetch-delay";
    case FaultClass::kDramStall: return "dram-stall";
    case FaultClass::kCount: break;
  }
  return "unknown";
}

bool FaultPlan::any_enabled() const {
  for (double r : rate) {
    if (r > 0.0) return true;
  }
  return false;
}

void FaultPlan::validate() const {
  for (int c = 0; c < kFaultClassCount; ++c) {
    if (rate[c] < 0.0 || rate[c] > 1.0) {
      throw std::invalid_argument(
          std::string("fault plan: rate for ") +
          fault_class_name(static_cast<FaultClass>(c)) +
          " must be within [0, 1]");
    }
  }
  if (enabled(FaultClass::kDramStall) && dram_stall_cycles == 0) {
    throw std::invalid_argument(
        "fault plan: dram_stall_cycles must be positive when armed");
  }
  if (enabled(FaultClass::kPrefetchDelay) && prefetch_delay_cycles == 0) {
    throw std::invalid_argument(
        "fault plan: prefetch_delay_cycles must be positive when armed");
  }
}

FaultPlan FaultPlan::single(FaultClass fault_class, double rate,
                            std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rate[static_cast<int>(fault_class)] = rate;
  return plan;
}

FaultPlan FaultPlan::for_session(std::uint64_t session_id) const {
  FaultPlan derived = *this;
  // splitmix64 finalizer over (seed, id). The +1 keeps session 0 from
  // degenerating to the fleet seed itself.
  derived.seed =
      splitmix_finalize(seed ^ ((session_id + 1) * 0x9E3779B97F4A7C15ull));
  return derived;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t stream)
    : plan_(plan) {
  plan_.validate();
  // Distinct 64-bit preseeds per (stream, class, decision|aux); the Rng's
  // splitmix expansion decorrelates adjacent preseeds.
  const std::uint64_t base = plan_.seed ^ (stream * 0x9E3779B97F4A7C15ull);
  for (int c = 0; c < kFaultClassCount; ++c) {
    decision_[c] = Rng(base + static_cast<std::uint64_t>(2 * c + 1));
    aux_[c] = Rng(base + static_cast<std::uint64_t>(2 * c + 2));
  }
}

bool FaultInjector::roll(FaultClass fault_class) {
  const int c = static_cast<int>(fault_class);
  const double rate = plan_.rate[c];
  if (rate <= 0.0) return false;  // disabled classes consume no randomness
  return decision_[c].chance(rate);
}

void FaultInjector::save_state(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("FLT0"));
  for (int c = 0; c < kFaultClassCount; ++c) {
    for (std::uint64_t word : decision_[c].state()) w.u64(word);
    for (std::uint64_t word : aux_[c].state()) w.u64(word);
    w.u64(injected_[c]);
  }
}

void FaultInjector::load_state(snapshot::Reader& r) {
  r.expect_tag(snapshot::tag4("FLT0"));
  for (int c = 0; c < kFaultClassCount; ++c) {
    std::array<std::uint64_t, 4> state{};
    for (std::uint64_t& word : state) word = r.u64();
    decision_[c].set_state(state);
    for (std::uint64_t& word : state) word = r.u64();
    aux_[c].set_state(state);
    injected_[c] = r.u64();
  }
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : injected_) total += n;
  return total;
}

}  // namespace planaria::fault
