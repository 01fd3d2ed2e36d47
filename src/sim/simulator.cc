#include "sim/simulator.h"

namespace sbft::sim {

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

void Simulator::RunUntil(SimTime deadline) {
  stopped_ = false;
  SimTime next;
  while (!stopped_ && PeekTime(&next) && next <= deadline) {
    Step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::RunToCompletion() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void Simulator::DropStale() {
  std::erase_if(heap_, [this](const HeapEntry& e) { return Stale(e); });
  stale_ = 0;
  // Floyd's bottom-up build: sift down every parent, last one first.
  if (heap_.size() < 2) return;
  for (size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    SiftDown(i, heap_[i]);
  }
}

uint64_t Simulator::ExecuteWindow(SimTime limit) {
  uint64_t executed = 0;
  SimTime next;
  while (PeekTime(&next) && next < limit) {
    Step();
    ++executed;
  }
  return executed;
}

}  // namespace sbft::sim
