#include "sim/server.h"

#include <cassert>
#include <utility>

namespace sbft::sim {

ServerResource::ServerResource(Simulator* sim, int cores)
    : sim_(sim), cores_(cores) {
  assert(cores >= 1);
}

void ServerResource::Submit(SimDuration cost, std::function<void()> done) {
  if (cost < 0) cost = 0;
  Job job{cost, std::move(done)};
  if (busy_ < cores_) {
    StartJob(std::move(job));
  } else {
    pending_.push_back(std::move(job));
  }
}

void ServerResource::StartJob(Job job) {
  ++busy_;
  busy_time_ += job.cost;
  // The completion callback moves into the event, which holds it inline.
  sim_->Schedule(job.cost, [this, done = std::move(job.done)]() {
    done();
    FinishJob();
  });
}

void ServerResource::FinishJob() {
  --busy_;
  ++completed_;
  if (!pending_.empty() && busy_ < cores_) {
    Job next = std::move(pending_.front());
    pending_.pop_front();
    StartJob(std::move(next));
  }
}

}  // namespace sbft::sim
