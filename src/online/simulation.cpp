#include "online/simulation.h"

#include "util/check.h"
#include "util/rng.h"

namespace cmvrp {

OnlineSimulation::OnlineSimulation(int dim, const OnlineConfig& config)
    : queue_(),
      network_(queue_, Rng(config.seed), config.max_message_delay),
      core_(dim, config, queue_, network_) {}

void OnlineSimulation::inject_silent_done(const Point& home) {
  core_.inject_silent_done(home);
}

void OnlineSimulation::inject_break_after(const Point& home,
                                          double longevity) {
  core_.inject_break_after(home, longevity);
}

bool OnlineSimulation::run(const std::vector<Job>& jobs) {
  // The fleet exists everywhere from t = 0; lazy cube creation is only an
  // optimization, so materialize every cube the stream will touch before
  // the first heartbeat round.
  for (const auto& job : jobs) core_.ensure_cube_at(job.position);
  // Heartbeats are periodic and independent of job arrivals (§3.2.5), so
  // vehicles broken from the start are detected before the first job.
  const bool monitoring = core_.config().enable_monitoring;
  if (monitoring && !jobs.empty()) {
    core_.monitor_sweep();
    network_.run_to_quiescence();
  }
  // Monitoring settles every `monitor_stride` arrivals (1 = after each,
  // the historical cadence), with a catch-up settle after the last job so
  // trailing failures are still detected and replaced.
  std::int64_t since_settle = 0;
  for (const auto& job : jobs) {
    core_.serve_job(job);
    network_.run_to_quiescence();
    if (monitoring && ++since_settle >= core_.config().monitor_stride) {
      // A replacement can itself break; sweep until stable (bounded).
      core_.settle();
      since_settle = 0;
    }
  }
  if (monitoring && since_settle > 0) core_.settle();
  core_.finalize_metrics();
  return core_.metrics().jobs_failed == 0;
}

}  // namespace cmvrp
