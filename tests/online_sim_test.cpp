#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "grid/box.h"
#include "online/capacity_search.h"
#include "online/fleet_core.h"
#include "online/simulation.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "workload/generators.h"

namespace cmvrp {
namespace {

OnlineConfig small_config(double capacity, std::int64_t side = 4,
                          std::uint64_t seed = 1) {
  OnlineConfig c;
  c.capacity = capacity;
  c.cube_side = side;
  c.anchor = Point{0, 0};
  c.seed = seed;
  return c;
}

// --- event queue / network substrate ----------------------------------------

TEST(EventQueue, FiresInTimeThenInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(2); });
  q.schedule(1, [&] { order.push_back(0); });
  q.schedule(5, [&] { order.push_back(3); });
  q.schedule(2, [&] { order.push_back(1); });
  q.run_to_quiescence();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 5);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(10, [] {});
  q.step();
  EXPECT_THROW(q.schedule(5, [] {}), check_error);
}

TEST(EventQueue, DetectsLivelock) {
  EventQueue q;
  std::function<void()> reschedule = [&] {
    q.schedule_after(1, reschedule);
  };
  q.schedule(0, reschedule);
  EXPECT_THROW(q.run_to_quiescence(1000), check_error);
}

// Runs EventQueue against a reference (time, seq) binary heap kept here.
// Every schedule goes to both; each step pops the reference minimum and
// requires the queue to fire that very event at that time, with the same
// pending/empty/processed bookkeeping. Delays reach 10x the near-tier
// width, so both tiers fill, and handlers schedule while step() runs.
class EventQueueDifferential {
 public:
  explicit EventQueueDifferential(std::uint64_t seed) : rng_(seed) {}

  // Schedules event `id` at `at` on both queues; `children` more events
  // are scheduled from inside its handler when it fires.
  void schedule(SimTime at, int children) {
    const std::size_t id = next_id_++;
    ref_.push({at, id});
    q_.schedule(at, [this, id, children] {
      fired_.push_back(id);
      for (int c = 0; c < children; ++c) spawn();
    });
  }

  // A child with a mostly short delay (message-like: 0..4 ticks) and
  // sometimes a long one (0..10x the near-tier width).
  void spawn() {
    if (next_id_ >= kMaxEvents) return;
    const SimTime far = 10 * EventQueue::kNearTicks;
    const SimTime delay = rng_.next_bool(0.7)
                              ? rng_.next_int(0, 4)
                              : rng_.next_int(0, far);
    schedule(q_.now() + delay, static_cast<int>(rng_.next_int(0, 2)));
  }

  // Same-tick ties between the tiers: an event scheduled exactly
  // kNearTicks ahead goes to the far tier; once the clock has moved one
  // tick, more events at that tick go to the bucket and must fire after it.
  void schedule_tier_ties() {
    const SimTime t = q_.now() + EventQueue::kNearTicks;
    schedule(t, 0);
    const std::size_t id = next_id_++;
    ref_.push({q_.now() + 1, id});
    q_.schedule(q_.now() + 1, [this, id, t] {
      fired_.push_back(id);
      schedule(t, 1);
      schedule(t, 0);
    });
  }

  // Steps both queues to quiescence, checking every step.
  void drain() {
    while (!ref_.empty()) {
      ASSERT_FALSE(q_.empty());
      ASSERT_EQ(q_.pending(), ref_.size());
      const Ref expect = ref_.top();
      ref_.pop();
      const std::uint64_t before = q_.processed();
      ASSERT_TRUE(q_.step());
      ASSERT_EQ(q_.processed(), before + 1);
      ASSERT_FALSE(fired_.empty());
      ASSERT_EQ(fired_.back(), expect.id) << "at t=" << expect.at;
      ASSERT_EQ(q_.now(), expect.at);
      ASSERT_EQ(q_.pending(), ref_.size());
    }
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(q_.pending(), 0u);
    EXPECT_FALSE(q_.step());
    EXPECT_EQ(q_.processed(), next_id_);
  }

  EventQueue& queue() { return q_; }

 private:
  static constexpr std::size_t kMaxEvents = 20000;
  // Ids are handed out in schedule order, i.e. they are the seq numbers.
  struct Ref {
    SimTime at;
    std::size_t id;
    bool operator>(const Ref& o) const {
      return std::tie(at, id) > std::tie(o.at, o.id);
    }
  };

  Rng rng_;
  EventQueue q_;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref_;
  std::vector<std::size_t> fired_;
  std::size_t next_id_ = 0;
};

TEST(EventQueue, MatchesReferenceHeapOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    EventQueueDifferential diff(seed);
    for (int i = 0; i < 40; ++i) diff.spawn();
    diff.schedule_tier_ties();
    diff.drain();
    // Restart from a clock far from zero: buckets wrap around the ring.
    const SimTime base = diff.queue().now() + 1000;
    diff.schedule(base, 3);
    diff.schedule_tier_ties();
    diff.schedule(base, 2);
    diff.drain();
  }
}

TEST(Network, ChannelsAreFifo) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EventQueue q;
    Network net(q, Rng(seed), /*max_delay=*/7);
    std::vector<std::uint64_t> received;
    net.set_receiver([&](std::size_t, std::size_t, const Message& m) {
      received.push_back(std::get<ReplyMsg>(m).init.seq);
    });
    for (std::uint64_t i = 0; i < 30; ++i)
      net.send(0, 1, ReplyMsg{true, InitTag{0, i}});
    q.run_to_quiescence();
    ASSERT_EQ(received.size(), 30u);
    EXPECT_TRUE(std::is_sorted(received.begin(), received.end()))
        << "seed " << seed;
  }
}

TEST(Network, CountsByKind) {
  EventQueue q;
  Network net(q, Rng(3), 2);
  net.set_receiver([](std::size_t, std::size_t, const Message&) {});
  net.send(0, 1, QueryMsg{});
  net.send(1, 0, ReplyMsg{});
  net.send(0, 2, MoveMsg{Point{0, 0}, kNoInit});
  net.send(2, 0, ExistingMsg{});
  q.run_to_quiescence();
  EXPECT_EQ(net.stats().queries, 1u);
  EXPECT_EQ(net.stats().replies, 1u);
  EXPECT_EQ(net.stats().moves, 1u);
  EXPECT_EQ(net.stats().heartbeats, 1u);
  EXPECT_EQ(net.stats().total(), 4u);
}

// --- basic serving ------------------------------------------------------------

TEST(OnlineSim, ServesSingleJobInPlace) {
  OnlineSimulation sim(2, small_config(10.0));
  // Job lands on a primary vertex: its own active vehicle serves at cost 1.
  std::vector<Job> jobs{{Point{0, 0}, 0}};
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 1u);
  EXPECT_EQ(sim.metrics().jobs_failed, 0u);
  EXPECT_DOUBLE_EQ(sim.metrics().max_energy_spent, 1.0);
}

TEST(OnlineSim, PartnerVertexServedByPairActive) {
  OnlineSimulation sim(2, small_config(10.0));
  const auto& pairing = sim.pairing();
  // Find a non-primary vertex in the first cube.
  Point secondary = Point{0, 0};
  Box::cube(Point{0, 0}, 4).for_each_point([&](const Point& p) {
    if (!pairing.is_primary(p)) secondary = p;
  });
  ASSERT_FALSE(pairing.is_primary(secondary));
  std::vector<Job> jobs{{secondary, 0}};
  EXPECT_TRUE(sim.run(jobs));
  // One walk (1) + one service (1).
  EXPECT_DOUBLE_EQ(sim.metrics().max_energy_spent, 2.0);
  EXPECT_EQ(sim.metrics().total_travel, 1u);
}

TEST(OnlineSim, ManyJobsNoReplacementNeededUnderLightLoad) {
  OnlineSimulation sim(2, small_config(100.0));
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back({Point{1, 1}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().replacements, 0u);
  EXPECT_EQ(sim.metrics().computations_started, 0u);
}

// --- diffusing computation & replacement ------------------------------------

TEST(OnlineSim, ExhaustedVehicleIsReplacedByIdlePartnerPool) {
  // Capacity 6: after ~5 services at one vertex the vehicle declares done
  // (remaining < 2) and a diffusing computation must find an idle vehicle.
  OnlineSimulation sim(2, small_config(6.0));
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 10u);
  EXPECT_GE(sim.metrics().computations_started, 1u);
  EXPECT_GE(sim.metrics().replacements, 1u);
  EXPECT_GT(sim.metrics().network.queries, 0u);
  EXPECT_GT(sim.metrics().network.replies, 0u);
  EXPECT_GT(sim.metrics().network.moves, 0u);
}

TEST(OnlineSim, ReplacementChainSurvivesManyExhaustions) {
  // Heavy point demand cycles through many replacements; a 6x6 cube has 18
  // idle vehicles to recruit, each arriving with capacity minus travel.
  OnlineSimulation sim(2, small_config(8.0, /*side=*/6));
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back({Point{2, 2}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 40u);
  EXPECT_GE(sim.metrics().replacements, 5u);
}

TEST(OnlineSim, PointDemandBeyondReachableEnergyFailsGracefully) {
  // The same cube cannot serve 60 point jobs at capacity 6: recruited
  // idle vehicles burn most of their energy traveling. The simulation
  // must report failure (never serve beyond physical energy), not hang.
  OnlineSimulation sim(2, small_config(6.0, /*side=*/6));
  std::vector<Job> jobs;
  for (int i = 0; i < 60; ++i) jobs.push_back({Point{2, 2}, i});
  EXPECT_FALSE(sim.run(jobs));
  const auto& m = sim.metrics();
  EXPECT_EQ(m.jobs_served + m.jobs_failed, 60u);
  // Served work is bounded by total spendable energy in the cube.
  EXPECT_LE(m.total_energy_spent, 36.0 * 6.0 + 1e-9);
}

TEST(OnlineSim, FailsWhenCubeExhausted) {
  // Tiny cube (4 vehicles) and much demand: eventually no idle vehicles
  // remain and jobs must fail — reported, not thrown.
  OnlineSimulation sim(2, small_config(4.0, /*side=*/2));
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_FALSE(sim.run(jobs));
  EXPECT_GT(sim.metrics().jobs_failed, 0u);
  EXPECT_GT(sim.metrics().computations_failed, 0u);
}

TEST(OnlineSim, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    OnlineSimulation sim(2, small_config(6.0, 4, seed));
    std::vector<Job> jobs;
    for (int i = 0; i < 20; ++i) jobs.push_back({Point{i % 3, i % 2}, i});
    sim.run(jobs);
    return sim.metrics();
  };
  const auto a = run_once(42), b = run_once(42), c = run_once(43);
  EXPECT_EQ(a.network.total(), b.network.total());
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_DOUBLE_EQ(a.max_energy_spent, b.max_energy_spent);
  // Different seed still serves everything (delays only affect ordering).
  EXPECT_EQ(c.jobs_served, a.jobs_served);
}

TEST(OnlineSim, MessageDelaysDoNotChangeServiceOutcome) {
  for (SimTime delay : {0, 1, 5, 17}) {
    OnlineConfig cfg = small_config(6.0, 4, 7);
    cfg.max_message_delay = delay;
    OnlineSimulation sim(2, cfg);
    std::vector<Job> jobs;
    for (int i = 0; i < 15; ++i) jobs.push_back({Point{0, 0}, i});
    EXPECT_TRUE(sim.run(jobs)) << "delay " << delay;
    EXPECT_EQ(sim.metrics().jobs_served, 15u);
  }
}

TEST(OnlineSim, DiffusingComputationMessageComplexityBounded) {
  // Each Phase I computation floods one cube: queries are bounded by
  // (#vehicles in cube) x (max degree at radius 2) and every query gets
  // exactly one reply. Check the aggregate bound over a heavy run.
  const std::int64_t side = 5;
  OnlineSimulation sim(2, small_config(6.0, side));
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back({Point{2, 2}, i});
  sim.run(jobs);
  const auto& m = sim.metrics();
  ASSERT_GT(m.computations_started, 0u);
  const std::uint64_t cube_vehicles =
      static_cast<std::uint64_t>(side * side);
  const std::uint64_t max_degree = 12;  // |N_2| - 1 in 2-D
  EXPECT_LE(m.network.queries,
            m.computations_started * cube_vehicles * max_degree);
  EXPECT_EQ(m.network.replies, m.network.queries);  // one reply per query
  EXPECT_LE(m.network.moves,
            m.replacements + m.computations_started * cube_vehicles);
}

TEST(OnlineSim, EveryReplacementHasAComputation) {
  OnlineSimulation sim(2, small_config(6.0, 6));
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) jobs.push_back({Point{1, 1}, i});
  sim.run(jobs);
  const auto& m = sim.metrics();
  EXPECT_LE(m.replacements, m.computations_started);
  EXPECT_EQ(m.computations_started,
            m.replacements + m.computations_failed);
}

// --- failure scenarios (§3.2.5) ----------------------------------------------

TEST(OnlineSim, SilentDoneVehicleIsRescuedByMonitoringRing) {
  OnlineConfig cfg = small_config(6.0);
  OnlineSimulation sim(2, cfg);
  sim.inject_silent_done(Point{0, 0});
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 12u);
  EXPECT_GE(sim.metrics().monitor_initiations, 1u);  // the ring stepped in
  EXPECT_GT(sim.metrics().network.heartbeats, 0u);
}

TEST(OnlineSim, SilentDoneWithoutMonitoringLosesJobs) {
  OnlineConfig cfg = small_config(6.0);
  cfg.enable_monitoring = false;
  OnlineSimulation sim(2, cfg);
  sim.inject_silent_done(Point{0, 0});
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_FALSE(sim.run(jobs));
  EXPECT_GT(sim.metrics().jobs_failed, 0u);
}

TEST(OnlineSim, BrokenActiveVehicleIsReplaced) {
  OnlineConfig cfg = small_config(20.0);
  OnlineSimulation sim(2, cfg);
  // Vehicle at (0,0) breaks after spending 20% of its capacity.
  sim.inject_break_after(Point{0, 0}, 0.2);
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 12u);
  EXPECT_GE(sim.metrics().monitor_initiations, 1u);
  const Vehicle* broken = sim.vehicle_at_home(Point{0, 0});
  ASSERT_NE(broken, nullptr);
  EXPECT_TRUE(broken->dead);
  EXPECT_LE(broken->spent(), 0.2 * 20.0 + 2.0);  // stopped promptly
}

TEST(OnlineSim, ZeroLongevityVehicleReplacedBeforeFirstJob) {
  // p_i = 0 vehicles are dead from the start; the periodic heartbeat round
  // detects this before the first arrival, so no job is lost.
  OnlineConfig cfg = small_config(20.0);
  OnlineSimulation sim(2, cfg);
  sim.inject_break_after(Point{0, 0}, 0.0);
  std::vector<Job> jobs{{Point{0, 0}, 0}, {Point{0, 0}, 1}};
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 2u);
  EXPECT_GE(sim.metrics().monitor_initiations, 1u);
  const Vehicle* v = sim.vehicle_at_home(Point{0, 0});
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->spent(), 0.0);  // the broken vehicle never worked
}

TEST(OnlineSim, ConstantBreakagesToleratedWithModestEnergy) {
  // Scenario 3: a constant number of active vehicles break; the ring
  // replaces them and all jobs are still served.
  OnlineConfig cfg = small_config(12.0, /*side=*/6);
  OnlineSimulation sim(2, cfg);
  sim.inject_break_after(Point{0, 0}, 0.3);
  sim.inject_break_after(Point{2, 2}, 0.3);
  sim.inject_break_after(Point{4, 4}, 0.3);
  Rng rng(5);
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i)
    jobs.push_back({Point{rng.next_int(0, 5), rng.next_int(0, 5)}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 40u);
}

// --- neighbor index -----------------------------------------------------------

// A FleetCore on its own queue and network, as the streaming engine runs it.
struct CoreHarness {
  CoreHarness(int dim, const OnlineConfig& config)
      : network(queue, Rng(config.seed), config.max_message_delay),
        core(dim, config, queue, network) {
    core.bind_network();
  }
  EventQueue queue;
  Network network;
  FleetCore core;
};

// Reference neighbor lookup: scan every vehicle of vid's cube in id order
// and keep the others within L1 radius r of it.
std::vector<std::size_t> member_scan(const FleetCore& core, std::size_t vid,
                                     const std::vector<const Vehicle*>& fleet) {
  const Vehicle& v = *fleet[vid];
  const Box cube = core.pairing().cube_of(v.home);
  std::vector<std::size_t> out;
  for (const Vehicle* o : fleet) {
    if (o->id == vid || !cube.contains(o->home)) continue;
    if (l1_distance(o->pos, v.pos) <= core.config().neighbor_radius)
      out.push_back(o->id);
  }
  return out;
}

// Every materialized vehicle, indexed by id.
std::vector<const Vehicle*> fleet_of(const FleetCore& core,
                                     const std::vector<Point>& corners) {
  std::vector<const Vehicle*> fleet(core.vehicle_count(), nullptr);
  for (const Point& corner : corners) {
    Box::cube(corner, core.pairing().side()).for_each_point(
        [&](const Point& p) {
          const Vehicle* v = core.vehicle_at_home(p);
          fleet[v->id] = v;
        });
  }
  return fleet;
}

// Checks the index lookup for every vehicle; returns how many vehicles
// share their vertex with another vehicle.
std::size_t expect_index_matches_scan(FleetCore& core,
                                      const std::vector<Point>& corners) {
  const auto fleet = fleet_of(core, corners);
  std::size_t colocated = 0;
  for (std::size_t vid = 0; vid < fleet.size(); ++vid) {
    EXPECT_EQ(core.neighbors_of(vid), member_scan(core, vid, fleet))
        << "vehicle " << vid << " at " << fleet[vid]->pos.to_string();
    for (const Vehicle* o : fleet)
      if (o->id != vid && o->pos == fleet[vid]->pos) {
        ++colocated;
        break;
      }
  }
  return colocated;
}

TEST(NeighborIndex, MatchesMemberScanThroughServesAndMoves) {
  for (int dim = 1; dim <= 3; ++dim) {
    for (std::int64_t radius = 0; radius <= 3; ++radius) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " r " << radius);
      OnlineConfig c;
      c.capacity = 7.0;  // a few jobs per vehicle, then a replacement
      c.cube_side = dim == 3 ? 3 : 4;
      c.anchor = Point::origin(dim);
      c.neighbor_radius = radius;
      c.seed = 11 + static_cast<std::uint64_t>(dim * 4 + radius);
      CoreHarness h(dim, c);
      // Two cubes, one on the negative side of the anchor.
      Point a = Point::origin(dim);
      Point b = Point::origin(dim);
      b[0] = -c.cube_side;
      const std::vector<Point> corners{a, b};
      for (const Point& corner : corners) h.core.ensure_cube_at(corner);
      expect_index_matches_scan(h.core, corners);  // fresh index
      Rng rng(c.seed);
      std::size_t colocated = 0;
      for (std::int64_t j = 0; j < 60; ++j) {
        Point p = corners[rng.next_below(2)];
        for (int i = 0; i < dim; ++i) p[i] += rng.next_int(0, c.cube_side - 1);
        h.core.serve_job(Job{p, j});
        h.queue.run_to_quiescence();
        if (j % 7 == 6) h.core.settle();
        colocated += expect_index_matches_scan(h.core, corners);
      }
      // Radius 0 only reaches co-located vehicles, so a flood may find
      // none; otherwise moves must have dirtied the index too.
      if (radius > 0) {
        EXPECT_GT(h.core.metrics().replacements, 0u);
      }
      // A served job moves the active vehicle onto its idle partner, and a
      // replacement lands on its done predecessor's vertex.
      EXPECT_GT(colocated, 0u);
    }
  }
}

TEST(NeighborIndex, CornerAndFaceVehiclesAreClipped) {
  OnlineConfig c;
  c.capacity = 10.0;
  c.cube_side = 4;
  c.anchor = Point{0, 0};
  c.neighbor_radius = 2;
  CoreHarness h(2, c);
  h.core.ensure_cube_at(Point{0, 0});
  h.core.ensure_cube_at(Point{4, 0});  // adjacent cube: never a neighbor
  const auto id = [&](std::int64_t x, std::int64_t y) {
    return h.core.vehicle_at_home(Point{x, y})->id;
  };
  // Corner (0,0): the in-cube part of the radius-2 ball is 6 cells.
  std::vector<std::size_t> corner{id(0, 1), id(0, 2), id(1, 0),
                                  id(1, 1), id(2, 0)};
  std::sort(corner.begin(), corner.end());
  EXPECT_EQ(h.core.neighbors_of(id(0, 0)), corner);
  // Face (3,1): the cube at x >= 4 is out of reach, whatever the radius.
  std::vector<std::size_t> face{id(1, 1), id(2, 0), id(2, 1), id(2, 2),
                                id(3, 0), id(3, 2), id(3, 3)};
  std::sort(face.begin(), face.end());
  EXPECT_EQ(h.core.neighbors_of(id(3, 1)), face);
}

TEST(NeighborIndex, MoveOutsideOwnCubeIsRejected) {
  OnlineConfig c;
  c.capacity = 10.0;
  c.cube_side = 4;
  c.anchor = Point{0, 0};
  CoreHarness h(2, c);
  h.core.ensure_cube_at(Point{0, 0});
  h.core.ensure_cube_at(Point{4, 0});
  // (0,1) hosts an idle vehicle (odd snake index); a move message that
  // would carry it into the neighboring cube must fail the invariant.
  const Vehicle* idle = h.core.vehicle_at_home(Point{0, 1});
  ASSERT_EQ(idle->s1, WorkState::kIdle);
  EXPECT_THROW(h.core.on_message(idle->id, idle->id,
                                 MoveMsg{Point{4, 1}, InitTag{0, 1}}),
               check_error);
  EXPECT_EQ(idle->pos, (Point{0, 1}));
}

// --- capacity search / Theorem 1.4.2 ----------------------------------------

TEST(CapacitySearch, TheoryBoundAlwaysSuffices) {
  Rng rng(11);
  const Box box(Point{0, 0}, Point{7, 7});
  const DemandMap d = uniform_demand(box, 60, rng);
  Rng order_rng(12);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, order_rng);
  const OnlineConfig cfg = default_online_config(d);
  OnlineSimulation sim(2, cfg);
  EXPECT_TRUE(sim.run(jobs));  // Lemma 3.3.1 capacity worked
}

TEST(CapacitySearch, EmpiricalWonBetweenLowerAndTheoremBound) {
  Rng rng(21);
  const Box box(Point{0, 0}, Point{5, 5});
  const DemandMap d = uniform_demand(box, 40, rng);
  Rng order_rng(22);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, order_rng);
  const auto r = find_min_online_capacity(jobs, 2, /*seed=*/1, /*tol=*/0.1);
  EXPECT_GT(r.won_empirical, 0.0);
  EXPECT_LE(r.won_empirical, r.won_theory + 0.1);
  // Won >= Woff >= omega_c up to the unit granularity of serving.
  EXPECT_GE(r.won_empirical + 1e-9, std::min(1.0, r.omega_c));
  EXPECT_GT(r.simulations, 3u);
}

TEST(CapacitySearch, DefaultConfigUsesCubeBound) {
  DemandMap d(2);
  d.set(Point{0, 0}, 45.0);
  const OnlineConfig cfg = default_online_config(d);
  EXPECT_GE(cfg.cube_side, 2);
  EXPECT_GT(cfg.capacity, 0.0);
  EXPECT_EQ(cfg.anchor, (Point{0, 0}));
}

TEST(WonUpperBound, MatchesLemmaFormula) {
  EXPECT_DOUBLE_EQ(won_upper_bound(1.0, 2), 38.0);   // 4·9 + 2
  EXPECT_DOUBLE_EQ(won_upper_bound(2.0, 1), 26.0);   // (4·3 + 1)·2
  EXPECT_DOUBLE_EQ(won_upper_bound(1.0, 3), 111.0);  // 4·27 + 3
}

}  // namespace
}  // namespace cmvrp
