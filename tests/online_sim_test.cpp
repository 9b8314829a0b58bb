#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iomanip>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "grid/box.h"
#include "online/capacity_search.h"
#include "online/fleet_core.h"
#include "online/simulation.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "stream/engine.h"
#include "util/digest.h"
#include "util/hash.h"
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

// A calendar record tagged with a test id (carried in init.seq).
Delivery tagged(std::uint64_t id) {
  Delivery d;
  d.init.seq = id;
  return d;
}

std::vector<std::uint64_t> drain_ids(EventQueue& q) {
  std::vector<std::uint64_t> ids;
  for (Delivery d; q.pop(d);) ids.push_back(d.init.seq);
  return ids;
}

TEST(EventQueue, FiresInTimeThenInsertionOrder) {
  EventQueue q;
  q.schedule(5, tagged(2));
  q.schedule(1, tagged(0));
  q.schedule(5, tagged(3));
  q.schedule(2, tagged(1));
  EXPECT_EQ(drain_ids(q), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 5);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(10, tagged(0));
  Delivery d;
  ASSERT_TRUE(q.pop(d));
  EXPECT_THROW(q.schedule(5, tagged(1)), check_error);
}

// A receiver that answers every delivery with another message never lets
// the network go quiet; the drain loop's event budget must stop it.
TEST(EventQueue, DetectsLivelock) {
  EventQueue q;
  Network net(q, Rng(1), 0);
  struct Echo final : Network::Receiver {
    explicit Echo(Network& n) : net(n) {}
    void on_delivery(const Delivery& d) override {
      net.send(d.to, d.from, QueryMsg{d.init, d.hop});
    }
    Network& net;
  } echo(net);
  net.set_receiver(&echo);
  net.send(0, 1, QueryMsg{});
  EXPECT_THROW(net.run_to_quiescence(1000), check_error);
  EXPECT_EQ(q.processed(), 1001u);
}

// Runs EventQueue against a reference (time, seq) binary heap kept here.
// Every schedule goes to both; each pop takes the reference minimum and
// requires the queue to yield that very record at that time, with the
// same pending/empty/processed bookkeeping. A record's id rides in
// init.seq and its follow-up work in the other fields, which the test
// performs after the pop, as a delivery's receiver would. Delays reach
// 10x the near-tier width, so both tiers fill.
class EventQueueDifferential {
 public:
  explicit EventQueueDifferential(std::uint64_t seed) : rng_(seed) {}

  // Schedules record `id` at `at` on both queues; `children` more records
  // are scheduled when it fires.
  void schedule(SimTime at, int children) {
    Delivery d = tagged(next_id_++);
    d.from = static_cast<std::uint32_t>(children);
    push(at, d);
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

  // Same-tick ties between the tiers: a record scheduled exactly
  // kNearTicks ahead goes to the far tier; once the clock has moved one
  // tick, more records at that tick go to the bucket and must fire after
  // it. The record due in one tick (to = 1) schedules those two at the
  // tick kept in init.vehicle.
  void schedule_tier_ties() {
    const SimTime t = q_.now() + EventQueue::kNearTicks;
    schedule(t, 0);
    Delivery d = tagged(next_id_++);
    d.to = 1;
    d.init.vehicle = static_cast<std::size_t>(t);
    push(q_.now() + 1, d);
  }

  // Pops both queues to quiescence, checking every pop.
  void drain() {
    while (!ref_.empty()) {
      ASSERT_FALSE(q_.empty());
      ASSERT_EQ(q_.pending(), ref_.size());
      const Ref expect = ref_.top();
      ref_.pop();
      const std::uint64_t before = q_.processed();
      Delivery d;
      ASSERT_TRUE(q_.pop(d));
      ASSERT_EQ(q_.processed(), before + 1);
      ASSERT_EQ(d.init.seq, expect.id) << "at t=" << expect.at;
      ASSERT_EQ(q_.now(), expect.at);
      ASSERT_EQ(q_.pending(), ref_.size());
      fire(d);
    }
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(q_.pending(), 0u);
    Delivery d;
    EXPECT_FALSE(q_.pop(d));
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

  void push(SimTime at, const Delivery& d) {
    ref_.push({at, static_cast<std::size_t>(d.init.seq)});
    q_.schedule(at, d);
  }

  void fire(const Delivery& d) {
    if (d.to == 1) {
      const auto t = static_cast<SimTime>(d.init.vehicle);
      schedule(t, 1);
      schedule(t, 0);
      return;
    }
    for (std::uint32_t c = 0; c < d.from; ++c) spawn();
  }

  Rng rng_;
  EventQueue q_;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref_;
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

// Binds itself to `net` and records every delivery with the tick it
// fired at (and a move's destination).
struct Collector final : Network::Receiver {
  struct Seen {
    SimTime at;
    Delivery d;
    Point dest;
  };
  Collector(const EventQueue& q, Network& n) : queue(q), net(n) {
    n.set_receiver(this);
  }
  void on_delivery(const Delivery& d) override {
    got.push_back({queue.now(), d,
                   d.kind == MsgKind::kMove ? net.move_dest(d) : Point{}});
  }
  const EventQueue& queue;
  const Network& net;
  std::vector<Seen> got;
};

TEST(Network, ChannelsAreFifo) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EventQueue q;
    Network net(q, Rng(seed), /*max_delay=*/7);
    Collector c(q, net);
    for (std::uint64_t i = 0; i < 30; ++i)
      net.send(0, 1, ReplyMsg{true, InitTag{0, i}});
    net.run_to_quiescence();
    ASSERT_EQ(c.got.size(), 30u);
    for (std::size_t i = 0; i < c.got.size(); ++i) {
      EXPECT_EQ(c.got[i].d.init.seq, i) << "seed " << seed;
      if (i > 0) {
        EXPECT_GT(c.got[i].at, c.got[i - 1].at) << "seed " << seed;
      }
    }
  }
}

TEST(Network, CountsByKind) {
  EventQueue q;
  Network net(q, Rng(3), 2);
  Collector c(q, net);
  net.send(0, 1, QueryMsg{InitTag{0, 1}, 4});
  net.send(1, 0, ReplyMsg{true, InitTag{1, 2}});
  net.send(0, 2, MoveMsg{Point{3, 5}, InitTag{0, 3}});
  net.count_heartbeats(1);
  net.run_to_quiescence();
  EXPECT_EQ(net.stats().queries, 1u);
  EXPECT_EQ(net.stats().replies, 1u);
  EXPECT_EQ(net.stats().moves, 1u);
  EXPECT_EQ(net.stats().heartbeats, 1u);
  EXPECT_EQ(net.stats().total(), 4u);
  // Each record delivers its kind and payload to the receiver.
  ASSERT_EQ(c.got.size(), 3u);
  std::sort(c.got.begin(), c.got.end(),
            [](const Collector::Seen& a, const Collector::Seen& b) {
              return a.d.kind < b.d.kind;
            });
  EXPECT_EQ(c.got[0].d.kind, MsgKind::kQuery);
  EXPECT_EQ(c.got[0].d.hop, 4u);
  EXPECT_EQ(c.got[0].d.init, (InitTag{0, 1}));
  EXPECT_EQ(c.got[1].d.kind, MsgKind::kReply);
  EXPECT_TRUE(c.got[1].d.flag);
  EXPECT_EQ(c.got[1].d.from, 1u);
  EXPECT_EQ(c.got[1].d.to, 0u);
  EXPECT_EQ(c.got[2].d.kind, MsgKind::kMove);
  EXPECT_EQ(c.got[2].d.init, (InitTag{0, 3}));
  EXPECT_EQ(c.got[2].dest, (Point{3, 5}));
}

// Heartbeats are counted, never drawn or clamped: a network that also
// counts heartbeats — one at a time and in bulk — must deliver every
// query at the same time and in the same order as one that never counts
// any. Clock steps interleave with the sends, so a heartbeat that drew a
// delay or advanced a FIFO clamp would shift a delivery.
TEST(Network, HeartbeatsLeaveQueryDeliveriesUnchanged) {
  for (const SimTime max_delay : {0, 3, 7}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("max_delay " + std::to_string(max_delay) + " seed " +
                   std::to_string(seed));
      EventQueue qa, qb;
      Network a(qa, Rng(seed), max_delay), b(qb, Rng(seed), max_delay);
      Collector got_a(qa, a), got_b(qb, b);
      std::uint64_t sent = 0;
      Rng script(100 + seed);
      for (std::uint64_t op = 0; op < 3000; ++op) {
        const auto from = static_cast<std::size_t>(script.next_below(5));
        const auto to = static_cast<std::size_t>(script.next_below(5));
        const std::uint64_t kind = script.next_below(8);
        if (kind < 4) {
          a.count_heartbeats(1);  // b counts no heartbeat
          ++sent;
        } else if (kind == 4) {
          const std::uint64_t n = script.next_below(40);
          a.count_heartbeats(n);
          sent += n;
        } else if (kind < 7) {
          const QueryMsg q{InitTag{from, op}, 1};
          a.send(from, to, q);
          b.send(from, to, q);
        } else {
          for (std::uint64_t k = script.next_below(4); k > 0; --k) {
            a.step();
            b.step();
          }
        }
        ASSERT_EQ(qa.now(), qb.now());
        ASSERT_EQ(qa.pending(), qb.pending());
      }
      a.run_to_quiescence();
      b.run_to_quiescence();
      EXPECT_GT(got_a.got.size(), 500u);
      ASSERT_EQ(got_a.got.size(), got_b.got.size());
      for (std::size_t i = 0; i < got_a.got.size(); ++i) {
        const Collector::Seen& x = got_a.got[i];
        const Collector::Seen& y = got_b.got[i];
        ASSERT_TRUE(std::tie(x.at, x.d.from, x.d.to, x.d.init.seq) ==
                    std::tie(y.at, y.d.from, y.d.to, y.d.init.seq))
            << "delivery " << i;
      }
      EXPECT_EQ(b.stats().heartbeats, 0u);
      EXPECT_GT(sent, 1500u);
      EXPECT_EQ(a.stats().heartbeats - b.stats().heartbeats, sent);
      EXPECT_EQ(a.stats().heartbeat_skips, a.stats().heartbeats);
      EXPECT_EQ(a.stats().queries, b.stats().queries);
    }
  }
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
        core(dim, config, queue, network) {}
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
        h.network.run_to_quiescence();
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
  h.network.send(idle->id, idle->id, MoveMsg{Point{4, 1}, InitTag{0, 1}});
  EXPECT_THROW(h.network.run_to_quiescence(), check_error);
  EXPECT_EQ(idle->pos, (Point{0, 1}));
}

// --- §3.2.5 ring golden outcomes ---------------------------------------------
//
// The monitoring ring's outcomes under failures, pinned: every
// OnlineMetrics field (network counts included) and the failed-job list
// of small runs that break, silence or starve vehicles. Served jobs are
// the complement of the failed ones. The constants were captured with
// heartbeats counted, not drawn, and match a build whose every settle runs
// the full sweep (ring build, timeout scan); a settle that replays its
// cached heartbeat count after a state change it missed would drift from
// them. Because heartbeats leave the delay stream alone, the stride-1 and
// stride-3 pins of a scenario differ only where the ring's detection
// cadence acts: in heartbeat counts, and in the starved or silenced slots
// a longer stride notices later.

enum class RingScenario {
  kBreakAtStart,    // longevity 0: dead before the first arrival
  kBreakMidStream,  // longevity 0.2-0.3: dies while serving
  kSilentDone,      // exhausts without initiating (scenario 2)
  kUndersized,      // W = 3 and the victims dead at start: cubes run out
                    // of idle vehicles, leaving unrecoverable slots
  kStreamSilent,    // StreamEngine, silent-done injected between ingests
};

struct RingCase {
  RingScenario scenario;
  int dim;
  std::int64_t stride;
};

struct RingOutcome {
  std::uint64_t served, failed, replacements, comps_started, comps_failed,
      monitor_initiations;
  std::uint64_t queries, replies, moves, heartbeats, heartbeat_skips;
  double max_energy, total_energy;
  std::uint64_t travel;
  std::vector<std::int64_t> failed_jobs;

  friend bool operator==(const RingOutcome& a, const RingOutcome& b) {
    return std::tie(a.served, a.failed, a.replacements, a.comps_started,
                    a.comps_failed, a.monitor_initiations, a.queries,
                    a.replies, a.moves, a.heartbeats, a.heartbeat_skips,
                    a.max_energy, a.total_energy, a.travel, a.failed_jobs) ==
           std::tie(b.served, b.failed, b.replacements, b.comps_started,
                    b.comps_failed, b.monitor_initiations, b.queries,
                    b.replies, b.moves, b.heartbeats, b.heartbeat_skips,
                    b.max_energy, b.total_energy, b.travel, b.failed_jobs);
  }
};

std::string as_initializer(const RingOutcome& o) {
  std::ostringstream s;
  s << std::setprecision(17) << "{" << o.served << ", " << o.failed << ", "
    << o.replacements << ", " << o.comps_started << ", " << o.comps_failed
    << ", " << o.monitor_initiations << ", " << o.queries << ", "
    << o.replies << ", " << o.moves << ", " << o.heartbeats << ", "
    << o.heartbeat_skips << ", " << o.max_energy << ", " << o.total_energy
    << ", " << o.travel << ", {";
  for (std::size_t i = 0; i < o.failed_jobs.size(); ++i)
    s << (i ? ", " : "") << o.failed_jobs[i];
  s << "}}";
  return s.str();
}

RingOutcome outcome_of(const OnlineMetrics& m,
                       std::vector<std::int64_t> failed_jobs) {
  const NetworkStats& n = m.network;
  return {m.jobs_served,          m.jobs_failed,
          m.replacements,         m.computations_started,
          m.computations_failed,  m.monitor_initiations,
          n.queries,              n.replies,
          n.moves,                n.heartbeats,
          n.heartbeat_skips,      m.max_energy_spent,
          m.total_energy_spent,   m.total_travel,
          std::move(failed_jobs)};
}

// Scenario inputs: side-4 squares (ℓ = 2) or side-3 cubes (ℓ = 3, odd
// volume, so one pair slot has no idle partner), 2^ℓ cubes of uniform
// demand with every third arrival aimed at a victim's home.
struct RingInputs {
  OnlineConfig config;
  std::vector<Job> jobs;
  std::vector<Point> victims;  // active homes the failures target
  double longevity[3] = {0.0, 0.0, 0.0};
};

RingInputs ring_inputs(const RingCase& c) {
  RingInputs in;
  const int dim = c.dim;
  const std::int64_t side = dim == 2 ? 4 : 3;
  OnlineConfig& cfg = in.config;
  cfg.cube_side = side;
  cfg.anchor = Point::origin(dim);
  cfg.seed = 5;
  cfg.monitor_stride = c.stride;
  std::size_t count = 90;
  switch (c.scenario) {
    case RingScenario::kBreakAtStart:
      cfg.capacity = 8.0;
      break;
    case RingScenario::kBreakMidStream:
      cfg.capacity = 20.0;
      in.longevity[0] = 0.2;
      in.longevity[1] = 0.3;
      in.longevity[2] = 0.25;
      break;
    case RingScenario::kSilentDone:
    case RingScenario::kStreamSilent:
      cfg.capacity = 6.0;
      break;
    case RingScenario::kUndersized:
      cfg.capacity = 3.0;
      count = 160;
      break;
  }
  const CubePairing pairing(dim, cfg.anchor, side);
  const Point origin = Point::origin(dim);
  Point far = origin;
  far[dim - 1] = side;  // a second cube
  const auto& near_primaries = pairing.primaries_in_cube(origin);
  in.victims = {near_primaries[0], near_primaries[3],
                pairing.primaries_in_cube(far)[1]};
  Rng rng(17);
  for (std::size_t i = 0; i < count; ++i) {
    Point p = Point::origin(dim);
    if (i % 3 == 2) {
      p = in.victims[(i / 3) % in.victims.size()];
    } else {
      for (int a = 0; a < dim; ++a) p[a] = rng.next_int(0, 2 * side - 1);
    }
    in.jobs.push_back({p, static_cast<std::int64_t>(i)});
  }
  return in;
}

template <class Target>
void inject_failures(Target& target, const RingCase& c, const RingInputs& in) {
  for (std::size_t i = 0; i < in.victims.size(); ++i) {
    if (c.scenario == RingScenario::kBreakAtStart ||
        c.scenario == RingScenario::kBreakMidStream ||
        c.scenario == RingScenario::kUndersized)
      target.inject_break_after(in.victims[i], in.longevity[i]);
    else
      target.inject_silent_done(in.victims[i]);
  }
}

RingOutcome run_ring_case(const RingCase& c) {
  const RingInputs in = ring_inputs(c);
  const int dim = c.dim;
  if (c.scenario == RingScenario::kStreamSilent) {
    StreamConfig sc;
    sc.online = in.config;
    sc.batch_size = 8;
    StreamEngine engine(dim, sc);
    // A third in, so the victims still have work left to go silent on.
    const std::size_t split = in.jobs.size() / 3;
    engine.ingest(in.jobs.data(), split);
    for (const Point& home : in.victims) engine.inject_silent_done(home);
    engine.ingest(in.jobs.data() + split, in.jobs.size() - split);
    const StreamResult r = engine.finish();
    EXPECT_EQ(r.served_jobs.size() + r.failed_jobs.size(), in.jobs.size());
    return outcome_of(r.metrics, r.failed_jobs);
  }
  OnlineSimulation sim(dim, in.config);
  inject_failures(sim, c, in);
  sim.run(in.jobs);
  // OnlineSimulation::run reports only totals; the same loop over a bare
  // core yields the per-job outcomes, and must agree on every metric.
  CoreHarness h(dim, in.config);
  inject_failures(h.core, c, in);
  for (const Job& job : in.jobs) h.core.ensure_cube_at(job.position);
  h.core.monitor_sweep();
  h.network.run_to_quiescence();
  std::vector<std::int64_t> failed;
  std::int64_t since_settle = 0;
  for (const Job& job : in.jobs) {
    if (!h.core.serve_job(job)) failed.push_back(job.index);
    h.network.run_to_quiescence();
    if (++since_settle >= c.stride) {
      h.core.settle();
      since_settle = 0;
    }
  }
  if (since_settle > 0) h.core.settle();
  h.core.finalize_metrics();
  EXPECT_TRUE(h.core.metrics() == sim.metrics());
  return outcome_of(h.core.metrics(), std::move(failed));
}

struct RingGolden {
  RingCase c;
  RingOutcome want;
};

const RingGolden kRingGolden[] = {
    {{RingScenario::kBreakAtStart, 2, 1},
     {90, 0, 12, 12, 0, 3, 1049, 1049, 16, 2909, 2909, 8, 145, 55, {}}},
    {{RingScenario::kBreakAtStart, 2, 3},
     {90, 0, 12, 12, 0, 3, 1049, 1049, 16, 989, 989, 8, 145, 55, {}}},
    {{RingScenario::kBreakAtStart, 3, 1},
     {90, 0, 8, 8, 0, 3, 1390, 1390, 10, 10189, 10189, 7, 134, 44, {}}},
    {{RingScenario::kBreakAtStart, 3, 3},
     {90, 0, 8, 8, 0, 3, 1390, 1390, 10, 3469, 3469, 7, 134, 44, {}}},
    {{RingScenario::kBreakMidStream, 2, 1},
     {90, 0, 3, 3, 0, 3, 181, 181, 3, 3005, 3005, 13, 128, 38, {}}},
    {{RingScenario::kBreakMidStream, 2, 3},
     {90, 0, 3, 3, 0, 3, 181, 181, 3, 1085, 1085, 13, 128, 38, {}}},
    {{RingScenario::kBreakMidStream, 3, 1},
     {90, 0, 3, 3, 0, 3, 468, 468, 3, 10525, 10525, 11, 129, 39, {}}},
    {{RingScenario::kBreakMidStream, 3, 3},
     {90, 0, 3, 3, 0, 3, 468, 468, 3, 3805, 3805, 11, 129, 39, {}}},
    {{RingScenario::kSilentDone, 2, 1},
     {89, 1, 15, 18, 3, 3, 1626, 1626, 22, 2968, 2968, 5, 148, 59, {83}}},
    {{RingScenario::kSilentDone, 2, 3},
     {89, 1, 15, 18, 3, 3, 1626, 1626, 22, 1071, 1071, 5, 148, 59, {83}}},
    {{RingScenario::kSilentDone, 3, 1},
     {90, 0, 7, 7, 0, 3, 1195, 1195, 8, 10525, 10525, 5, 135, 45, {}}},
    {{RingScenario::kSilentDone, 3, 3},
     {90, 0, 7, 7, 0, 3, 1195, 1195, 8, 3805, 3805, 5, 135, 45, {}}},
    {{RingScenario::kUndersized, 2, 1},
     {55, 105, 32, 1012, 980, 953, 137728, 137728, 1300, 9969, 9969, 3, 137,
      82, {
       3, 10, 11, 14, 18, 20, 21, 23, 25, 26, 29, 32, 33, 35, 38, 39, 40, 41,
       42, 44, 46, 47, 48, 49, 50, 51, 53, 56, 57, 59, 61, 62, 63, 65, 68, 71,
       72, 73, 74, 76, 77, 78, 79, 80, 82, 83, 85, 86, 89, 90, 91, 92, 95, 96,
       98, 99, 100, 101, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113,
       114, 116, 117, 118, 119, 121, 122, 123, 125, 128, 129, 130, 131, 132,
       133, 134, 137, 139, 140, 141, 142, 143, 144, 145, 146, 148, 149, 150,
       151, 152, 153, 154, 155, 156, 157, 158}}},
    {{RingScenario::kUndersized, 2, 3},
     {54, 106, 32, 413, 381, 354, 53242, 53242, 507, 3119, 3119, 3, 139, 85, {
       2, 10, 11, 14, 18, 20, 21, 23, 25, 26, 29, 32, 33, 35, 38, 39, 40, 41,
       42, 44, 46, 47, 48, 49, 50, 51, 53, 56, 57, 59, 61, 62, 63, 65, 68, 71,
       72, 73, 74, 76, 77, 78, 79, 80, 82, 83, 85, 86, 89, 90, 91, 92, 95, 96,
       98, 99, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112,
       113, 114, 116, 117, 118, 119, 121, 122, 123, 125, 128, 129, 130, 131,
       132, 133, 134, 137, 139, 140, 141, 142, 143, 144, 145, 146, 148, 149,
       150, 151, 152, 153, 154, 155, 156, 157, 158}}},
    {{RingScenario::kUndersized, 3, 1},
     {99, 61, 104, 3356, 3252, 3214, 1021300, 1021300, 6833, 91747, 91747, 3,
      333, 234, {
       20, 23, 29, 31, 32, 35, 38, 41, 44, 47, 50, 53, 56, 59, 62, 65, 68, 71,
       74, 77, 80, 83, 86, 89, 92, 94, 95, 96, 98, 101, 102, 103, 104, 105, 107,
       109, 110, 113, 114, 116, 119, 121, 122, 124, 125, 127, 128, 129, 131,
       132, 134, 137, 140, 143, 146, 149, 150, 152, 154, 155, 158}}},
    {{RingScenario::kUndersized, 3, 3},
     {103, 57, 102, 1802, 1700, 1664, 590796, 590796, 3155, 37032, 37032, 3,
      326, 223, {
       2, 29, 31, 32, 35, 38, 41, 44, 47, 50, 53, 56, 59, 62, 65, 68, 71, 74,
       77, 80, 83, 86, 89, 92, 95, 96, 98, 101, 102, 104, 105, 107, 109, 110,
       113, 114, 116, 119, 121, 122, 124, 125, 127, 128, 129, 131, 132, 134,
       137, 140, 143, 146, 149, 150, 152, 155, 158}}},
    {{RingScenario::kStreamSilent, 2, 1},
     {89, 1, 15, 16, 1, 1, 1298, 1298, 21, 755, 755, 5, 142, 53, {83}}},
    {{RingScenario::kStreamSilent, 2, 3},
     {89, 1, 15, 16, 1, 1, 1298, 1298, 21, 293, 293, 5, 142, 53, {83}}},
    {{RingScenario::kStreamSilent, 3, 1},
     {90, 0, 7, 7, 0, 3, 1197, 1197, 7, 1411, 1411, 5, 131, 41, {}}},
    {{RingScenario::kStreamSilent, 3, 3},
     {89, 1, 7, 7, 0, 3, 1197, 1197, 7, 599, 599, 5, 130, 41, {53}}},
};

TEST(RingGolden, OutcomesMatchPinnedFullSweepRing) {
  for (const RingGolden& g : kRingGolden) {
    SCOPED_TRACE("scenario " + std::to_string(static_cast<int>(g.c.scenario)) +
                 " dim " + std::to_string(g.c.dim) + " stride " +
                 std::to_string(g.c.stride));
    const RingOutcome got = run_ring_case(g.c);
    EXPECT_TRUE(got == g.want) << "got " << as_initializer(got);
    // Each scenario reaches the ring paths it is named for.
    EXPECT_GE(got.monitor_initiations, 1u);
    if (g.c.scenario == RingScenario::kUndersized) {
      EXPECT_GT(got.comps_failed, 0u);
      EXPECT_GT(got.failed, 0u);
    }
  }
}

// A core left to replay its clean sweeps must match one whose every
// settle runs the full sweep, through state changes made between settles
// by the core's direct callers: a vehicle killed outright, a longevity
// armed mid-run, a silent-done, and cubes that serve_job materializes on
// first contact. The reference forces full sweeps with a no-op injection
// (silent-done on a home no job comes near), which clears the clean flag
// and changes nothing else.
TEST(CleanSweep, ReplayMatchesForcedFullSweeps) {
  for (int dim : {2, 3}) {
    for (std::int64_t stride : {1, 2}) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " stride " +
                   std::to_string(stride));
      const RingInputs in =
          ring_inputs({RingScenario::kSilentDone, dim, stride});
      CoreHarness replay(dim, in.config), full(dim, in.config);
      Point unused = Point::origin(dim);
      unused[0] = 1000;
      // A primary no job targets on purpose: still active at arrival 20.
      const Point quiet =
          full.core.pairing().primaries_in_cube(Point::origin(dim))[2];
      // Cube 0 first, the rest materialize while serving.
      replay.core.ensure_cube_at(in.jobs[0].position);
      full.core.ensure_cube_at(in.jobs[0].position);
      std::int64_t since_settle = 0;
      for (std::size_t i = 0; i < in.jobs.size(); ++i) {
        for (FleetCore* core : {&replay.core, &full.core}) {
          if (i == 20) core->inject_break_after(quiet, 0.0);
          if (i == 40) core->inject_break_after(in.victims[1], 0.3);
          if (i == 50) core->inject_silent_done(in.victims[2]);
        }
        const Job& job = in.jobs[i];
        const bool ok = replay.core.serve_job(job);
        replay.network.run_to_quiescence();
        ASSERT_EQ(full.core.serve_job(job), ok) << "job " << i;
        full.network.run_to_quiescence();
        if (++since_settle < stride) continue;
        since_settle = 0;
        replay.core.settle();
        full.core.inject_silent_done(unused);
        full.core.settle();
        ASSERT_TRUE(replay.network.stats() == full.network.stats())
            << "job " << i;
        ASSERT_TRUE(replay.core.metrics() == full.core.metrics())
            << "job " << i;
      }
      EXPECT_GE(replay.core.metrics().monitor_initiations, 2u);
    }
  }
}

// A sweep that finds a slot to replace but no ring member free to
// initiate for it (every healthy active vehicle is still searching in a
// computation whose messages are in flight) must leave the slot alone —
// not pending, not counted — and must not mark itself clean: once the
// flood drains, the next settle initiates the replacement. Only a direct
// caller that sweeps mid-flood reaches this; OnlineSimulation and the
// stream engine drain first.
TEST(CleanSweep, NoHealthyMonitorDefersTheReplacement) {
  OnlineConfig cfg = small_config(8.0);  // 7 jobs in place exhaust one
  cfg.neighbor_radius = 6;               // every cube member hears a flood
  cfg.max_message_delay = 0;             // every query lands one tick later
  CoreHarness h(2, cfg);
  const auto& primaries = h.core.pairing().primaries_in_cube(Point{0, 0});
  ASSERT_EQ(primaries.size(), 8u);
  const Point victim = primaries[0];
  h.core.inject_break_after(victim, 0.0);  // dead before it ever serves
  h.core.ensure_cube_at(victim);
  ASSERT_FALSE(h.core.active_of_pair(victim).has_value());

  // Slot 1's active vehicle serves in place until it exhausts, and floods
  // its 15 cube mates. Deliver exactly those queries: the six healthy
  // active vehicles (slots 2-7) turn searching and relay, and nothing else
  // lands.
  const std::size_t initiator = *h.core.active_of_pair(primaries[1]);
  for (std::int64_t j = 0; j < 7; ++j) {
    ASSERT_EQ(h.core.metrics().computations_started, 0u);
    ASSERT_TRUE(h.core.serve_job(Job{primaries[1], j}));
  }
  ASSERT_EQ(h.core.metrics().computations_started, 1u);
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(h.network.step());
  ASSERT_FALSE(h.queue.empty());
  for (std::size_t slot = 2; slot < primaries.size(); ++slot) {
    const Vehicle& v = *h.core.vehicle_at_home(primaries[slot]);
    ASSERT_EQ(v.s1, WorkState::kActive);
    ASSERT_EQ(v.s2, TransferState::kSearching);
  }

  const std::uint64_t heartbeats = h.network.stats().heartbeats;
  h.core.monitor_sweep();
  EXPECT_EQ(h.core.metrics().monitor_initiations, 0u);
  EXPECT_EQ(h.core.metrics().computations_started, 1u);
  EXPECT_EQ(h.network.stats().heartbeats, heartbeats + 6);  // ring of six
  EXPECT_FALSE(h.core.active_of_pair(victim).has_value());

  // The flood drains and hands slot 1 an idle vehicle; the victim slot is
  // still empty, and the next settle initiates for it.
  h.network.run_to_quiescence();
  ASSERT_EQ(h.core.metrics().replacements, 1u);
  ASSERT_NE(h.core.active_of_pair(primaries[1]), initiator);
  EXPECT_FALSE(h.core.active_of_pair(victim).has_value());
  h.core.settle();
  EXPECT_EQ(h.core.metrics().monitor_initiations, 1u);
  EXPECT_EQ(h.core.metrics().replacements, 2u);
  ASSERT_TRUE(h.core.active_of_pair(victim).has_value());
  EXPECT_NE(*h.core.active_of_pair(victim),
            h.core.vehicle_at_home(victim)->id);
}

// --- Phase I flood golden outcomes -------------------------------------------
//
// Floods over side-8 and side-16 cubes (64 and 256 vehicles, radius 2),
// pinned at the three delay regimes of the event calendar: a
// max_message_delay of 0 (every delivery one tick out), 3 (the default)
// and 70 (a delay of 64 or more ticks lands in the far heap, so both
// tiers interleave). Each case runs on a bare FleetCore and on a
// StreamEngine. The pins cover the served and failed sets (as
// order-invariant digests), every NetworkStats field, replacements,
// energy, travel and the per-computation query peak, and were captured
// before message deliveries became flat records: a delivery that fires
// at a different tick or in a different order moves them.

struct FloodCase {
  std::int64_t side;
  SimTime max_delay;
  bool stream;  // StreamEngine, else a bare FleetCore
};

struct FloodOutcome {
  std::uint64_t served, failed, served_digest, failed_digest;
  std::uint64_t queries, replies, moves, heartbeats, heartbeat_skips;
  std::uint64_t replacements, travel, max_queries_per_comp;
  double max_energy, total_energy;

  friend bool operator==(const FloodOutcome& a, const FloodOutcome& b) {
    return std::tie(a.served, a.failed, a.served_digest, a.failed_digest,
                    a.queries, a.replies, a.moves, a.heartbeats,
                    a.heartbeat_skips, a.replacements, a.travel,
                    a.max_queries_per_comp, a.max_energy, a.total_energy) ==
           std::tie(b.served, b.failed, b.served_digest, b.failed_digest,
                    b.queries, b.replies, b.moves, b.heartbeats,
                    b.heartbeat_skips, b.replacements, b.travel,
                    b.max_queries_per_comp, b.max_energy, b.total_energy);
  }
};

std::string as_initializer(const FloodOutcome& o) {
  std::ostringstream s;
  s << std::setprecision(17) << "{" << o.served << ", " << o.failed << ", "
    << o.served_digest << "u, " << o.failed_digest << "u, " << o.queries
    << ", " << o.replies << ", " << o.moves << ", " << o.heartbeats << ", "
    << o.heartbeat_skips << ", " << o.replacements << ", " << o.travel
    << ", " << o.max_queries_per_comp << ", " << o.max_energy << ", "
    << o.total_energy << "}";
  return s.str();
}

FloodOutcome flood_outcome_of(const OnlineMetrics& m,
                              const std::vector<std::int64_t>& served,
                              const std::vector<std::int64_t>& failed,
                              std::uint64_t max_queries_per_comp) {
  const NetworkStats& n = m.network;
  return {served.size(),        failed.size(),
          index_set_digest(served), index_set_digest(failed),
          n.queries,            n.replies,
          n.moves,              n.heartbeats,
          n.heartbeat_skips,    m.replacements,
          m.total_travel,       max_queries_per_comp,
          m.max_energy_spent,   m.total_energy_spent};
}

FloodOutcome run_flood_case(const FloodCase& c) {
  OnlineConfig cfg;
  cfg.capacity = static_cast<double>(2 * c.side);  // any move is affordable
  cfg.cube_side = c.side;
  cfg.anchor = Point{0, 0};
  cfg.max_message_delay = c.max_delay;
  cfg.seed = 29;
  cfg.monitor_stride = 4;
  cfg.obs.counters = true;
  // Two cubes side by side. Half the arrivals hit four hot vertices of
  // the first cube, whose pairs exhaust vehicle after vehicle: each one a
  // flood over the whole cube. At side 8 the first cube runs out of idle
  // vehicles and fails the tail of the stream.
  const std::size_t count = c.side == 8 ? 1500 : 7000;
  const Point hot[] = {Point{1, 1}, Point{2, c.side - 2},
                       Point{c.side - 3, 3}, Point{c.side / 2, c.side / 2}};
  Rng rng(31);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    const Point p = rng.next_bool(0.5)
                        ? hot[rng.next_below(4)]
                        : Point{rng.next_int(0, 2 * c.side - 1),
                                rng.next_int(0, c.side - 1)};
    jobs.push_back({p, static_cast<std::int64_t>(i)});
  }
  if (c.stream) {
    StreamConfig sc;
    sc.online = cfg;
    sc.batch_size = 16;
    StreamEngine engine(2, sc);
    engine.ingest(jobs.data(), jobs.size());
    const StreamResult r = engine.finish();
    return flood_outcome_of(r.metrics, r.served_jobs, r.failed_jobs,
                            r.counters.max_queries_per_comp);
  }
  CoreHarness h(2, cfg);
  for (const Job& job : jobs) h.core.ensure_cube_at(job.position);
  h.core.monitor_sweep();
  h.network.run_to_quiescence();
  std::vector<std::int64_t> served, failed;
  std::int64_t since_settle = 0;
  for (const Job& job : jobs) {
    (h.core.serve_job(job) ? served : failed).push_back(job.index);
    h.network.run_to_quiescence();
    if (++since_settle >= cfg.monitor_stride) {
      h.core.settle();
      since_settle = 0;
    }
  }
  if (since_settle > 0) h.core.settle();
  h.core.finalize_metrics();
  return flood_outcome_of(h.core.metrics(), served, failed,
                          h.core.obs_max_queries_per_comp());
}

struct FloodGoldenPin {
  FloodCase c;
  FloodOutcome want;
};

const FloodGoldenPin kFloodGolden[] = {
    {{8, 0, false},
     {1102, 398, 8709752132503003762u, 7331419405610093653u, 48244, 48244, 85,
      21660, 21660, 59, 502, 946, 16, 1604}},
    {{8, 0, true},
     {1102, 398, 8709752132503003762u, 7331419405610093653u, 48244, 48244, 85,
      10352, 10352, 59, 502, 946, 16, 1604}},
    {{8, 3, false},
     {1093, 407, 4102386936220659440u, 11938784601892437975u, 48866, 48866, 93,
      21643, 21643, 59, 506, 972, 16, 1599}},
    {{8, 3, true},
     {1103, 397, 969537322962294703u, 15071634215150802712u, 48303, 48303, 86,
      10358, 10358, 58, 491, 982, 16, 1594}},
    {{8, 70, false},
     {1083, 417, 374955304268555552u, 15666216233844541863u, 48961, 48961, 104,
      21665, 21665, 59, 516, 970, 16, 1599}},
    {{8, 70, true},
     {1101, 399, 6879076013753575129u, 9162095524359522286u, 48681, 48681, 105,
      10360, 10360, 59, 494, 964, 16, 1595}},
    {{16, 0, false},
     {6741, 259, 12286959169863091459u, 16514190576467312560u, 455096, 455096,
      441, 447407, 447407, 136, 2569, 6182, 32, 9310}},
    {{16, 0, true},
     {6741, 259, 12286959169863091459u, 16514190576467312560u, 455096, 455096,
      441, 223749, 223749, 136, 2569, 6182, 32, 9310}},
    {{16, 3, false},
     {6766, 234, 12140054703314841501u, 16661095043015562518u, 455109, 455109,
      470, 447455, 447455, 136, 2542, 6180, 32, 9308}},
    {{16, 3, true},
     {6750, 250, 1870970882165039783u, 8483434790455812620u, 462000, 462000,
      482, 223661, 223661, 136, 2573, 6254, 32, 9323}},
    {{16, 70, false},
     {6743, 257, 4590005407589546690u, 5764400265031305713u, 462139, 462139,
      641, 447270, 447270, 136, 2584, 6248, 32, 9327}},
    {{16, 70, true},
     {6747, 253, 17898757132210453841u, 10902392614119950178u, 462250, 462250,
      607, 223655, 223655, 136, 2582, 6250, 32, 9329}},
};

TEST(FloodGolden, OutcomesMatchPinnedFloods) {
  for (const FloodGoldenPin& g : kFloodGolden) {
    SCOPED_TRACE("side " + std::to_string(g.c.side) + " max_delay " +
                 std::to_string(g.c.max_delay) +
                 (g.c.stream ? " stream" : " core"));
    const FloodOutcome got = run_flood_case(g.c);
    EXPECT_TRUE(got == g.want) << "got " << as_initializer(got);
    // Every case floods, and Lemma 3.3.1 bounds each flood's queries.
    EXPECT_GT(got.replacements, 10u);
    const std::uint64_t bound =
        static_cast<std::uint64_t>(g.c.side * g.c.side) * 25;
    EXPECT_LE(got.max_queries_per_comp, bound);
  }
}

// One channel carrying a burst of queries sent in the same tick: each
// delivery's FIFO clamp chains one tick past the previous, far beyond the
// near tier, while other channels deliver around it. Pinned: the digest
// of every delivery's (tick, from, to, sequence) in firing order.
TEST(FloodGolden, SameChannelBurstChainsFifoClamps) {
  for (const SimTime max_delay : {3, 70}) {
    SCOPED_TRACE("max_delay " + std::to_string(max_delay));
    EventQueue q;
    Network net(q, Rng(41), max_delay);
    Collector c(q, net);
    for (std::uint64_t i = 0; i < 300; ++i) {
      net.send(0, 1, QueryMsg{InitTag{0, i}, 1});
      if (i % 25 == 0) net.send(2, 3, QueryMsg{InitTag{2, i}, 1});
    }
    for (int s = 0; s < 40; ++s) {
      net.step();
      net.send(1, 0, QueryMsg{InitTag{1, static_cast<std::uint64_t>(s)}, 1});
    }
    net.run_to_quiescence();
    std::uint64_t digest = 0;
    SimTime last_burst = -1;
    bool chained = false;
    for (const Collector::Seen& x : c.got) {
      digest = mix64(digest ^ static_cast<std::uint64_t>(x.at));
      digest = mix64(digest ^ (std::uint64_t{x.d.from} << 8 | x.d.to));
      digest = mix64(digest ^ x.d.init.seq);
      if (x.d.from == 0 && x.d.to == 1) {
        chained |= x.at == last_burst + 1;
        last_burst = x.at;
      }
    }
    const std::size_t delivered = c.got.size();
    EXPECT_EQ(delivered, 352u);
    EXPECT_TRUE(chained);
    EXPECT_GE(last_burst, 300);  // the chain outruns the 64-tick calendar
    EXPECT_EQ(digest, max_delay == 3 ? 17725626094179271567u
                                     : 449243232323327009u);
    EXPECT_EQ(q.now(), max_delay == 3 ? 302 : 368);
  }
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
