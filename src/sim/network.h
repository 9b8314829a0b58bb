// Message transport implementing the paper's communication model (§3.2):
//   * free (no energy cost), reliable, unaltered delivery,
//   * arbitrary finite per-message delay,
//   * per-channel FIFO ("messages sent from P to Q arrive in order sent"),
//   * unbounded input buffers (the receiver is invoked per message).
//
// A send counts its kind, draws the delay, applies the channel's FIFO
// clamp and schedules one flat Delivery record (sim/message.h) — no
// closure, no allocation once the calendar's slot pool is warm. The
// drain loop pops records in (time, seq) order and hands each to the one
// bound Receiver, which switches on the kind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "grid/point.h"
#include "obs/span.h"
#include "sim/event_queue.h"
#include "sim/message.h"
#include "util/flat_map.h"
#include "util/hash.h"
#include "util/rng.h"

namespace cmvrp {

struct NetworkStats {
  std::uint64_t queries = 0;
  std::uint64_t replies = 0;
  std::uint64_t moves = 0;
  std::uint64_t heartbeats = 0;
  // §3.2.5 heartbeats the network counted without delivering (the
  // receiving side is a protocol no-op). Every skip is also counted in
  // `heartbeats`; total() therefore excludes it.
  std::uint64_t heartbeat_skips = 0;

  std::uint64_t total() const { return queries + replies + moves + heartbeats; }

  void merge(const NetworkStats& other) {
    queries += other.queries;
    replies += other.replies;
    moves += other.moves;
    heartbeats += other.heartbeats;
    heartbeat_skips += other.heartbeat_skips;
  }

  friend bool operator==(const NetworkStats& a, const NetworkStats& b) {
    return a.queries == b.queries && a.replies == b.replies &&
           a.moves == b.moves && a.heartbeats == b.heartbeats &&
           a.heartbeat_skips == b.heartbeat_skips;
  }
  friend bool operator!=(const NetworkStats& a, const NetworkStats& b) {
    return !(a == b);
  }
};

class Network {
 public:
  // The one consumer of deliveries (FleetCore in the protocol).
  struct Receiver {
    virtual void on_delivery(const Delivery& d) = 0;

   protected:
    ~Receiver() = default;
  };

  Network(EventQueue& queue, Rng rng, SimTime max_delay)
      : queue_(queue), rng_(std::move(rng)), max_delay_(max_delay) {
    CMVRP_CHECK(max_delay >= 0);
  }

  // Borrowed; must outlive every delivery.
  void set_receiver(Receiver* r) { receiver_ = r; }

  // Optional Tier-C span hook (borrowed; may be null). When set, every
  // non-heartbeat send and delivery is recorded on the cube protocol
  // clock — heartbeats stay invisible, matching their elided delivery.
  void set_spans(SpanRecorder* spans) { spans_ = spans; }

  // Typed sends: each counts its kind and posts one record from -> to.
  void send(std::size_t from, std::size_t to, const QueryMsg& m) {
    ++stats_.queries;
    post(from, to, {m.init, 0, 0, m.hop, 0, MsgKind::kQuery, false});
  }
  void send(std::size_t from, std::size_t to, const ReplyMsg& m) {
    ++stats_.replies;
    post(from, to, {m.init, 0, 0, 0, 0, MsgKind::kReply, m.flag});
  }
  void send(std::size_t from, std::size_t to, const MoveMsg& m) {
    ++stats_.moves;
    auto slot = static_cast<std::uint32_t>(dests_.size());
    if (free_dests_.empty()) {
      dests_.push_back(m.dest);
    } else {
      slot = free_dests_.back();
      free_dests_.pop_back();
      dests_[slot] = m.dest;
    }
    post(from, to, {m.init, 0, 0, 0, slot, MsgKind::kMove, false});
  }

  // The destination a move delivery carries. Its slot is released once
  // the receiver returns.
  Point move_dest(const Delivery& d) const { return dests_[d.dest]; }

  // Counts n §3.2.5 heartbeats ("existing" messages). Heartbeats are
  // protocol no-ops on the receiving side — monitoring reads fleet state
  // directly, never the message — so they draw no delay, advance no FIFO
  // clamp and never enter the queue: the generator and the clamps see
  // only Query/Reply/Move traffic, and how many heartbeats a run sends
  // cannot shift when its real messages arrive. Spans never see them.
  void count_heartbeats(std::uint64_t n) {
    stats_.heartbeats += n;
    stats_.heartbeat_skips += n;
  }

  // Delivers the earliest message. Returns false when none is in flight.
  bool step() {
    Delivery d;
    if (!queue_.pop(d)) return false;
    deliver(d);
    return true;
  }

  // Delivers until nothing is in flight; throws if more than `max_events`
  // fire (guards against protocol livelock).
  void run_to_quiescence(std::uint64_t max_events = 10'000'000) {
    for (std::uint64_t fired = 0; step();) {
      CMVRP_CHECK_MSG(++fired <= max_events,
                      "event budget exhausted: likely livelock");
    }
  }

  const NetworkStats& stats() const { return stats_; }

 private:
  // Schedules `d` with a random delay in [1, 1 + max_delay], clamped so
  // the channel stays FIFO.
  void post(std::size_t from, std::size_t to, Delivery d) {
    CMVRP_CHECK_MSG(receiver_ != nullptr, "network has no receiver bound");
    const SimTime delay =
        1 + static_cast<SimTime>(
                max_delay_ > 0
                    ? rng_.next_below(static_cast<std::uint64_t>(max_delay_) + 1)
                    : 0);
    SimTime at = queue_.now() + delay;
    // Vehicle ids are dense fleet indices; 32 bits each keeps the record
    // small and packs a channel into one clamp key.
    CMVRP_CHECK_MSG(from < (1ull << 32) && to < (1ull << 32),
                    "vehicle id exceeds 32 bits");
    d.from = static_cast<std::uint32_t>(from);
    d.to = static_cast<std::uint32_t>(to);
    SimTime& last = last_delivery_[std::uint64_t{d.from} << 32 | d.to];
    if (at <= last) at = last + 1;  // preserve per-channel ordering
    last = at;
    if (spans_ != nullptr) {
      spans_->message(queue_.now(), /*send=*/true, static_cast<int>(d.kind),
                      packed_init(d.init), from, to, d.hop);
    }
    queue_.schedule(at, d);
  }

  void deliver(const Delivery& d) {
    if (spans_ != nullptr) {
      spans_->message(queue_.now(), /*send=*/false, static_cast<int>(d.kind),
                      packed_init(d.init), d.from, d.to, d.hop);
    }
    receiver_->on_delivery(d);
    if (d.kind == MsgKind::kMove) free_dests_.push_back(d.dest);
  }

  EventQueue& queue_;
  Rng rng_;
  SimTime max_delay_;
  Receiver* receiver_ = nullptr;
  NetworkStats stats_;
  SpanRecorder* spans_ = nullptr;  // borrowed Tier-C hook; may be null
  // Per-channel FIFO clamp: last delivery tick, keyed (from, to).
  FlatMap<std::uint64_t, SimTime, U64Hash> last_delivery_;
  // Destinations of the moves in flight, free-listed by slot.
  std::vector<Point> dests_;
  std::vector<std::uint32_t> free_dests_;
};

}  // namespace cmvrp
