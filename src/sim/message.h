// Protocol messages of §3.2.3–§3.2.4.
//
// Phase I uses query/reply pairs tagged with the initiator identity (plus
// a sequence number, as the paper's `init` discussion suggests, so repeat
// computations by the same vehicle stay distinct). Phase II uses a single
// move message carrying the destination. The §3.2.5 monitoring ring's
// `existing` heartbeats carry nothing and are only counted
// (Network::count_heartbeats). In flight, every message is one Delivery
// record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "grid/point.h"

namespace cmvrp {

// Identity of one diffusing computation: (initiating vehicle, sequence).
struct InitTag {
  std::size_t vehicle = SIZE_MAX;
  std::uint64_t seq = 0;

  friend bool operator==(const InitTag& a, const InitTag& b) {
    return a.vehicle == b.vehicle && a.seq == b.seq;
  }
  friend bool operator!=(const InitTag& a, const InitTag& b) {
    return !(a == b);
  }
};

inline constexpr InitTag kNoInit{};

// Packed form of an InitTag for the span layer (obs/span.h): vehicle in
// the high word, sequence in the low. init_seq starts at 1, so a real
// tag never packs to 0 — 0 is the "no computation" value (kNoInit).
inline std::uint64_t packed_init(const InitTag& t) {
  if (t == kNoInit) return 0;
  return (static_cast<std::uint64_t>(t.vehicle) << 32) | t.seq;
}

// Phase I: "are you (or do you know) an idle vehicle?" — (init, p).
// `hop` is the query-tree depth the message travels at (1 = the
// initiator's own fan-out), carried for the span layer's causal trace;
// the protocol itself never reads it.
struct QueryMsg {
  InitTag init;
  std::uint32_t hop = 0;
};

// Phase I: reply (flag, p).
struct ReplyMsg {
  bool flag = false;
  InitTag init;
};

// Phase II: relay toward the found idle vehicle; `dest` is the vertex the
// idle vehicle must occupy (the done vehicle's serving position).
struct MoveMsg {
  Point dest;
  InitTag init;
};

// Message kinds, numbered as the span layer's `aux` (obs/span.h).
enum class MsgKind : std::uint8_t { kQuery = 0, kReply = 1, kMove = 2 };

// One in-flight message, as the event calendar stores it: endpoints
// (vehicle ids, checked at send to fit 32 bits), kind, and the kind's
// payload — `hop` for a query, `flag` for a reply, and for a move the
// slot of its destination in the network's side table
// (Network::move_dest), which keeps the record small for the
// query/reply traffic that dominates a flood.
struct Delivery {
  InitTag init;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t hop = 0;
  std::uint32_t dest = 0;
  MsgKind kind = MsgKind::kQuery;
  bool flag = false;
};
static_assert(std::is_trivially_copyable_v<Delivery>,
              "the event calendar copies deliveries by value");

}  // namespace cmvrp
