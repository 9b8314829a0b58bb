// Deterministic discrete-event calendar of in-flight protocol messages.
//
// Events are Delivery records (sim/message.h): trivially copyable, so the
// calendar parks them by value in a free-listed slot pool and pops each
// one back to its single consumer, Network's drain loop. Events fire in (time, insertion-sequence) order, so
// equal-time events are processed in a reproducible order; all
// nondeterminism in experiments comes from explicitly seeded message
// delays, never from the engine.
//
// Two tiers hold pending events, both exact (no time quantization):
//   * Near tier — a calendar of kNearTicks per-tick FIFO buckets. An event
//     due within kNearTicks of now() is appended to the bucket of its tick
//     in O(1). A bucket only ever holds one tick (every earlier tick with
//     the same residue has already drained), and appends arrive in seq
//     order, so each bucket is already (time, seq)-sorted. A one-word
//     occupancy mask finds the nearest non-empty bucket.
//   * Far tier — a (time, seq) binary heap for events due later. Message
//     delays are 1 + a few ticks, and heartbeats never touch a FIFO clamp,
//     so ordinary protocol traffic lands inside the calendar. The heap
//     serves what can still land beyond it: a max_message_delay of 64 or
//     more, and a burst of sends on one channel whose FIFO clamp chains
//     each delivery one tick past the last. Those take the O(log n) heap.
// pop() takes the earlier of the nearest bucket head and the heap top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/message.h"
#include "util/check.h"

namespace cmvrp {

using SimTime = std::int64_t;

class EventQueue {
 public:
  // Width of the near tier in ticks (one bit of the occupancy mask each).
  static constexpr SimTime kNearTicks = 64;

  SimTime now() const { return now_; }
  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return near_count_ + far_.size(); }
  std::uint64_t processed() const { return processed_; }

  // Schedules `d` at absolute time `at` (must be >= now()). The record
  // parks in a free-listed slot pool and both tiers queue slot indices,
  // so ordering events never moves a record.
  void schedule(SimTime at, const Delivery& d) {
    CMVRP_CHECK_MSG(at >= now_, "cannot schedule into the past");
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(records_.size());
      records_.push_back(d);
      next_.push_back(kNil);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      records_[slot] = d;
      next_[slot] = kNil;
    }
    const std::uint64_t seq = next_seq_++;
    if (at - now_ >= kNearTicks) {
      far_.push(FarEvent{at, seq, slot});
      return;
    }
    const std::size_t b = bucket_of(at);
    Bucket& bucket = buckets_[b];
    if (bucket.head == kNil) {
      bucket.head = slot;
      occupied_ |= std::uint64_t{1} << b;
    } else {
      next_[bucket.tail] = slot;
    }
    bucket.tail = slot;
    ++near_count_;
  }

  // Removes the earliest event into `out` and advances now() to its time.
  // Returns false when the queue is empty.
  bool pop(Delivery& out) {
    std::uint32_t slot;
    if (occupied_ != 0) {
      const SimTime near_at = now_ + ticks_to_nearest_bucket();
      // A far event due at the same tick as a bucket was scheduled while
      // that tick was still >= kNearTicks away, i.e. before every event
      // in the bucket, so its seq is smaller: on a tie the heap goes first.
      if (!far_.empty() && far_.top().at <= near_at) {
        slot = pop_far();
      } else {
        const std::size_t b = bucket_of(near_at);
        Bucket& bucket = buckets_[b];
        slot = bucket.head;
        bucket.head = next_[slot];
        if (bucket.head == kNil) occupied_ &= ~(std::uint64_t{1} << b);
        --near_count_;
        now_ = near_at;
      }
    } else if (!far_.empty()) {
      slot = pop_far();
    } else {
      return false;
    }
    ++processed_;
    // Copied out: handling it may schedule into (and reuse) this slot.
    out = records_[slot];
    free_slots_.push_back(slot);
    return true;
  }

 private:
  static_assert(kNearTicks == 64, "the occupancy mask is one 64-bit word");
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct FarEvent {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;  // index into records_
    bool operator>(const FarEvent& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  // FIFO of slots threaded through next_.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static std::size_t bucket_of(SimTime at) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(at) &
                                    (kNearTicks - 1));
  }

  // Ticks from now() to the nearest occupied bucket (occupied_ != 0).
  // Every near event lies in [now, now + kNearTicks), so rotating the mask
  // to start at now()'s bucket makes the lowest set bit the nearest tick.
  SimTime ticks_to_nearest_bucket() const {
    const unsigned shift = static_cast<unsigned>(bucket_of(now_));
    const std::uint64_t rotated =
        shift == 0 ? occupied_
                   : (occupied_ >> shift) | (occupied_ << (64 - shift));
    return static_cast<SimTime>(__builtin_ctzll(rotated));
  }

  std::uint32_t pop_far() {
    const FarEvent ev = far_.top();
    far_.pop();
    now_ = ev.at;
    return ev.slot;
  }

  Bucket buckets_[kNearTicks];
  std::uint64_t occupied_ = 0;  // bit b set <=> buckets_[b] is non-empty
  std::size_t near_count_ = 0;
  std::priority_queue<FarEvent, std::vector<FarEvent>, std::greater<>> far_;
  std::vector<Delivery> records_;          // slot pool; parallel free list
  std::vector<std::uint32_t> next_;        // bucket FIFO links, per slot
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace cmvrp
