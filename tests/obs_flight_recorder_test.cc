#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"

// The flight recorder's contract: a bounded ring that keeps the NEWEST
// miss-path events, reports them oldest -> newest, and accounts exactly
// for what it overwrote. Also a TSan target (concurrent recording from
// ensemble walkers is the production shape).

namespace histwalk::obs {
namespace {

FlightEvent Event(uint64_t node) {
  FlightEvent event;
  event.node = node;
  event.actor = static_cast<uint32_t>(node % 4);
  event.kind = FlightEventKind::kWireFetch;
  event.start_us = node * 10;
  event.end_us = node * 10 + 5;
  return event;
}

TEST(FlightRecorderTest, FillsWithoutDropping) {
  FlightRecorder recorder(/*capacity=*/4);
  for (uint64_t n = 0; n < 4; ++n) recorder.Record(Event(n));
  EXPECT_EQ(recorder.total_recorded(), 4u);
  EXPECT_EQ(recorder.dropped(), 0u);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (uint64_t n = 0; n < 4; ++n) EXPECT_EQ(events[n].node, n);
}

// The headline overflow test: record far more than capacity and check the
// ring holds exactly the last `capacity` events in order, with the
// overwritten prefix visible in dropped().
TEST(FlightRecorderTest, OverflowKeepsNewestInOrder) {
  constexpr size_t kCapacity = 8;
  constexpr uint64_t kTotal = 100;
  FlightRecorder recorder(kCapacity);
  for (uint64_t n = 0; n < kTotal; ++n) recorder.Record(Event(n));
  EXPECT_EQ(recorder.total_recorded(), kTotal);
  EXPECT_EQ(recorder.dropped(), kTotal - kCapacity);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(events[i].node, kTotal - kCapacity + i) << "slot " << i;
  }
  const FlightLog log = recorder.TakeLog();
  EXPECT_EQ(log.total_recorded, kTotal);
  EXPECT_EQ(log.dropped, kTotal - kCapacity);
  ASSERT_EQ(log.events.size(), kCapacity);
  EXPECT_EQ(log.events.front().node, kTotal - kCapacity);
  EXPECT_EQ(log.events.back().node, kTotal - 1);
}

TEST(FlightRecorderTest, ZeroCapacityDisablesRecording) {
  FlightRecorder recorder(/*capacity=*/0);
  for (uint64_t n = 0; n < 10; ++n) recorder.Record(Event(n));
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, ClockStampsWhenWired) {
  uint64_t now = 1000;
  FlightRecorder recorder(/*capacity=*/2, [&now] { return now; });
  EXPECT_EQ(recorder.NowUs(), 1000u);
  now = 2500;
  EXPECT_EQ(recorder.NowUs(), 2500u);
  FlightRecorder unclocked(/*capacity=*/2);
  EXPECT_EQ(unclocked.NowUs(), 0u);
}

TEST(FlightRecorderTest, EventKindNamesAreStable) {
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kWireFetch), "wire_fetch");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kSingleflightJoin),
            "singleflight_join");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kBudgetRefusal),
            "budget_refusal");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kError), "error");
}

TEST(FlightRecorderTest, ConcurrentRecordingLosesNothingToRaces) {
  constexpr size_t kCapacity = 64;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  FlightRecorder recorder(kCapacity);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (uint64_t n = 0; n < kPerThread; ++n) {
        recorder.Record(Event(static_cast<uint64_t>(t) * kPerThread + n));
      }
    });
  }
  // Snapshot concurrently with the writers; sizes must never exceed
  // capacity. (TakeLog reads the ring and the counters under separate
  // lock acquisitions, so mid-fill the counters can run ahead of the
  // event copy — the ring only grows, never shrinks.)
  for (int s = 0; s < 20; ++s) {
    EXPECT_LE(recorder.Snapshot().size(), kCapacity);
    const FlightLog log = recorder.TakeLog();
    EXPECT_LE(log.events.size(), log.total_recorded - log.dropped);
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.total_recorded(), kThreads * kPerThread);
  EXPECT_EQ(recorder.dropped(), kThreads * kPerThread - kCapacity);
  EXPECT_EQ(recorder.Snapshot().size(), kCapacity);
}

// Wraparound stress at TINY capacity: with the ring this small every
// record overwrites, so any slip in the head/drop arithmetic shows up as
// an off-by-one immediately. At quiescence the accounting must be exact:
// dropped == total - capacity, and the surviving events must be real
// records (no torn slots), each the newest of its writer at the time it
// was kept.
TEST(FlightRecorderTest, TinyCapacityWraparoundDropsExactly) {
  constexpr size_t kCapacity = 3;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  FlightRecorder recorder(kCapacity);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (uint64_t n = 0; n < kPerThread; ++n) {
        recorder.Record(Event(static_cast<uint64_t>(t) * kPerThread + n));
      }
    });
  }
  // Concurrent observers: the ring never exceeds capacity and the
  // counters never go backwards.
  uint64_t last_total = 0;
  for (int s = 0; s < 50; ++s) {
    const FlightLog log = recorder.TakeLog();
    EXPECT_LE(log.events.size(), kCapacity);
    EXPECT_GE(log.total_recorded, last_total);
    EXPECT_LE(log.dropped, log.total_recorded);
    last_total = log.total_recorded;
  }
  for (auto& thread : threads) thread.join();
  // Quiescent: exact accounting, full ring, well-formed survivors.
  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(recorder.total_recorded(), kTotal);
  EXPECT_EQ(recorder.dropped(), kTotal - kCapacity);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  for (const FlightEvent& event : events) {
    EXPECT_LT(event.node, kTotal);
    EXPECT_EQ(event.kind, FlightEventKind::kWireFetch);
    EXPECT_EQ(event.start_us, event.node * 10);
    EXPECT_EQ(event.end_us, event.node * 10 + 5);
  }
}

// Capacity one is the degenerate ring: only the newest record survives,
// and single-writer order makes the survivor predictable.
TEST(FlightRecorderTest, CapacityOneKeepsOnlyTheNewest) {
  FlightRecorder recorder(/*capacity=*/1);
  for (uint64_t n = 0; n < 1000; ++n) recorder.Record(Event(n));
  EXPECT_EQ(recorder.total_recorded(), 1000u);
  EXPECT_EQ(recorder.dropped(), 999u);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 999u);
}

}  // namespace
}  // namespace histwalk::obs
