// ReliableTransport protocol engine: sequence arithmetic, exactly-once
// ordering across sequence wraparound, loss recovery, NACK fast
// retransmit, bounded exponential backoff and abandonment.  The engine is
// exercised without a network — an in-memory wire shuttles frames between
// two transports, optionally dropping or corrupting them.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "noc/reliable.hpp"
#include "noc/topology.hpp"

namespace rasoc::noc {
namespace {

constexpr int kPayloadBits = 16;

ReliabilityConfig makeConfig(int seqBits, int window) {
  ReliabilityConfig c;
  c.enabled = true;
  c.seqBits = seqBits;
  c.window = window;
  c.rtoInitial = 16;
  c.rtoMax = 256;
  c.nackMinInterval = 8;
  return c;
}

TEST(SequenceArithmeticTest, DistanceAndOrderWrapAround) {
  EXPECT_EQ(seqMask(4), 0xfu);
  EXPECT_EQ(seqDistance(0, 3, 8), 3u);
  EXPECT_EQ(seqDistance(250, 3, 8), 9u);   // wraps through 255 -> 0
  EXPECT_EQ(seqDistance(3, 250, 8), 247u);
  EXPECT_TRUE(seqLess(255, 0, 8));   // 0 is one ahead of 255
  EXPECT_FALSE(seqLess(0, 255, 8));  // ...not 255 ahead of 0
  EXPECT_TRUE(seqLess(14, 1, 4));    // same at 4 bits
  EXPECT_FALSE(seqLess(7, 7, 4));
  EXPECT_TRUE(seqLessEq(7, 7, 4));
  EXPECT_TRUE(seqLessEq(6, 7, 4));
}

TEST(ReliabilityConfigTest, ValidateRejectsInconsistentKnobs) {
  // Window larger than half the sequence space breaks selective repeat.
  ReliabilityConfig c = makeConfig(4, 9);
  EXPECT_THROW(c.validate(kPayloadBits), std::invalid_argument);
  c = makeConfig(4, 8);
  EXPECT_NO_THROW(c.validate(kPayloadBits));
  // Control word (seqBits + 2 type bits) must fit a payload word.
  c = makeConfig(15, 8);
  EXPECT_THROW(c.validate(kPayloadBits), std::invalid_argument);
  // Backoff ceiling below the initial RTO is nonsense.
  c = makeConfig(8, 8);
  c.rtoMax = c.rtoInitial - 1;
  EXPECT_THROW(c.validate(kPayloadBits), std::invalid_argument);
  // Degenerate window.
  c = makeConfig(8, 0);
  EXPECT_THROW(c.validate(kPayloadBits), std::invalid_argument);
}

// In-memory wire between transports on an Nx1 mesh (two by default).
// Frames cross with a fixed latency; `filter` may mutate the words in
// flight or return false to drop the message entirely.  onFrameSent fires
// at the cycle the frame is handed to the wire, mirroring the NI's
// last-flit-out arming point.
class Harness {
 public:
  // (sender index, wire words incl. leading source index) -> keep?
  using Filter = std::function<bool(int, std::vector<std::uint32_t>&)>;

  explicit Harness(const ReliabilityConfig& config, std::uint64_t latency = 4,
                   int nodes = 2)
      : topology_(makeTopology("mesh", nodes, 1)),
        latency_(latency),
        delivered_(static_cast<std::size_t>(nodes)) {
    for (int i = 0; i < nodes; ++i) {
      transports_.push_back(std::make_unique<ReliableTransport>(
          config, topology_, topology_->nodeAt(i), kPayloadBits));
      transports_.back()->reset();
    }
  }

  ReliableTransport& at(int i) { return *transports_[i]; }
  NodeId node(int i) const { return topology_->nodeAt(i); }
  std::uint64_t cycle() const { return cycle_; }
  void setFilter(Filter f) { filter_ = std::move(f); }

  const std::vector<std::vector<std::uint32_t>>& deliveredAt(int i) const {
    return delivered_[i];
  }

  int nodes() const { return topology_->nodes(); }

  void step() {
    for (int i = 0; i < nodes(); ++i) {
      for (auto& frame : transports_[i]->takeFrames()) {
        if (frame.frameId != 0)
          transports_[i]->onFrameSent(frame.frameId, cycle_);
        std::vector<std::uint32_t> words;
        words.push_back(static_cast<std::uint32_t>(i));
        words.insert(words.end(), frame.words.begin(), frame.words.end());
        if (filter_ && !filter_(i, words)) continue;
        inFlight_.push_back({topology_->indexOf(frame.dst), std::move(words),
                             cycle_ + latency_});
      }
    }
    for (auto it = inFlight_.begin(); it != inFlight_.end();) {
      if (it->deliverAt <= cycle_) {
        transports_[it->to]->onWireWords(it->words, cycle_);
        it = inFlight_.erase(it);
      } else {
        ++it;
      }
    }
    for (int i = 0; i < nodes(); ++i) {
      transports_[i]->onCycle(cycle_);
      for (auto& d : transports_[i]->takeDeliveries())
        delivered_[i].push_back(std::move(d.payload));
    }
    ++cycle_;
  }

  void run(int cycles) {
    for (int i = 0; i < cycles; ++i) step();
  }

  // Steps until both transports are idle (everything acknowledged and
  // delivered); returns false if `cap` cycles pass first.
  bool runUntilIdle(int cap) {
    for (int i = 0; i < cap; ++i) {
      if (idle()) return true;
      step();
    }
    return idle();
  }

  bool idle() {
    for (int i = 0; i < nodes(); ++i)
      if (!at(i).idle()) return false;
    return inFlight_.empty();
  }

 private:
  struct Message {
    int to;
    std::vector<std::uint32_t> words;
    std::uint64_t deliverAt;
  };

  std::shared_ptr<const Topology> topology_;
  std::uint64_t latency_;
  std::vector<std::unique_ptr<ReliableTransport>> transports_;
  std::deque<Message> inFlight_;
  std::vector<std::vector<std::vector<std::uint32_t>>> delivered_;
  Filter filter_;
  std::uint64_t cycle_ = 0;
};

TEST(ReliableTransportTest, ExactlyOnceInOrderAcrossSeqWraparound) {
  // 100 frames through a 4-bit sequence space (16 values) forces several
  // wraparounds; a perfect wire must need no retransmissions.
  Harness h(makeConfig(/*seqBits=*/4, /*window=*/8));
  const int kFrames = 100;
  for (int i = 0; i < kFrames; ++i)
    h.at(0).submit(h.node(1), {static_cast<std::uint32_t>(i)});
  ASSERT_TRUE(h.runUntilIdle(20000));
  const auto& rx = h.deliveredAt(1);
  ASSERT_EQ(rx.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(rx[i].size(), 1u);
    EXPECT_EQ(rx[i][0], static_cast<std::uint32_t>(i)) << "frame " << i;
  }
  EXPECT_EQ(h.at(0).stats().retransmissions, 0u);
  EXPECT_EQ(h.at(0).stats().timeouts, 0u);
  EXPECT_EQ(h.at(1).stats().duplicatesDropped, 0u);
  EXPECT_EQ(h.at(1).stats().payloadsDelivered,
            static_cast<std::uint64_t>(kFrames));
}

TEST(ReliableTransportTest, WindowLimitsOutstandingFramesAndBacklogs) {
  Harness h(makeConfig(6, /*window=*/2));
  for (int i = 0; i < 5; ++i)
    h.at(0).submit(h.node(1), {static_cast<std::uint32_t>(0x100 + i)});
  EXPECT_EQ(h.at(0).unackedFrames(), 2u);
  EXPECT_EQ(h.at(0).backlogFrames(), 3u);
  ASSERT_TRUE(h.runUntilIdle(5000));
  ASSERT_EQ(h.deliveredAt(1).size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(h.deliveredAt(1)[i][0], static_cast<std::uint32_t>(0x100 + i));
}

TEST(ReliableTransportTest, LossyWireStillDeliversExactlyOnceInOrder) {
  Harness h(makeConfig(6, 4));
  int count = 0;
  // Drop every third wire message, DATA and control frames alike.
  h.setFilter([&count](int, std::vector<std::uint32_t>&) {
    return ++count % 3 != 0;
  });
  const int kFrames = 40;
  for (int i = 0; i < kFrames; ++i)
    h.at(0).submit(h.node(1), {static_cast<std::uint32_t>(0x200 + i)});
  ASSERT_TRUE(h.runUntilIdle(50000));
  const auto& rx = h.deliveredAt(1);
  ASSERT_EQ(rx.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i)
    EXPECT_EQ(rx[i][0], static_cast<std::uint32_t>(0x200 + i));
  EXPECT_GT(h.at(0).stats().retransmissions, 0u);
  EXPECT_EQ(h.at(1).stats().payloadsDelivered,
            static_cast<std::uint64_t>(kFrames));
}

TEST(ReliableTransportTest, BackoffDoublesPerTimeoutAndCapsAtRtoMax) {
  ReliabilityConfig c = makeConfig(8, 8);
  c.rtoInitial = 16;
  c.rtoMax = 64;
  Harness h(c);
  h.setFilter([](int, std::vector<std::uint32_t>&) { return false; });
  h.at(0).submit(h.node(1), {0x42});
  EXPECT_EQ(h.at(0).currentRto(h.node(1)), 16u);
  auto runToTimeouts = [&h](std::uint64_t n) {
    for (int i = 0; i < 5000 && h.at(0).stats().timeouts < n; ++i) h.step();
    ASSERT_EQ(h.at(0).stats().timeouts, n);
  };
  runToTimeouts(1);
  EXPECT_EQ(h.at(0).currentRto(h.node(1)), 32u);
  runToTimeouts(2);
  EXPECT_EQ(h.at(0).currentRto(h.node(1)), 64u);
  runToTimeouts(4);
  EXPECT_EQ(h.at(0).currentRto(h.node(1)), 64u);  // capped
  EXPECT_EQ(h.at(0).stats().abandoned, 0u);       // retries forever
}

TEST(ReliableTransportTest, MaxRetriesAbandonsAndReportsTheLoss) {
  ReliabilityConfig c = makeConfig(8, 8);
  c.rtoInitial = 8;
  c.rtoMax = 16;
  c.maxRetries = 2;
  Harness h(c);
  h.setFilter([](int, std::vector<std::uint32_t>&) { return false; });
  h.at(0).submit(h.node(1), {0x7});
  h.run(2000);
  EXPECT_EQ(h.at(0).stats().abandoned, 1u);
  EXPECT_TRUE(h.at(0).idle());
  EXPECT_TRUE(h.deliveredAt(1).empty());
}

TEST(ReliableTransportTest, NackFromGapTriggersFastRetransmit) {
  ReliabilityConfig c = makeConfig(8, 8);
  c.rtoInitial = 500;  // far beyond the test horizon: only a NACK recovers
  c.rtoMax = 500;
  c.nackMinInterval = 8;
  Harness h(c);
  bool droppedFirst = false;
  h.setFilter([&droppedFirst](int src, std::vector<std::uint32_t>&) {
    if (src == 0 && !droppedFirst) {
      droppedFirst = true;  // lose only the very first DATA frame
      return false;
    }
    return true;
  });
  h.at(0).submit(h.node(1), {0xa});
  h.at(0).submit(h.node(1), {0xb});
  ASSERT_TRUE(h.runUntilIdle(400));
  const auto& rx = h.deliveredAt(1);
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0][0], 0xau);
  EXPECT_EQ(rx[1][0], 0xbu);
  EXPECT_GE(h.at(1).stats().nacksSent, 1u);
  EXPECT_GE(h.at(0).stats().nacksReceived, 1u);
  EXPECT_EQ(h.at(0).stats().retransmissions, 1u);
  EXPECT_EQ(h.at(0).stats().timeouts, 0u);  // recovered before the RTO
  EXPECT_GT(h.at(1).stats().outOfOrderBuffered, 0u);
}

TEST(ReliableTransportTest, DuplicateDataFrameDroppedAndReAcked) {
  auto topology = makeTopology("mesh", 2, 1);
  ReliableTransport a(makeConfig(4, 8), topology, topology->nodeAt(0),
                      kPayloadBits);
  ReliableTransport b(makeConfig(4, 8), topology, topology->nodeAt(1),
                      kPayloadBits);
  a.reset();
  b.reset();
  a.submit(topology->nodeAt(1), {0x33});
  auto frames = a.takeFrames();
  ASSERT_EQ(frames.size(), 1u);
  std::vector<std::uint32_t> words{0};  // source index prepended by the NI
  words.insert(words.end(), frames[0].words.begin(), frames[0].words.end());
  b.onWireWords(words, 0);
  b.onWireWords(words, 1);  // the same frame again (spurious retransmit)
  EXPECT_EQ(b.takeDeliveries().size(), 1u);
  EXPECT_EQ(b.stats().payloadsDelivered, 1u);
  EXPECT_EQ(b.stats().duplicatesDropped, 1u);
  // Both copies are acknowledged, so a sender whose ACK was lost re-syncs.
  EXPECT_EQ(b.stats().acksSent, 2u);
}

TEST(ReliableTransportTest, CorruptedFrameIsCountedAndDiscarded) {
  auto topology = makeTopology("mesh", 2, 1);
  ReliableTransport a(makeConfig(4, 8), topology, topology->nodeAt(0),
                      kPayloadBits);
  ReliableTransport b(makeConfig(4, 8), topology, topology->nodeAt(1),
                      kPayloadBits);
  a.reset();
  b.reset();
  a.submit(topology->nodeAt(1), {0x55, 0x66});
  auto frames = a.takeFrames();
  ASSERT_EQ(frames.size(), 1u);
  std::vector<std::uint32_t> words{0};
  words.insert(words.end(), frames[0].words.begin(), frames[0].words.end());
  words[2] ^= 1u;  // single-bit payload corruption, as a faulted link injects
  b.onWireWords(words, 0);
  EXPECT_TRUE(b.takeDeliveries().empty());
  EXPECT_EQ(b.stats().malformedFrames, 1u);
  EXPECT_EQ(b.stats().acksSent, 0u);  // no ACK for garbage
  // A truncated frame (body flits lost to a link-down window) is also
  // malformed rather than misparsed.
  b.onWireWords({0, frames[0].words.back()}, 1);
  EXPECT_EQ(b.stats().malformedFrames, 2u);
  EXPECT_TRUE(b.takeDeliveries().empty());
}

TEST(ReliableTransportTest, BidirectionalTrafficKeepsFlowsIndependent) {
  Harness h(makeConfig(5, 4));
  const int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    h.at(0).submit(h.node(1), {static_cast<std::uint32_t>(0x300 + i)});
    h.at(1).submit(h.node(0), {static_cast<std::uint32_t>(0x400 + i)});
  }
  ASSERT_TRUE(h.runUntilIdle(20000));
  ASSERT_EQ(h.deliveredAt(1).size(), static_cast<std::size_t>(kFrames));
  ASSERT_EQ(h.deliveredAt(0).size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(h.deliveredAt(1)[i][0], static_cast<std::uint32_t>(0x300 + i));
    EXPECT_EQ(h.deliveredAt(0)[i][0], static_cast<std::uint32_t>(0x400 + i));
  }
}

TEST(ReliableTransportTest, RunningTotalsMatchAWalkOfTheFlows) {
  // unackedFrames()/backlogFrames() are running totals; the per-destination
  // overloads walk one flow each.  Every cycle of a run through timeouts,
  // maxRetries abandonment, ACKs, a NACK and a reset, the totals must
  // equal the sum of the walk.
  ReliabilityConfig c = makeConfig(6, /*window=*/2);
  c.rtoInitial = 16;
  c.rtoMax = 64;
  c.maxRetries = 2;
  Harness h(c, /*latency=*/4, /*nodes=*/4);
  bool blackhole = false;
  bool dropSeq1 = false;
  h.setFilter([&](int sender, std::vector<std::uint32_t>& words) {
    if (blackhole) return false;
    const std::uint32_t control = words[1];
    const bool data = (control >> (kPayloadBits - 2)) == 0;
    if (dropSeq1 && sender == 1 && data && (control & 0x3fu) == 1) {
      dropSeq1 = false;  // lose the first copy only: the gap draws a NACK
      return false;
    }
    return true;
  });
  std::size_t peakBacklog = 0;
  auto check = [&] {
    for (int i = 0; i < h.nodes(); ++i) {
      std::size_t unacked = 0;
      std::size_t backlog = 0;
      for (int d = 0; d < h.nodes(); ++d) {
        unacked += h.at(i).unackedFrames(h.node(d));
        backlog += h.at(i).backlogFrames(h.node(d));
      }
      ASSERT_EQ(h.at(i).unackedFrames(), unacked)
          << "node " << i << " cycle " << h.cycle();
      ASSERT_EQ(h.at(i).backlogFrames(), backlog)
          << "node " << i << " cycle " << h.cycle();
      peakBacklog = std::max(peakBacklog, backlog);
    }
  };
  auto runChecked = [&](int cycles) {
    for (int k = 0; k < cycles; ++k) {
      h.step();
      check();
    }
  };
  auto submit = [&](int src, int dst, int count) {
    for (int k = 0; k < count; ++k)
      h.at(src).submit(h.node(dst), {static_cast<std::uint32_t>(k)});
    check();
  };

  // Timeouts and abandonment: nothing crosses the wire, each frame times
  // out three times, and every abandonment promotes the backlog.
  blackhole = true;
  submit(0, 1, 5);
  submit(0, 2, 3);
  submit(0, 3, 1);
  submit(3, 0, 4);
  runChecked(400);
  EXPECT_GT(h.at(0).stats().abandoned, 0u);
  EXPECT_GT(h.at(3).stats().timeouts, 0u);
  EXPECT_GT(peakBacklog, 0u);

  // ACKs drain what is left.
  blackhole = false;
  submit(2, 1, 6);
  for (int k = 0; k < 5000 && !h.idle(); ++k) runChecked(1);
  ASSERT_TRUE(h.idle());
  EXPECT_GT(h.at(2).stats().acksReceived, 0u);

  // A lost first copy opens a gap; the receiver NACKs it.
  dropSeq1 = true;
  submit(1, 3, 4);
  for (int k = 0; k < 5000 && !h.idle(); ++k) runChecked(1);
  ASSERT_TRUE(h.idle());
  EXPECT_GT(h.at(1).stats().nacksReceived, 0u);

  // Reset forgets every flow.
  blackhole = true;
  submit(0, 2, 4);
  submit(1, 0, 3);
  runChecked(40);
  EXPECT_GT(h.at(0).unackedFrames() + h.at(0).backlogFrames(), 0u);
  for (int i = 0; i < h.nodes(); ++i) h.at(i).reset();
  check();
  for (int i = 0; i < h.nodes(); ++i) {
    EXPECT_EQ(h.at(i).unackedFrames(), 0u);
    EXPECT_EQ(h.at(i).backlogFrames(), 0u);
    EXPECT_TRUE(h.at(i).idle());
  }
}

}  // namespace
}  // namespace rasoc::noc
