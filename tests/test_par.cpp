// Tests for the in-process message-passing runtime (src/par).

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "par/runtime.hpp"

namespace {

using alps::par::Comm;
using alps::par::CommStats;

class ParRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParRanks, AllgatherReturnsRankOrder) {
  alps::par::run(GetParam(), [](Comm& c) {
    std::vector<int> got = c.allgather(c.rank() * 10);
    ASSERT_EQ(static_cast<int>(got.size()), c.size());
    for (int r = 0; r < c.size(); ++r) EXPECT_EQ(got[r], r * 10);
  });
}

TEST_P(ParRanks, AllgathervConcatenatesVariableLengths) {
  alps::par::run(GetParam(), [](Comm& c) {
    // Rank r contributes r values equal to r.
    std::vector<int> mine(static_cast<std::size_t>(c.rank()), c.rank());
    std::vector<int> got = c.allgatherv(mine);
    std::size_t expect_n = 0;
    for (int r = 0; r < c.size(); ++r) expect_n += static_cast<std::size_t>(r);
    ASSERT_EQ(got.size(), expect_n);
    std::size_t i = 0;
    for (int r = 0; r < c.size(); ++r)
      for (int k = 0; k < r; ++k) EXPECT_EQ(got[i++], r);
  });
}

TEST_P(ParRanks, AllreduceSumMaxMin) {
  alps::par::run(GetParam(), [](Comm& c) {
    const int p = c.size();
    EXPECT_EQ(c.allreduce_sum(c.rank()), p * (p - 1) / 2);
    EXPECT_EQ(c.allreduce_max(c.rank()), p - 1);
    EXPECT_EQ(c.allreduce_min(c.rank()), 0);
    EXPECT_TRUE(c.allreduce_or(c.rank() == 0));
    EXPECT_FALSE(c.allreduce_or(false));
  });
}

TEST_P(ParRanks, ExscanIsExclusivePrefixSum) {
  alps::par::run(GetParam(), [](Comm& c) {
    const std::int64_t mine = c.rank() + 1;
    const std::int64_t pre = c.exscan_sum(mine);
    std::int64_t expect = 0;
    for (int r = 0; r < c.rank(); ++r) expect += r + 1;
    EXPECT_EQ(pre, expect);
  });
}

TEST_P(ParRanks, PointToPointRing) {
  alps::par::run(GetParam(), [](Comm& c) {
    if (c.size() == 1) return;
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    std::vector<double> payload = {1.5 * c.rank(), 2.5 * c.rank()};
    c.send(next, 7, payload);
    std::vector<double> got = c.recv<double>(prev, 7);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], 1.5 * prev);
    EXPECT_DOUBLE_EQ(got[1], 2.5 * prev);
  });
}

TEST_P(ParRanks, ZeroLengthMessageRoundTrips) {
  alps::par::run(GetParam(), [](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    c.send(next, 9, std::vector<double>{});
    c.send(next, 9, std::vector<double>{0.5 * c.rank()});
    EXPECT_TRUE(c.recv<double>(prev, 9).empty());
    const std::vector<double> got = c.recv<double>(prev, 9);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_DOUBLE_EQ(got[0], 0.5 * prev);
  });
}

TEST_P(ParRanks, TagMatchingReordersMessages) {
  alps::par::run(GetParam(), [](Comm& c) {
    if (c.size() < 2) return;
    if (c.rank() == 0) {
      c.send(1, 100, std::vector<int>{1});
      c.send(1, 200, std::vector<int>{2});
    } else if (c.rank() == 1) {
      // Receive in the opposite order they were sent.
      EXPECT_EQ(c.recv<int>(0, 200).at(0), 2);
      EXPECT_EQ(c.recv<int>(0, 100).at(0), 1);
    }
  });
}

TEST_P(ParRanks, AlltoallvRoutesPersonalizedBuffers) {
  alps::par::run(GetParam(), [](Comm& c) {
    const int p = c.size();
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      send[static_cast<std::size_t>(d)] = {c.rank() * 1000 + d};
    auto got = c.alltoallv(send);
    ASSERT_EQ(static_cast<int>(got.size()), p);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(got[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(got[static_cast<std::size_t>(s)][0], s * 1000 + c.rank());
    }
  });
}

TEST_P(ParRanks, BackToBackAlltoallvRoundsStaySeparated) {
  // Successive alltoallv rounds are separated by per-rank epoch tags, not
  // a trailing barrier, so a fast rank may enter round k+1 while a slow
  // one is still draining round k — the payloads must never mix.
  alps::par::run(GetParam(), [](Comm& c) {
    const int p = c.size();
    for (int round = 0; round < 64; ++round) {
      if ((round + c.rank()) % 3 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
      for (int d = 0; d < p; ++d)
        send[static_cast<std::size_t>(d)] = {round * 10000 + c.rank() * 100 + d};
      const auto got = c.alltoallv(send);
      ASSERT_EQ(static_cast<int>(got.size()), p);
      for (int s = 0; s < p; ++s) {
        ASSERT_EQ(got[static_cast<std::size_t>(s)].size(), 1u);
        EXPECT_EQ(got[static_cast<std::size_t>(s)][0],
                  round * 10000 + s * 100 + c.rank());
      }
    }
  });
}

TEST(ParStats, AlltoallvPerformsNoBarrier) {
  // The epoch-tagged rounds replaced the trailing barrier; alltoallv must
  // not show up in the barrier counter any more.
  CommStats s = alps::par::run(4, [](Comm& c) {
    std::vector<std::vector<int>> send(4);
    send[static_cast<std::size_t>((c.rank() + 1) % 4)] = {1, 2, 3};
    c.alltoallv(send);
    c.alltoallv(send);
  });
  EXPECT_EQ(s.alltoall_calls, 8u);
  EXPECT_EQ(s.barrier_calls, 0u);
}

TEST_P(ParRanks, RepeatedCollectivesDoNotInterleave) {
  alps::par::run(GetParam(), [](Comm& c) {
    for (int round = 0; round < 50; ++round) {
      const int sum = c.allreduce_sum(round + c.rank());
      const int p = c.size();
      EXPECT_EQ(sum, round * p + p * (p - 1) / 2);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParRanks, ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(ParStats, CountsPointToPointTraffic) {
  CommStats s = alps::par::run(2, [](Comm& c) {
    if (c.rank() == 0) c.send(1, 1, std::vector<char>(128, 'x'));
    if (c.rank() == 1) c.recv<char>(0, 1);
    c.barrier();
  });
  EXPECT_EQ(s.p2p_messages, 1u);
  EXPECT_EQ(s.p2p_bytes, 128u);
  EXPECT_EQ(s.barrier_calls, 2u);
}

TEST(ParStats, CountsCollectivePayloadBytes) {
  // Byte counters record the payload each rank contributes, summed over
  // ranks, alongside the per-rank call counters.
  CommStats s = alps::par::run(2, [](Comm& c) {
    c.allreduce_sum(1.0);                       // 8 bytes per rank
    c.allgather(42);                            // 4 bytes per rank
    std::vector<std::vector<int>> send(2);
    send[static_cast<std::size_t>(1 - c.rank())] = {7, 8};  // 8 bytes to peer
    c.alltoallv(send);
  });
  EXPECT_EQ(s.allreduce_calls, 2u);
  EXPECT_EQ(s.allreduce_bytes, 16u);
  EXPECT_EQ(s.allgather_calls, 2u);
  EXPECT_EQ(s.allgather_bytes, 8u);
  EXPECT_EQ(s.alltoall_calls, 2u);
  EXPECT_EQ(s.alltoall_bytes, 16u);
}

TEST(ParStats, ExscanAndAllgathervCountPayloadBytes) {
  CommStats s = alps::par::run(2, [](Comm& c) {
    c.exscan_sum(static_cast<std::int64_t>(c.rank()));  // 8 bytes per rank
    std::vector<double> mine(static_cast<std::size_t>(c.rank() + 1), 1.0);
    c.allgatherv(mine);  // 8 and 16 bytes
  });
  EXPECT_EQ(s.allreduce_bytes, 16u);   // exscan counts under allreduce
  EXPECT_EQ(s.allgather_bytes, 24u);
}

TEST(ParRun, PropagatesUniformExceptions) {
  EXPECT_THROW(alps::par::run(3,
                              [](Comm&) {
                                throw std::runtime_error("boom");
                              }),
               std::runtime_error);
}

TEST(ParRun, RejectsNonPositiveSize) {
  EXPECT_THROW(alps::par::run(0, [](Comm&) {}), std::invalid_argument);
}

}  // namespace
