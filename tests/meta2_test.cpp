// Tests for the MPI-2-flavoured additions: scatter / alltoall / sendrecv,
// and the language-interoperability helpers.
#include <gtest/gtest.h>

#include <memory>

#include "des/scheduler.hpp"
#include "meta/communicator.hpp"
#include "meta/interop.hpp"
#include "meta/metacomputer.hpp"

namespace gtw::meta {
namespace {

// A standalone single-machine metacomputer is enough for collective
// semantics (the WAN staging is covered by meta_test.cpp).
struct LocalComm {
  des::Scheduler sched;
  Metacomputer mc{sched};
  std::shared_ptr<Communicator> comm;

  explicit LocalComm(int ranks) {
    MachineSpec m;
    m.name = "local";
    m.max_pes = 64;
    const int id = mc.add_machine(m);
    std::vector<ProcLoc> locs;
    for (int i = 0; i < ranks; ++i) locs.push_back({id, i});
    comm = std::make_shared<Communicator>(mc, std::move(locs));
  }
};

TEST(ScatterTest, EveryRankGetsItsSlice) {
  LocalComm f(4);
  std::vector<int> got(4, -1);
  for (int r = 0; r < 4; ++r) {
    std::vector<std::any> slices;
    if (r == 1) slices = {std::any{10}, std::any{11}, std::any{12},
                          std::any{13}};
    f.comm->scatter(r, /*root=*/1, 256,
                    [&got, r](const std::any& s) {
                      got[static_cast<std::size_t>(r)] = std::any_cast<int>(s);
                    },
                    std::move(slices));
  }
  f.sched.run();
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13}));
}

TEST(AlltoallTest, TransposesContributionMatrix) {
  LocalComm f(3);
  std::vector<std::vector<int>> got(3);
  for (int r = 0; r < 3; ++r) {
    std::vector<std::any> row;
    for (int c = 0; c < 3; ++c) row.push_back(std::any{r * 10 + c});
    f.comm->alltoall(r, 64, std::move(row),
                     [&got, r](std::vector<std::any> col) {
                       for (auto& v : col)
                         got[static_cast<std::size_t>(r)].push_back(
                             std::any_cast<int>(v));
                     });
  }
  f.sched.run();
  // Rank r receives column r: {0r, 1r, 2r}.
  EXPECT_EQ(got[0], (std::vector<int>{0, 10, 20}));
  EXPECT_EQ(got[1], (std::vector<int>{1, 11, 21}));
  EXPECT_EQ(got[2], (std::vector<int>{2, 12, 22}));
}

TEST(SendrecvTest, ExchangesLikeAHaloSwap) {
  LocalComm f(2);
  int got0 = -1, got1 = -1;
  f.comm->sendrecv(0, /*dst=*/1, /*send_tag=*/1, 100, std::any{111},
                   /*src=*/1, /*recv_tag=*/2,
                   [&](const Message& m) { got0 = std::any_cast<int>(m.data); });
  f.comm->sendrecv(1, /*dst=*/0, /*send_tag=*/2, 100, std::any{222},
                   /*src=*/0, /*recv_tag=*/1,
                   [&](const Message& m) { got1 = std::any_cast<int>(m.data); });
  f.sched.run();
  EXPECT_EQ(got0, 222);
  EXPECT_EQ(got1, 111);
}

TEST(InteropTest, ColumnMajorRoundTrip2D) {
  std::vector<int> src;
  for (int i = 0; i < 12; ++i) src.push_back(i);  // 4x3, x fastest
  const auto cm = to_column_major(src, 4, 3);
  // Element (x=2, y=1): src[1*4+2] = 6 -> cm[2*3+1].
  EXPECT_EQ(cm[2 * 3 + 1], 6);
  EXPECT_EQ(from_column_major(cm, 4, 3), src);
}

TEST(InteropTest, ColumnMajorRoundTrip3D) {
  const int nx = 3, ny = 4, nz = 2;
  std::vector<int> src;
  for (int i = 0; i < nx * ny * nz; ++i) src.push_back(i * 7);
  const auto cm = to_column_major(src, nx, ny, nz);
  EXPECT_EQ(from_column_major(cm, nx, ny, nz), src);
  // Spot check (x=1, y=2, z=1): src index (1*4+2)*3+1 = 19;
  // z-fastest index z + nz*(y + ny*x) = 1 + 2*(2 + 4*1) = 13.
  EXPECT_EQ(cm[13], src[19]);
}

TEST(InteropTest, TypedEnvelopeByteAccounting) {
  TypedEnvelope env;
  env.type = Datatype::kFloat64;
  env.count = 1000;
  EXPECT_EQ(env.bytes(), 8000u);
  env.type = Datatype::kFloat32;
  EXPECT_EQ(env.bytes(), 4000u);
}

TEST(InteropTest, EnvelopeTravelsThroughCommunicator) {
  LocalComm f(2);
  TypedEnvelope env;
  env.type = Datatype::kFloat64;
  env.count = 512;
  env.column_major = true;
  env.data = std::vector<double>(512, 1.5);

  bool checked = false;
  f.comm->recv(1, 0, 9, [&](const Message& m) {
    const auto got = std::any_cast<TypedEnvelope>(m.data);
    EXPECT_EQ(got.type, Datatype::kFloat64);
    EXPECT_EQ(got.count, 512u);
    EXPECT_TRUE(got.column_major);
    EXPECT_EQ(m.bytes, got.bytes());
    checked = true;
  });
  f.comm->send(0, 1, 9, env.bytes(), env);
  f.sched.run();
  EXPECT_TRUE(checked);
}

// The communicator's own send ledger: every point-to-point message is
// counted with its bytes at the sender, and delivered after the transport
// delay whether or not a receive was posted first.  (Causal spans of WAN
// messages come from the span hook; see tests/span_test.cpp.)
TEST(VampirHookTest, CommunicatorRecordsSendsAndReceives) {
  LocalComm f(3);
  des::SimTime posted_at = des::SimTime::zero();
  des::SimTime unexpected_at = des::SimTime::zero();
  f.comm->recv(2, 0, 5, [&](const Message& m) {
    EXPECT_EQ(m.source, 0);
    EXPECT_EQ(m.bytes, 4096u);
    posted_at = f.sched.now();
  });
  f.comm->send(0, 2, 5, 4096);
  f.comm->send(1, 2, 6, 128);  // unexpected: delivered, no recv posted
  f.sched.run();
  EXPECT_EQ(f.comm->messages_sent(), 2u);
  EXPECT_EQ(f.comm->bytes_sent(), 4096u + 128u);
  // The unexpected message waits at rank 2 until a matching recv claims it.
  f.comm->recv(2, 1, 6, [&](const Message& m) {
    EXPECT_EQ(m.bytes, 128u);
    unexpected_at = f.sched.now();
  });
  // Delivery happened after the send instant (transport delay).
  EXPECT_GT(posted_at, des::SimTime::zero());
  EXPECT_EQ(unexpected_at, f.sched.now());
}

}  // namespace
}  // namespace gtw::meta
