// Shared per-thread workspaces: gemm's (tensor/gemm.h) and conv's im2col
// and column-gradient buffers (nn/conv.cc) belong to threads, not to
// layers, so every network a thread runs shares them. A forward must give
// the bytes it gives alone whatever ran on the thread before it — a
// bigger net that left the buffers oversized and full of its own bytes,
// at 1 and at 4 pool threads — and two networks forwarded at once from
// two threads must not touch each other's buffers (this binary also runs
// under TSan in the smoke_tsan set).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/network.h"
#include "nn/zoo.h"
#include "testing/gemm_forms.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

struct Net {
  std::unique_ptr<nn::Network> net;
  Tensor input;
};

// ALEX+ (conv columns up to 800 x 256, tall-K inner products) is the
// bigger net, LeNet at half width the smaller.
Net make(const std::string& key, double scale, std::uint64_t seed) {
  Net n{nn::make_network(key, {scale, seed}), {}};
  n.net->set_training_mode(false);
  std::vector<std::int64_t> dims = nn::input_shape_for(key).dims();
  dims[0] = 3;
  n.input = Tensor(Shape{dims});
  Rng rng(seed + 100);
  n.input.fill_uniform(rng, -1.0f, 1.0f);
  return n;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.count()) * sizeof(float)) ==
             0;
}

// The net's forward on a new thread with a new pool: every workspace it
// touches starts empty.
Tensor alone(Net& n, int threads) {
  ScopedGlobalThreads pool(threads);
  return testing::on_fresh_thread([&] { return n.net->forward(n.input); });
}

TEST(SharedWorkspace, AlternatingNetsGiveTheirAloneBytes) {
  Net big = make("alex+", 1.0, 7);
  Net small = make("lenet", 0.5, 8);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const Tensor want_big = alone(big, threads);
    const Tensor want_small = alone(small, threads);
    ScopedGlobalThreads pool(threads);
    for (int round = 0; round < 3; ++round) {
      EXPECT_TRUE(same_bytes(want_big, big.net->forward(big.input)))
          << "big, round " << round;
      EXPECT_TRUE(same_bytes(want_small, small.net->forward(small.input)))
          << "small, round " << round;
    }
  }
}

TEST(SharedWorkspace, ConcurrentNetsFromTwoThreadsGiveTheirAloneBytes) {
  Net nets[2] = {make("alex", 0.5, 9), make("lenet", 0.5, 10)};
  const Tensor want[2] = {alone(nets[0], 4), alone(nets[1], 4)};
  ScopedGlobalThreads pool(4);
  bool same[2] = {true, true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round)
        same[t] = same_bytes(want[t], nets[t].net->forward(nets[t].input)) &&
                  same[t];
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(same[0]) << "alex";
  EXPECT_TRUE(same[1]) << "lenet";
}

}  // namespace
}  // namespace qnn
