// Ablation: transport protocol switch points.
//
// (a) The two-sided baseline's eager/rendezvous threshold: sweeps the
//     threshold against message size — the structural overhead argument of
//     the paper's motivation section (eager pays a copy, rendezvous pays a
//     handshake).
// (b) PSCW vs fence crossover (Sec 6's decision rule): for which neighbor
//     counts k is general active target cheaper than a fence?
// (c) DES noise injection on the PSCW ring (the paper observes system
//     noise beyond 1k processes; refs [14,30]).
#include "bench_util.hpp"
#include "perfmodel/cost_functions.hpp"
#include "simtime/sim_sync.hpp"

using namespace fompi;
using namespace fompi::bench;

namespace {

double pingpong_us(std::size_t size, std::size_t eager_threshold) {
  fabric::FabricOptions opts = internode_model();
  opts.eager_threshold = eager_threshold;
  return measure(2, opts, 3, [&](fabric::RankCtx& ctx) {
           static thread_local std::vector<std::byte> buf;
           buf.resize(size);
           auto& p2p = ctx.fabric().p2p();
           Timer t;
           for (int i = 0; i < 10; ++i) {
             if (ctx.rank() == 0) {
               p2p.send(0, 1, 0, buf.data(), size);
               p2p.recv(0, 1, 1, buf.data(), size);
             } else {
               p2p.recv(1, 0, 0, buf.data(), size);
               p2p.send(1, 0, 1, buf.data(), size);
             }
           }
           return t.elapsed_us() / 20;
         }).median_us;
}

}  // namespace

int main() {
  std::printf("Ablation: protocol switch points\n");

  header("(a) eager vs rendezvous latency [us] by message size");
  const std::vector<std::size_t> sizes{512, 4096, 32768, 262144};
  std::printf("%-24s", "size [B]");
  for (auto s : sizes) std::printf("%12zu", s);
  std::printf("\n");
  {
    std::vector<double> eager, rndv;
    for (auto s : sizes) {
      eager.push_back(pingpong_us(s, /*threshold=*/1 << 20));  // all eager
      rndv.push_back(pingpong_us(s, /*threshold=*/0));         // all rndv
    }
    row("all-eager", eager);
    row("all-rendezvous", rndv);
    std::size_t crossover = sizes.back();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (rndv[i] < eager[i]) {
        crossover = sizes[i];
        break;
      }
    }
    std::printf("rendezvous wins from ~%zu bytes: the copy cost overtakes "
                "the handshake.\n", crossover);
  }

  header("(b) fence vs PSCW crossover (Sec 6 decision rule)");
  const perf::PaperModel pm;
  std::printf("%-10s%18s\n", "p", "critical k*");
  for (int p : {16, 256, 4096, 65536}) {
    int k = 1;
    while (pm.pscw_beats_fence(p, k) && k < 10000) ++k;
    std::printf("%-10d%18d\n", p, k - 1);
  }
  std::printf("PSCW pays off below k*; the fence's %.1fus*log2(p) wins "
              "above it.\n", pm.fence_per_log_us);

  header("(c) system noise on the PSCW ring (DES, p sweep)");
  std::printf("%-10s%16s%16s\n", "p", "quiet [us]", "noisy [us]");
  for (int p : {1024, 8192, 65536}) {
    sim::SyncParams quiet;
    sim::SyncParams noisy;
    noisy.noise = sim::Noise{0.02, 25.0};
    std::printf("%-10d%16.1f%16.1f\n", p,
                sim::simulate_pscw_ring(p, quiet),
                sim::simulate_pscw_ring(p, noisy));
  }
  std::printf("quiet rings are O(1) in p; injected OS noise produces the "
              "jitter the paper\nobserves on runs beyond ~1000 processes "
              "(Fig 6c).\n");
  return 0;
}
