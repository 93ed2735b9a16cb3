// Section 3 "table": the parametrized performance models.
//
// Measures every critical function of this implementation under the Gemini
// cost model, fits the paper's functional forms with least squares, and
// prints the fitted coefficients next to the paper's Blue Waters values:
//   P_put, P_get, P_acc_sum, P_acc_min, P_CAS, P_fence, P_post/complete/
//   start/wait, P_lock_excl, P_lock_shrd, P_lock_all, P_unlock, P_flush.
#include "bench_util.hpp"
#include "core/window.hpp"
#include "perfmodel/cost_functions.hpp"
#include "perfmodel/fit.hpp"

using namespace fompi;
using namespace fompi::bench;

namespace {

constexpr int kIters = 20;

/// Measures one (size -> us) sweep with rank 0 driving rank 1.
std::vector<perf::Sample> sweep(
    const std::vector<std::size_t>& xs,
    const std::function<double(fabric::RankCtx&, std::size_t)>& fn) {
  std::vector<perf::Sample> out;
  for (auto x : xs) {
    const double us =
        measure(2, internode_model(), 3, [&](fabric::RankCtx& ctx) {
          return fn(ctx, x);
        }).median_us;
    out.push_back(perf::Sample{static_cast<double>(x), us});
  }
  return out;
}

void print_affine(const char* name, const perf::FitResult& fit,
                  double paper_base_us, double paper_slope_ns) {
  std::printf("%-14s = %7.3f ns/B * s + %6.2f us   (paper: %5.2f ns/B * s "
              "+ %5.2f us, R2=%.3f)\n",
              name, fit.slope_us_per_x * 1e3, fit.intercept_us,
              paper_slope_ns, paper_base_us, fit.r2);
}

void print_const(const char* name, double us, double paper_us) {
  std::printf("%-14s = %6.2f us                      (paper: %5.2f us)\n",
              name, us, paper_us);
}

}  // namespace

int main() {
  std::printf("Section 3 performance-model coefficients, fitted from "
              "measurements of this implementation\n\n");
  const perf::PaperModel pm;
  const std::vector<std::size_t> sizes{8, 64, 512, 2048, 3584};
  // (sizes stay below the BTE protocol switch, like the paper's fits)

  // P_put / P_get.
  auto put_fit = perf::fit_affine(
      sweep(sizes, [](fabric::RankCtx& ctx, std::size_t s) {
        static thread_local std::vector<std::byte> buf;
        buf.resize(s);
        core::Win win = core::Win::allocate(ctx, 4096);
        double us = 0;
        if (ctx.rank() == 0) {
          win.lock(core::LockType::exclusive, 1);
          Timer t;
          for (int i = 0; i < kIters; ++i) {
            win.put(buf.data(), s, 1, 0);
            win.flush(1);
          }
          us = t.elapsed_us() / kIters;
          win.unlock(1);
        }
        ctx.barrier();
        win.free();
        return us;
      }));
  print_affine("P_put", put_fit, pm.put().base_us, pm.put().per_byte_ns);

  auto get_fit = perf::fit_affine(
      sweep(sizes, [](fabric::RankCtx& ctx, std::size_t s) {
        static thread_local std::vector<std::byte> buf;
        buf.resize(s);
        core::Win win = core::Win::allocate(ctx, 4096);
        double us = 0;
        if (ctx.rank() == 0) {
          win.lock(core::LockType::exclusive, 1);
          Timer t;
          for (int i = 0; i < kIters; ++i) {
            win.get(buf.data(), s, 1, 0);
            win.flush(1);
          }
          us = t.elapsed_us() / kIters;
          win.unlock(1);
        }
        ctx.barrier();
        win.free();
        return us;
      }));
  print_affine("P_get", get_fit, pm.get().base_us, pm.get().per_byte_ns);

  // P_acc (sum, accelerated) and P_acc (min, fallback) over byte counts.
  const std::vector<std::size_t> acc_sizes{8, 32, 128, 512, 2048};
  auto acc_fit = perf::fit_affine(
      sweep(acc_sizes, [](fabric::RankCtx& ctx, std::size_t s) {
        core::Win win = core::Win::allocate(ctx, 4096);
        std::vector<std::uint64_t> vals(s / 8, 1);
        double us = 0;
        if (ctx.rank() == 0) {
          win.lock(core::LockType::exclusive, 1);
          Timer t;
          for (int i = 0; i < kIters; ++i) {
            win.accumulate(vals.data(), vals.size(), Elem::u64, RedOp::sum,
                           1, 0);
            win.flush(1);
          }
          us = t.elapsed_us() / kIters;
          win.unlock(1);
        }
        ctx.barrier();
        win.free();
        return us;
      }));
  print_affine("P_acc,sum", acc_fit, pm.acc_sum().base_us,
               pm.acc_sum().per_byte_ns);

  // The fallback path is latency-bound until the get+put bandwidth term
  // shows; fit it over larger spans, like the paper's Fig 6a tail.
  const std::vector<std::size_t> min_sizes{4096, 16384, 65536, 262144};
  auto min_fit = perf::fit_affine(
      sweep(min_sizes, [](fabric::RankCtx& ctx, std::size_t s) {
        core::Win win = core::Win::allocate(ctx, 262144);
        std::vector<std::uint64_t> vals(s / 8, 1);
        double us = 0;
        if (ctx.rank() == 0) {
          win.lock(core::LockType::exclusive, 1);
          Timer t;
          for (int i = 0; i < kIters; ++i) {
            win.accumulate(vals.data(), vals.size(), Elem::u64, RedOp::min,
                           1, 0);
            win.flush(1);
          }
          us = t.elapsed_us() / kIters;
          win.unlock(1);
        }
        ctx.barrier();
        win.free();
        return us;
      }));
  print_affine("P_acc,min", min_fit, pm.acc_min.base_us,
               pm.acc_min.per_byte_ns);

  // Constant-cost calls.
  auto const_cost = [&](const std::function<double(fabric::RankCtx&)>& fn) {
    return measure(2, internode_model(), 5, fn).median_us;
  };
  print_const("P_CAS", const_cost([](fabric::RankCtx& ctx) {
                core::Win win = core::Win::allocate(ctx, 64);
                double us = 0;
                if (ctx.rank() == 0) {
                  win.lock(core::LockType::exclusive, 1);
                  std::uint64_t d = 1, c = 0, o = 0;
                  Timer t;
                  for (int i = 0; i < kIters; ++i) {
                    win.compare_and_swap(&d, &c, &o, Elem::u64, 1, 0);
                  }
                  us = t.elapsed_us() / kIters;
                  win.unlock(1);
                }
                ctx.barrier();
                win.free();
                return us;
              }),
              pm.cas_us());
  print_const("P_lock,excl", const_cost([](fabric::RankCtx& ctx) {
                core::Win win = core::Win::allocate(ctx, 64);
                double us = 0;
                if (ctx.rank() == 0) {
                  Timer t;
                  for (int i = 0; i < kIters; ++i) {
                    win.lock(core::LockType::exclusive, 1);
                    win.unlock(1);
                  }
                  us = t.elapsed_us() / kIters;
                }
                ctx.barrier();
                win.free();
                return us;
              }),
              pm.lock_excl_us + pm.unlock_us);
  print_const("P_lock,shrd", const_cost([](fabric::RankCtx& ctx) {
                core::Win win = core::Win::allocate(ctx, 64);
                double us = 0;
                if (ctx.rank() == 0) {
                  Timer t;
                  for (int i = 0; i < kIters; ++i) {
                    win.lock(core::LockType::shared, 1);
                    win.unlock(1);
                  }
                  us = t.elapsed_us() / kIters;
                }
                ctx.barrier();
                win.free();
                return us;
              }),
              pm.lock_shrd_us + pm.unlock_us);
  print_const("P_lock_all", const_cost([](fabric::RankCtx& ctx) {
                core::Win win = core::Win::allocate(ctx, 64);
                Timer t;
                for (int i = 0; i < kIters; ++i) {
                  win.lock_all();
                  win.unlock_all();
                }
                const double us = t.elapsed_us() / kIters;
                win.free();
                return us;
              }),
              pm.lock_all_us + pm.unlock_us);
  print_const("P_flush(empty)", const_cost([](fabric::RankCtx& ctx) {
                core::Win win = core::Win::allocate(ctx, 64);
                win.lock_all();
                Timer t;
                for (int i = 0; i < 200; ++i) win.flush_all();
                const double us = t.elapsed_us() / 200;
                win.unlock_all();
                win.free();
                return us;
              }),
              pm.flush_us);
  print_const("P_sync", const_cost([](fabric::RankCtx& ctx) {
                core::Win win = core::Win::allocate(ctx, 64);
                Timer t;
                for (int i = 0; i < 500; ++i) win.sync();
                const double us = t.elapsed_us() / 500;
                win.free();
                return us;
              }),
              pm.sync_us);

  // PSCW constants at k = 2 (ring, as in Sec 3.2).
  const double pscw_round =
      measure(4, internode_model(), 3, [&](fabric::RankCtx& ctx) {
        core::Win win = core::Win::allocate(ctx, 64);
        const int p = ctx.nranks();
        const fabric::Group nb{(ctx.rank() + p - 1) % p,
                               (ctx.rank() + 1) % p};
        win.post(nb);
        win.start(nb);
        win.complete();
        win.wait();
        Timer t;
        for (int i = 0; i < 5; ++i) {
          win.post(nb);
          win.start(nb);
          win.complete();
          win.wait();
        }
        const double us = t.elapsed_us() / 5;
        win.free();
        return us;
      }).median_us;
  std::printf("%-14s = %6.2f us (full round, k=2)  (paper: %5.2f us = "
              "2*0.35k + 0.7 + 1.8)\n",
              "P_pscw(k=2)", pscw_round, pm.pscw_round_us(2));
  return 0;
}
