// Component microbenchmarks (google-benchmark): the hot paths under all
// of the scenario benches — the event queue, the token manager, block
// allocation, RAID geometry planning, the page pool, and the auth
// crypto primitives.
#include <benchmark/benchmark.h>

#include "auth/rsa.hpp"
#include "auth/sha256.hpp"
#include "gpfs/alloc.hpp"
#include "gpfs/pagepool.hpp"
#include "gpfs/token.hpp"
#include "sim/simulator.hpp"
#include "storage/raid.hpp"

namespace mgfs {
namespace {

void BM_EventQueue(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      sim.after(static_cast<double>((i * 7919) % batch), [&fired] {
        ++fired;
      });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

// The RPC-deadline pattern: every op arms a watchdog far in the future
// and disarms it almost immediately when the reply lands. 90% of timers
// are cancelled long before expiry, so the structure's cancel cost (and
// whether dead timers keep clogging the queue) dominates.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      const double deadline = 30.0 + static_cast<double>((i * 7919) % 1000) *
                                         1e-3;  // 30s-ish, jittered
      const sim::TimerId id =
          sim.after_cancellable(deadline, [&fired] { ++fired; });
      if (i % 10 != 9) sim.cancel(id);  // reply arrived: disarm
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1000)->Arg(100000);

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(state.range(0), 0xab);
  for (auto _ : state) {
    auto d = auth::sha256(std::span<const std::uint8_t>(data));
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_RsaSignVerify(benchmark::State& state) {
  Rng rng(1);
  auth::KeyPair kp = auth::KeyPair::generate(rng);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const std::string msg = "challenge|" + std::to_string(n++);
    const std::uint64_t sig = auth::sign(kp, msg);
    benchmark::DoNotOptimize(auth::verify(kp.pub, msg, sig));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RsaSignVerify);

void BM_TokenRequestRelease(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  gpfs::TokenManager tm;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const gpfs::ClientId c = static_cast<gpfs::ClientId>(i % clients);
    const Bytes lo = (i * 1024) % (1 << 30);
    auto d = tm.request(c, /*ino=*/i % 64, {lo, lo + 1024}, {lo, lo + 1024},
                        gpfs::LockMode::ro);
    benchmark::DoNotOptimize(d);
    if (i % 4 == 3) tm.release(c, i % 64, {lo, lo + 1024});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenRequestRelease)->Arg(2)->Arg(64);

// Many holders on ONE inode, wide desired windows: the steady state of
// N streaming writers partitioned across a shared file (the fig11 MPI-IO
// shape). Every request clips its desired window against the neighbors'
// holdings, so the per-inode table's probe cost dominates.
void BM_TokenManyHolders(benchmark::State& state) {
  const std::uint64_t holders = static_cast<std::uint64_t>(state.range(0));
  constexpr Bytes kStripe = 1 * MiB;
  gpfs::TokenManager tm;
  // Pre-populate: each holder owns the first half of its stripe rw.
  for (std::uint64_t c = 0; c < holders; ++c) {
    const gpfs::TokenRange half{c * kStripe, c * kStripe + kStripe / 2};
    auto d = tm.request(static_cast<gpfs::ClientId>(c), /*ino=*/7, half, half,
                        gpfs::LockMode::rw);
    if (!d.granted) std::abort();
    // Trim the whole-file widening the first holder received.
    if (d.granted_range.hi == gpfs::kWholeFile) {
      tm.release(static_cast<gpfs::ClientId>(c), 7,
                 {c * kStripe + kStripe / 2, gpfs::kWholeFile});
      if (c == 0 && kStripe > 0) {
        // nothing below stripe 0
      } else {
        tm.release(static_cast<gpfs::ClientId>(c), 7, {0, c * kStripe});
      }
    }
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t c = i % holders;
    const Bytes base = c * kStripe;
    // Narrow required bytes at the edge of the active half, desired =
    // the whole stripe (clipped back by the neighbors).
    auto d = tm.request(static_cast<gpfs::ClientId>(c), 7,
                        {base + kStripe / 2 - 4096, base + kStripe / 2},
                        {base, base + kStripe}, gpfs::LockMode::rw);
    benchmark::DoNotOptimize(d);
    // Release the speculative tail so the table returns to steady state.
    tm.release(static_cast<gpfs::ClientId>(c), 7,
               {base + kStripe / 2, base + kStripe});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenManyHolders)->Arg(64)->Arg(512);

void BM_AllocFree(benchmark::State& state) {
  gpfs::AllocationMap map(std::vector<std::uint64_t>(8, 1 << 20));
  std::vector<gpfs::BlockAddr> live;
  live.reserve(1024);
  std::uint32_t nsd = 0;
  for (auto _ : state) {
    if (live.size() < 1024) {
      auto b = map.allocate_on(nsd++ % 8);
      benchmark::DoNotOptimize(b);
      live.push_back(*b);
    } else {
      for (auto& a : live) benchmark::DoNotOptimize(map.free_block(a).ok());
      live.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocFree);

void BM_RaidPlan(benchmark::State& state) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::vector<storage::Disk*> members;
  for (int i = 0; i < 9; ++i) {
    disks.push_back(std::make_unique<storage::Disk>(
        sim, storage::DiskSpec::sata_250(), Rng(i)));
    members.push_back(disks.back().get());
  }
  storage::RaidSet raid(sim, std::move(members), storage::RaidConfig{});
  Bytes off = 0;
  const bool write = state.range(0) != 0;
  for (auto _ : state) {
    auto plan = raid.plan(off % (100 * GiB), 1 * MiB, write);
    benchmark::DoNotOptimize(plan);
    off += 1 * MiB;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RaidPlan)->Arg(0)->Arg(1);

void BM_PagePool(benchmark::State& state) {
  gpfs::PagePool pool(256 * MiB, 1 * MiB);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.insert_clean({1, i % 512}));
    pool.touch({1, (i / 2) % 512});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PagePool);

}  // namespace
}  // namespace mgfs

BENCHMARK_MAIN();
