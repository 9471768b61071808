//===- bench/simspeed.cpp - Host simulator-throughput baseline ------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Unlike the figure/table benches (which report *modeled* GPU numbers),
// this bench tracks how fast the simulator itself runs on the host: warp
// rounds per second and lane fiber switches per round across a small set
// of engine regimes -- locking with parked waiters (CGL), read-set
// revalidation floods (VBV), lock-sorted commit (HV-Sorting), and the
// paper's optimized variant on contrasting workloads.  BENCH_simspeed.json
// is the regression baseline for host-performance work: modeled cycles
// must stay bit-identical across host optimizations while wall_ms and
// rounds_per_sec move.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace gpustm;
using namespace gpustm::bench;
using namespace gpustm::workloads;

int main() {
  unsigned Scale = benchScale();
  printBanner("Simulator speed: host throughput across engine regimes",
              "host-side baseline (no paper artifact)");

  // Engine regimes, cheapest cells first.  VBV runs on HT (not RA: the RA
  // read-set revalidation flood alone takes minutes and would dwarf every
  // other row; HT exercises the same code path at a bench-friendly size).
  struct Scenario {
    const char *Workload;
    stm::Variant Kind;
    const char *Regime;
  };
  const std::vector<Scenario> Scenarios = {
      {"RA", stm::Variant::CGL, "ticket lock, parked waiters"},
      {"RA", stm::Variant::HVSorting, "sorted commit locking"},
      {"RA", stm::Variant::Optimized, "hierarchical validation"},
      {"HT", stm::Variant::VBV, "global-seqlock revalidation"},
      {"HT", stm::Variant::Optimized, "low-conflict hash table"},
      {"KM", stm::Variant::Optimized, "high-conflict tiny data"},
  };

  size_t NumLocks = (64u << 10) * Scale;
  BenchJson Json("simspeed");

  std::vector<HarnessResult> Results =
      runSweep<HarnessResult>(Scenarios.size(), [&](size_t I) {
        HarnessConfig HC;
        HC.Kind = Scenarios[I].Kind;
        HC.Launches = launchFor(Scenarios[I].Workload, Scale);
        HC.NumLocks = NumLocks;
        auto W = makeWorkload(Scenarios[I].Workload, Scale);
        return runWorkload(*W, HC);
      });

  std::printf("%-4s %-16s %-30s %12s %12s %10s %8s\n", "WL", "Variant",
              "Regime", "rounds", "rounds/sec", "wall-ms", "sw/rnd");
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    const Scenario &S = Scenarios[I];
    const HarnessResult &R = Results[I];
    uint64_t Rounds = R.Sim.get("simt.rounds");
    std::printf("%-4s %-16s %-30s %12llu %12.0f %10.1f %8.2f\n", S.Workload,
                stm::variantName(S.Kind), S.Regime,
                static_cast<unsigned long long>(Rounds), R.roundsPerSec(),
                R.wallMs(), R.switchesPerRound());
    auto Row = Json.row();
    Row.str("workload", S.Workload)
        .str("variant", stm::variantName(S.Kind))
        .str("regime", S.Regime)
        .num("cycles", R.TotalCycles)
        .num("commits", R.Stm.Commits)
        .num("aborts", R.Stm.Aborts)
        .num("rounds", Rounds)
        .flag("ok", R.Completed && R.Verified);
    wallFields(Row, R);
  }

  // Device-jobs sweep: fig2/fig3-class cells executed serially and with
  // speculative parallel warp rounds inside one simulated device -- a wide
  // low-conflict cell (RA x Optimized) and a lock-serialized narrow one
  // (RA x CGL), which the window rule keeps on the serial loop.  Modeled
  // numbers must be bit-identical at every level; wall_ms, rounds/sec and
  // the replay rate are the host-throughput story.  Run sequentially (never
  // under runSweep) so each level owns the machine.
  const stm::Variant SweepVariants[] = {stm::Variant::Optimized,
                                        stm::Variant::CGL};
  for (stm::Variant Kind : SweepVariants) {
    std::printf("\nDevice-jobs sweep (GPUSTM_DEVICE_JOBS inside one device, "
                "RA x %s):\n",
                stm::variantName(Kind));
    std::printf("%-6s %12s %12s %10s %10s %10s %11s %9s\n", "jobs",
                "cycles", "rounds/sec", "wall-ms", "replays", "repl-rate",
                "spec-rounds", "speedup");
    double SerialWallMs = 0.0;
    for (unsigned Jobs : {1u, 2u, 4u}) {
      HarnessConfig HC;
      HC.Kind = Kind;
      HC.Launches = launchFor("RA", Scale);
      HC.NumLocks = NumLocks;
      HC.DeviceCfg.DeviceJobs = Jobs;
      auto W = makeWorkload("RA", Scale);
      HarnessResult R = runWorkload(*W, HC);
      if (Jobs == 1)
        SerialWallMs = R.wallMs();
      double Speedup = R.wallMs() > 0.0 ? SerialWallMs / R.wallMs() : 0.0;
      std::printf("%-6u %12llu %12.0f %10.1f %10llu %10.4f %11llu %8.2fx\n",
                  Jobs, static_cast<unsigned long long>(R.TotalCycles),
                  R.roundsPerSec(), R.wallMs(),
                  static_cast<unsigned long long>(R.HostReplays),
                  R.replayRate(),
                  static_cast<unsigned long long>(R.HostSpecRounds), Speedup);
      auto Row = Json.row();
      Row.str("workload", "RA")
          .str("variant", stm::variantName(Kind))
          .str("regime", "device-jobs sweep")
          .num("device_jobs", static_cast<uint64_t>(Jobs))
          .num("cycles", R.TotalCycles)
          .num("commits", R.Stm.Commits)
          .num("aborts", R.Stm.Aborts)
          .num("rounds", R.Sim.get("simt.rounds"))
          .flag("ok", R.Completed && R.Verified);
      wallFields(Row, R);
    }
  }

  std::printf("\nrounds/sec, wall-ms, replays, spec-rounds and speedup are "
              "host throughput (vary run to run or with the job count); "
              "cycles/commits/aborts/rounds are modeled and must be "
              "bit-identical across host optimizations and "
              "GPUSTM_DEVICE_JOBS levels.\n");
  return 0;
}
