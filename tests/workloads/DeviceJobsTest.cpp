//===- tests/workloads/DeviceJobsTest.cpp - Speculative round identity ----===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Speculative parallel warp-round execution (GPUSTM_DEVICE_JOBS > 1) must
// be invisible in every modeled number: for every workload x variant cell,
// running the same launch with 2 or 4 device jobs has to produce
// bit-identical results, cycles, STM counters, and simulator statistics to
// the serial round loop.  The high-conflict stress case additionally
// proves the machinery actually speculates (and replays) rather than
// trivially serializing, and the death test proves a speculative
// out-of-bounds store still dies through the always-on diagnostics.
//
//===----------------------------------------------------------------------===//

#include "simt/Device.h"
#include "workloads/All.h"
#include "workloads/Harness.h"

#include <gtest/gtest.h>

#include <functional>
#include <string_view>
#include <thread>
#include <vector>

using namespace gpustm;
using namespace gpustm::workloads;

namespace {

const stm::Variant Variants[] = {
    stm::Variant::CGL,       stm::Variant::VBV,
    stm::Variant::TBVSorting, stm::Variant::HVSorting,
    stm::Variant::HVBackoff, stm::Variant::Optimized,
    stm::Variant::EGPGV,
};

HarnessResult runCell(const char *Workload, stm::Variant Kind,
                      unsigned DeviceJobs) {
  HarnessConfig HC;
  HC.Kind = Kind;
  HC.Launches = {simt::LaunchConfig{8, 64}};
  HC.NumLocks = 1u << 12;
  HC.DeviceCfg.DeviceJobs = DeviceJobs;
  auto W = makeWorkload(Workload, 1);
  return runWorkload(*W, HC);
}

/// Every modeled field must match; wall time and the replay count are
/// host-throughput diagnostics and explicitly exempt.
void expectIdentical(const HarnessResult &A, const HarnessResult &B) {
  EXPECT_EQ(A.Completed, B.Completed);
  EXPECT_EQ(A.Verified, B.Verified);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.KernelCycles, B.KernelCycles);
  EXPECT_EQ(A.Stm.Commits, B.Stm.Commits);
  EXPECT_EQ(A.Stm.ReadOnlyCommits, B.Stm.ReadOnlyCommits);
  EXPECT_EQ(A.Stm.Aborts, B.Stm.Aborts);
  EXPECT_EQ(A.Stm.AbortsReadValidation, B.Stm.AbortsReadValidation);
  EXPECT_EQ(A.Stm.AbortsCommitValidation, B.Stm.AbortsCommitValidation);
  EXPECT_EQ(A.Stm.LockFailures, B.Stm.LockFailures);
  EXPECT_EQ(A.Stm.StaleSnapshots, B.Stm.StaleSnapshots);
  EXPECT_EQ(A.Stm.FalseConflictsAvoided, B.Stm.FalseConflictsAvoided);
  EXPECT_EQ(A.Stm.VbvRuns, B.Stm.VbvRuns);
  EXPECT_EQ(A.Stm.TxReads, B.Stm.TxReads);
  EXPECT_EQ(A.Stm.TxWrites, B.Stm.TxWrites);
  EXPECT_EQ(A.Sim.entries(), B.Sim.entries());
  ASSERT_EQ(A.KernelSim.size(), B.KernelSim.size());
  for (size_t K = 0; K < A.KernelSim.size(); ++K)
    EXPECT_EQ(A.KernelSim[K].entries(), B.KernelSim[K].entries());
}

class DeviceJobsMatrixTest : public testing::TestWithParam<const char *> {};

TEST_P(DeviceJobsMatrixTest, EveryVariantBitIdenticalAcrossDeviceJobs) {
  const char *Workload = GetParam();
  for (stm::Variant Kind : Variants) {
    SCOPED_TRACE(testing::Message()
                 << Workload << " / " << stm::variantName(Kind));
    HarnessResult Serial = runCell(Workload, Kind, 1);
    EXPECT_EQ(Serial.HostSpecRounds, 0u);
    HarnessResult Two = runCell(Workload, Kind, 2);
    HarnessResult Four = runCell(Workload, Kind, 4);
    HarnessResult FourAgain = runCell(Workload, Kind, 4);
    for (const HarnessResult *Parallel : {&Two, &Four, &FourAgain})
      expectIdentical(Serial, *Parallel);
    // The window rule reads only committed (deterministic) counters, so
    // the speculative share is a property of the cell, not of the run or
    // of the job count.
    EXPECT_EQ(Two.HostSpecRounds, Four.HostSpecRounds);
    EXPECT_EQ(Four.HostSpecRounds, FourAgain.HostSpecRounds);
    // Lock-serialized CGL and the one-tx-thread-per-block shapes (EGPGV,
    // Labyrinth) step 1.0-1.6 lanes per round in every window: they never
    // leave the serial loop.
    if (Kind == stm::Variant::CGL || Kind == stm::Variant::EGPGV ||
        std::string_view(Workload) == "LB") {
      EXPECT_EQ(Two.HostSpecRounds, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DeviceJobsMatrixTest,
                         testing::Values("RA", "HT", "KM", "GN", "LB", "EB"),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===//
// High-conflict stress: every warp hammers one global clock word
//===----------------------------------------------------------------------===//

struct StressRun {
  simt::LaunchResult Result;
  simt::Word Final = 0;
};

StressRun runClockHammer(unsigned DeviceJobs, unsigned Iters) {
  simt::DeviceConfig DC;
  DC.MemoryWords = 1u << 20;
  DC.NumSMs = 4;
  DC.WatchdogRounds = 1u << 22;
  DC.DeviceJobs = DeviceJobs;
  simt::Device Dev(DC);
  simt::Addr Clock = Dev.hostAlloc(1);
  simt::LaunchConfig L{8, 64};
  StressRun R;
  R.Result = Dev.launch(L, [&](simt::ThreadCtx &Ctx) {
    for (unsigned I = 0; I < Iters; ++I) {
      simt::Word Old = Ctx.atomicAdd(Clock, 1);
      // Read-after-atomic keeps the word in every round's read set, so any
      // concurrently committed round invalidates this one.
      simt::Word Cur = Ctx.load(Clock);
      if (Cur <= Old) // Monotonicity; never true, priced like real code.
        Ctx.store(Clock, Old);
    }
  });
  R.Final = Dev.memory().load(Clock);
  return R;
}

TEST(DeviceJobsStressTest, ClockHammerReplaysAndStaysIdentical) {
  constexpr unsigned Iters = 600;
  StressRun Serial = runClockHammer(1, Iters);
  ASSERT_TRUE(Serial.Result.Completed);
  EXPECT_EQ(Serial.Result.Replays, 0u);
  EXPECT_EQ(Serial.Final, 8u * 64u * Iters);

  StressRun Parallel = runClockHammer(4, Iters);
  ASSERT_TRUE(Parallel.Result.Completed);
  EXPECT_EQ(Parallel.Final, Serial.Final);
  EXPECT_EQ(Parallel.Result.ElapsedCycles, Serial.Result.ElapsedCycles);
  EXPECT_EQ(Parallel.Result.Stats.entries(), Serial.Result.Stats.entries());
  // With every SM's candidate round touching the same word, concurrent
  // speculation must actually happen -- and must be discarded and replayed,
  // not silently serialized.
  EXPECT_GT(Parallel.Result.Replays, 0u);
  EXPECT_GT(Parallel.Result.SpecRounds, 0u);
}

//===----------------------------------------------------------------------===//
// Mixed width: the window rule speculates only on the wide phases
//===----------------------------------------------------------------------===//

struct MixedRun {
  simt::LaunchResult Result;
  std::vector<simt::Word> Final;
};

/// Wide phase (every lane bumps its own word), then a turn-serialized
/// critical section that parks all lanes but one, then a second wide
/// phase once the last turn has passed.
MixedRun runMixedWidth(unsigned DeviceJobs) {
  simt::DeviceConfig DC;
  DC.MemoryWords = 1u << 20;
  DC.NumSMs = 4;
  DC.WatchdogRounds = 1u << 22;
  DC.DeviceJobs = DeviceJobs;
  simt::Device Dev(DC);
  simt::LaunchConfig L{8, 64};
  const unsigned Threads = L.totalThreads();
  simt::Addr Own = Dev.hostAlloc(Threads);
  simt::Addr Turn = Dev.hostAlloc(1);
  simt::Addr Shared = Dev.hostAlloc(1);
  MixedRun R;
  R.Result = Dev.launch(L, [&](simt::ThreadCtx &Ctx) {
    const unsigned Gid = Ctx.globalThreadId();
    for (unsigned I = 0; I < 256; ++I)
      Ctx.atomicAdd(Own + Gid, 1);
    while (Ctx.load(Turn) != Gid)
      Ctx.memWaitEquals(Turn, Gid);
    for (unsigned I = 0; I < 4; ++I)
      Ctx.atomicAdd(Shared, Gid);
    Ctx.store(Turn, Gid + 1);
    while (Ctx.load(Turn) != Threads)
      Ctx.memWaitEquals(Turn, Threads);
    for (unsigned I = 0; I < 256; ++I)
      Ctx.atomicAdd(Own + Gid, Ctx.load(Shared) & 1);
  });
  R.Final.resize(Threads + 2);
  Dev.hostRead(Own, R.Final.data(), Threads + 2);
  return R;
}

TEST(DeviceJobsWindowTest, MixedWidthSpeculatesOnlyTheWidePhases) {
  MixedRun Serial = runMixedWidth(1);
  ASSERT_TRUE(Serial.Result.Completed);
  EXPECT_EQ(Serial.Result.SpecRounds, 0u);
  for (unsigned Jobs : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "device jobs " << Jobs);
    MixedRun Parallel = runMixedWidth(Jobs);
    ASSERT_TRUE(Parallel.Result.Completed);
    EXPECT_EQ(Parallel.Final, Serial.Final);
    EXPECT_EQ(Parallel.Result.ElapsedCycles, Serial.Result.ElapsedCycles);
    EXPECT_EQ(Parallel.Result.TotalRounds, Serial.Result.TotalRounds);
    EXPECT_EQ(Parallel.Result.Stats.entries(), Serial.Result.Stats.entries());
    // The wide phases speculate; the first window and the serialized
    // section run on the serial loop.
    EXPECT_GT(Parallel.Result.SpecRounds, 0u);
    EXPECT_LT(Parallel.Result.SpecRounds, Parallel.Result.TotalRounds);
  }
}

//===----------------------------------------------------------------------===//
// Speculative out-of-bounds store dies through the diagnostics
//===----------------------------------------------------------------------===//

using DeviceJobsDeathTest = ::testing::Test;

/// One warm-up iteration is one round of the storing thread's warp, so its
/// store comes after more rounds than the first (always serial) window
/// holds: it lands inside a speculative window.
constexpr unsigned OutOfBoundsWarmup = simt::Device::SpecWindowRounds + 64;

simt::LaunchResult runOutOfBoundsKernel(simt::Addr StoreTo) {
  simt::DeviceConfig DC;
  DC.MemoryWords = 1u << 16;
  DC.NumSMs = 4;
  DC.DeviceJobs = 4;
  simt::Device Dev(DC);
  simt::LaunchConfig L{8, 64};
  return Dev.launch(L, [&](simt::ThreadCtx &Ctx) {
    for (unsigned I = 0; I < OutOfBoundsWarmup; ++I)
      Ctx.atomicAdd(0, 1); // Warm up so rounds speculate.
    if (Ctx.globalThreadId() == 130)
      Ctx.store(StoreTo, 7);
    Ctx.atomicAdd(0, 1);
  });
}

void speculativeOutOfBoundsStore() { runOutOfBoundsKernel(1u << 16); }

TEST(DeviceJobsDeathTest, InBoundsTwinStoresInsideSpeculativeWindow) {
  // The non-dying twin of the death test below: the same schedule with an
  // in-bounds store.  Every round after the first window speculates, and
  // thread 130 stores only after its warp's warm-up rounds, past the first
  // window.
  simt::LaunchResult R = runOutOfBoundsKernel(1);
  ASSERT_TRUE(R.Completed);
  EXPECT_GT(R.SpecRounds, 0u);
  EXPECT_EQ(R.SpecRounds, R.TotalRounds - simt::Device::SpecWindowRounds);
  EXPECT_GT(R.TotalRounds, 2 * simt::Device::SpecWindowRounds);
}

TEST(DeviceJobsDeathTest, SpeculativeOutOfBoundsStoreAbortsWithCoordinates) {
  // A store past the arena under speculation must produce the same fatal
  // out-of-bounds diagnostic as serial execution (the doomed round is
  // replayed at its serial position, where the report is authoritative),
  // never a raw out-of-range write or a silent discard.
  ASSERT_DEATH(speculativeOutOfBoundsStore(),
               "out-of-bounds global store of word 65536");
}

//===----------------------------------------------------------------------===//
// Concurrent launches from several host threads
//===----------------------------------------------------------------------===//

TEST(DeviceJobsConcurrencyTest, TraceHookedLaunchesOnTwoThreads) {
  // Each launch asks for speculation but carries a trace hook, so both
  // downgrade to the serial loop through the once-per-process warning at
  // the same time (GPUSTM_JOBS sweeps and stmserve workers do this).
  // Under ThreadSanitizer this covers the warning flags.
  auto Run = [](uint64_t &Ops, simt::Word &Final) {
    simt::DeviceConfig DC;
    DC.MemoryWords = 1u << 16;
    DC.NumSMs = 2;
    DC.DeviceJobs = 2;
    simt::Device Dev(DC);
    Dev.setTraceHook([&Ops](const simt::TraceEvent &) { ++Ops; });
    simt::LaunchResult R = Dev.launch(simt::LaunchConfig{2, 64},
                                      [](simt::ThreadCtx &Ctx) {
                                        for (unsigned I = 0; I < 8; ++I)
                                          Ctx.atomicAdd(0, 1);
                                      });
    EXPECT_TRUE(R.Completed);
    EXPECT_EQ(R.SpecRounds, 0u);
    Final = Dev.memory().load(0);
  };
  uint64_t OpsA = 0, OpsB = 0;
  simt::Word FinalA = 0, FinalB = 0;
  std::thread A(Run, std::ref(OpsA), std::ref(FinalA));
  std::thread B(Run, std::ref(OpsB), std::ref(FinalB));
  A.join();
  B.join();
  EXPECT_EQ(FinalA, 2u * 64u * 8u);
  EXPECT_EQ(FinalB, FinalA);
  EXPECT_EQ(OpsA, OpsB);
  EXPECT_GT(OpsA, 0u);
}

} // namespace
