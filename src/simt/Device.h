//===- simt/Device.h - Simulated GPU device and scheduler -------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated GPU: global memory, a grid/block/warp hierarchy, per-SM
/// greedy warp scheduling with latency hiding, block residency in waves
/// (Fermi-style), a livelock watchdog, and statistics collection.  The
/// default configuration approximates the paper's NVIDIA C2070: 14 SMs,
/// warp size 32, up to 8 blocks / 48 warps / 1536 threads resident per SM.
///
/// The simulation is fully deterministic: memory operations take effect in
/// warp-round issue order, which is itself a deterministic function of the
/// cost model.  This both makes every experiment reproducible and gives the
/// STM a sequentially consistent memory substrate by default (fences cost
/// cycles but need no functional effect).  Attaching a wmm::MemModel
/// (setWmmModel; GPUSTM_WMM=1 via the harness) opts into a weakly ordered
/// substrate -- per-lane store buffers plus stale load bindings, resolved
/// by a seeded oracle -- so the protocol's fences are functionally tested
/// (DESIGN.md section 11).  By default the round loop is serial; with
/// GPUSTM_DEVICE_JOBS > 1, windows of wide rounds from different SMs
/// execute speculatively on worker threads but still *commit* in the serial
/// (issue-cycle, SM-index) order, so all outputs stay bit-identical
/// (DESIGN.md section 9).
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SIMT_DEVICE_H
#define GPUSTM_SIMT_DEVICE_H

#include "simt/Memory.h"
#include "simt/SanHooks.h"
#include "wmm/MemModel.h"
#include "simt/Spec.h"
#include "simt/Timing.h"
#include "simt/Warp.h"
#include "support/Compiler.h"
#include "support/SmallVector.h"
#include "support/Stats.h"

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

namespace gpustm {
namespace simt {

/// Device-wide configuration.
struct DeviceConfig {
  /// Threads per warp (<= 64; the paper's hardware uses 32).
  unsigned WarpSize = 32;
  /// Streaming multiprocessors (C2070: 14).
  unsigned NumSMs = 14;
  /// Residency limits per SM (Fermi).
  unsigned MaxBlocksPerSM = 8;
  unsigned MaxWarpsPerSM = 48;
  unsigned MaxThreadsPerSM = 1536;
  /// Global memory size in 32-bit words.
  size_t MemoryWords = 16u << 20;
  /// Usable fiber stack bytes per lane.
  size_t StackBytes = 64 * 1024;
  /// Abort the launch after this many warp rounds (livelock watchdog).
  uint64_t WatchdogRounds = 400u << 20;
  /// Host threads executing warp rounds speculatively inside one launch
  /// (results stay bit-identical to the serial schedule; see DESIGN.md
  /// section 9).  0 = read GPUSTM_DEVICE_JOBS; 1 = the serial round loop.
  unsigned DeviceJobs = 0;
  /// Schedule perturbation for fuzzing (DESIGN.md section 10): a nonzero
  /// seed replaces the scheduler's deterministic tie-breaking (first
  /// ready-now warp in round-robin order; lowest SM index across SMs) with
  /// a seeded hash of the tie set, so each seed explores a different -- but
  /// still fully deterministic and replayable -- interleaving.  0 = read
  /// GPUSTM_SCHED_FUZZ (whose own default, 0/unset, disables the mode).
  uint64_t SchedFuzzSeed = 0;
  /// Cycle cost model.
  TimingConfig Timing;
};

/// One kernel launch: gridDim blocks of blockDim threads.
struct LaunchConfig {
  unsigned GridDim = 1;
  unsigned BlockDim = 32;

  unsigned totalThreads() const { return GridDim * BlockDim; }
};

/// Outcome of a kernel launch.
struct LaunchResult {
  /// True when every thread ran to completion.
  bool Completed = false;
  /// True when the round watchdog stopped a (live)locked kernel.
  bool WatchdogTripped = false;
  /// True when no lane could make progress (e.g. SIMT divergence deadlock:
  /// Algorithm 1 Scheme #1 of the paper).
  bool Deadlocked = false;
  /// Modeled kernel time in GPU cycles (max over SMs).
  uint64_t ElapsedCycles = 0;
  /// Total warp rounds executed.
  uint64_t TotalRounds = 0;
  /// Speculative rounds discarded and re-executed (always 0 in serial mode;
  /// a host-side quality metric -- never part of the modeled stats).
  uint64_t Replays = 0;
  /// Rounds committed in speculative windows of a DeviceJobs > 1 launch
  /// (always 0 in serial mode; host-side like Replays -- never part of the
  /// modeled stats).
  uint64_t SpecRounds = 0;
  /// Per-phase cycles, memory transactions, atomics, ... (see Device.cpp
  /// for the counter names).
  StatsSet Stats;
};

/// Kernel body type: one invocation per simulated thread.
using KernelFn = std::function<void(ThreadCtx &)>;

/// One traced lane operation (see Device::setTraceHook).
struct TraceEvent {
  uint64_t IssueCycle; ///< Issue time of the warp round.
  unsigned BlockIdx;
  unsigned WarpIdInBlock;
  unsigned LaneIdx;
  unsigned SmIdx; ///< SM the lane's block is resident on.
  OpKind Kind;
  Addr Address;   ///< InvalidAddr for non-memory ops.
  Word Value = 0; ///< Memory content at Address after the op (0 otherwise).
  Phase LanePhase;
};

/// Callback invoked once per traced lane operation.
using TraceHookFn = std::function<void(const TraceEvent &)>;

/// Per-block bookkeeping while a block is resident.
struct BlockState {
  unsigned BlockIdx = 0;
  unsigned HomeSM = 0;
  std::vector<std::unique_ptr<Warp>> Warps;
  /// Lanes that have not finished the kernel.
  unsigned LiveLanes = 0;
  /// Lanes currently parked at the block barrier.
  unsigned BarrierArrived = 0;
};

/// The simulated GPU (see file comment).  SimCounters lives in simt/Spec.h
/// (speculative rounds accumulate a private delta of it).
class Device {
public:
  explicit Device(const DeviceConfig &Config);
  ~Device();

  /// DeviceJobs > 1 launches run in windows of SpecWindowRounds committed
  /// rounds, starting serial; the next window speculates iff the last one
  /// averaged at least SpecMinLaneStepsPerRound lane steps per round
  /// (DESIGN.md section 9).  Measured on 4 cores as 3-job time over serial
  /// time, by steps/round: every cell at <= 4.1 lost (LB/Optimized 1.01:
  /// 5.0x; the CGL cells 1.24-1.61: 8.0-8.8x; KM/Optimized 3.30: 2.9x;
  /// KM/HV-Backoff 4.11: 2.3x), the low-conflict cells at >= 11 won
  /// (EB/Optimized 11.0: 0.70x; RA/Optimized 11.6: 0.72x; HT/Optimized
  /// 32.0: 0.81x).  GN/Optimized (21.1: 1.22x) is wide but replays 29% of
  /// its rounds.
  static constexpr uint64_t SpecWindowRounds = 1024;
  static constexpr uint64_t SpecMinLaneStepsPerRound = 8;

  Device(const Device &) = delete;
  Device &operator=(const Device &) = delete;

  /// The device's global memory.
  Memory &memory() { return Mem; }
  const Memory &memory() const { return Mem; }

  const DeviceConfig &config() const { return Config; }

  /// Launch \p Kernel over \p Launch and simulate to completion (or until
  /// the watchdog trips / a deadlock is detected).
  LaunchResult launch(const LaunchConfig &Launch, KernelFn Kernel);

  /// Install (or clear, with nullptr) a per-operation trace hook: called
  /// for every lane operation of every subsequent round, in issue order.
  /// Tracing is for debugging and tests; it has no effect on timing.
  void setTraceHook(TraceHookFn Hook) { TraceHook = std::move(Hook); }

  /// Attach (or detach, with nullptr) a simtsan observer.  Observation is
  /// host-side only: modeled cycles, counters, and results are bit-identical
  /// with or without an observer.  Caller keeps ownership; the observer must
  /// outlive the launches it watches.  No-op under GPUSTM_NO_SAN.
  void setSanHooks(SanHooks *Hooks) {
#if GPUSTM_SAN_ENABLED
    San = Hooks;
#else
    (void)Hooks;
#endif
  }
  /// The attached simtsan observer (null when none).
  SanHooks *sanHooks() const {
#if GPUSTM_SAN_ENABLED
    return San;
#else
    return nullptr;
#endif
  }

  /// Attach (or detach, with nullptr) a weak-memory model (src/wmm/).
  /// Caller keeps ownership; the model must outlive the launches it
  /// relaxes.  While attached, launches run on the serial round loop and
  /// the model's reorderings change *values* (that is the point); a
  /// simtsan observer or trace hook on the same launch wins -- both
  /// assume SC memory -- and disables the model with a one-line warning.
  void setWmmModel(wmm::MemModel *M) { Wmm = M; }
  /// The attached weak-memory model (null when none).
  wmm::MemModel *wmmModel() const { return Wmm; }

  /// Current simulated time (issue cycle of the executing warp round).
  /// Host-side controllers (e.g. the STM's adaptive transaction scheduler)
  /// use this to measure throughput in modeled cycles.  Under speculative
  /// execution the calling thread's round carries its own issue cycle.
  uint64_t now() const {
    const RoundSpec *S = ActiveSpecTLS;
    return GPUSTM_UNLIKELY(S != nullptr) ? S->Issue : CurrentIssueCycle;
  }

  /// Force every launch of this device onto the serial round loop, as if
  /// GPUSTM_DEVICE_JOBS=1 (with a one-line warning when that downgrades a
  /// larger request).  Called by observers whose hooks assume serial round
  /// order (transaction tracing, simtsan).
  void requireSerialExecution() { SerialObserver = true; }

  /// Host-side per-thread client state (the STM's transaction descriptors),
  /// registered so speculative rounds can checkpoint and restore it along
  /// with the lane fibers.  \p Locate returns the fixed-size record of one
  /// global thread id; it must be safe to call from worker threads.
  struct LaneStateHook {
    size_t StateBytes = 0;
    std::function<void *(unsigned GlobalThreadId)> Locate;
  };
  /// Install (or clear, with StateBytes == 0) the client lane-state hook.
  void setLaneStateHook(LaneStateHook Hook) { LaneHook = std::move(Hook); }

  /// Host-side single-word read that observes the calling thread's
  /// in-flight round, if any: host controllers invoked from device code
  /// (e.g. the STM's schedulers) must see that round's buffered stores, and
  /// a speculative round must log the read for commit-time validation.
  Word hostLoadWord(Addr A) const {
    RoundSpec *S = ActiveSpecTLS;
    if (GPUSTM_UNLIKELY(S != nullptr))
      return S->specLoad(Mem, A);
    return Mem.load(A);
  }

  /// Host-side helpers (the CPU side of the CUDA API in Figure 1).
  Addr hostAlloc(size_t NumWords) { return Mem.allocate(NumWords); }
  void hostFill(Addr Base, size_t NumWords, Word Value);
  void hostWrite(Addr Base, const Word *Data, size_t NumWords);
  void hostRead(Addr Base, Word *Data, size_t NumWords) const;

private:
  friend class Warp;
  friend class ThreadCtx;

  /// A parked memWait: lane LaneIdx of W resumes when the watched word
  /// equals Aux (BitClear=false) or has all Aux bits clear (BitClear=true).
  struct WatchEntry {
    Warp *W;
    unsigned LaneIdx;
    Word Aux;
    MemWaitKind Wait;
  };

  /// Wake watchers of \p A whose condition now holds.  Fast no-op when no
  /// memWait is outstanding.
  void notifyWrite(Addr A) {
    if (GPUSTM_LIKELY(Watchpoints.empty()))
      return;
    notifyWriteSlow(A);
  }
  void notifyWriteSlow(Addr A);
  /// A watchpoint bucket: the lanes parked on one address.  Nearly always
  /// at most a handful of waiters (one lock word's contenders), so give the
  /// bucket inline storage and never rebuild it on wake -- dead entries are
  /// compacted in place by notifyWriteSlow.
  using WatchBucket = SmallVector<WatchEntry, 4>;
  /// Register a watchpoint for a lane parked at a memWait.
  void addWatch(Addr A, const WatchEntry &E) { Watchpoints[A].push_back(E); }

  /// Per-SM scheduler state.
  struct SmState {
    uint64_t Clock = 0;
    std::vector<std::unique_ptr<BlockState>> Blocks;
    /// Flattened list of resident warps for round-robin picking.
    std::vector<Warp *> WarpList;
    unsigned ResidentWarps = 0;
    unsigned ResidentThreads = 0;
    unsigned RoundRobin = 0;
    /// Cached next-issue candidate and its WarpList index, keyed by issue
    /// time: CandIssue == max(Clock, CandWarp->ReadyAt) is the cycle the
    /// candidate would issue at, so the global SM pick and the round-robin
    /// advance are O(1) reads instead of rescans.
    Warp *CandWarp = nullptr;
    uint64_t CandIssue = 0;
    unsigned CandIdx = 0;
    /// Set when a lane finish made some resident block fully finished, so
    /// retirement scans run only on rounds that can retire something.
    bool RetirePending = false;
  };

  /// Fiber entry point: runs the current kernel for one lane.
  static void laneEntry(void *LanePtr);

  /// Activate pending blocks on any SM with residency headroom.
  void activatePendingBlocks();
  /// Construct BlockState + warps + lane fibers for block \p BlockIdx.
  std::unique_ptr<BlockState> buildBlock(unsigned BlockIdx, unsigned HomeSM);
  /// Retire fully finished blocks on \p Sm, recycling their stacks.
  /// Returns true when a block was removed (residency headroom changed).
  bool retireFinishedBlocks(SmState &Sm);
  /// Recompute the cached issue candidate for \p Sm.
  void recomputeCandidate(SmState &Sm);
  /// Schedule-fuzz variant (SchedSeed != 0): the candidate is drawn from
  /// the ready-now set (or the min-ReadyAt tie set) by a seeded hash of
  /// deterministic SM state, not round-robin order.
  void recomputeCandidateFuzzed(SmState &Sm);
  /// The launch loops' cross-SM pick: the SM whose cached candidate issues
  /// earliest.  Ties go to the lowest SM index -- or, under schedule fuzz,
  /// to a seeded hash of the tie set.  Null when no SM has a candidate.
  SmState *pickIssueSm();
  /// Fold a lane's attribution counters into the launch totals.
  void rollupLane(const Lane &L);
  /// Called by Warp when a lane arrives at the block barrier / finishes.
  void noteBarrierArrival(BlockState &Block);
  void noteLaneFinished(BlockState &Block);
  /// Discard all in-flight fibers after a watchdog trip or deadlock.
  void discardInFlight();

  //===--------------------------------------------------------------------===//
  // Speculative parallel execution (GPUSTM_DEVICE_JOBS > 1)
  //===--------------------------------------------------------------------===//

  /// One slot per SM: the SM's next round, handed off to worker threads.
  /// Transitions: Idle -> Queued (coordinator) -> Running (worker claim, or
  /// coordinator inline claim) -> Done (worker) -> Idle (coordinator).  The
  /// Queued->Running CAS and the Done release/acquire pair carry all
  /// cross-thread hand-off ordering.
  struct SpecSlot {
    enum : uint32_t { Idle = 0, Queued = 1, Running = 2, Done = 3 };
    std::atomic<uint32_t> State{Idle};
    RoundSpec Spec;
  };

  /// Worker modes (SpecMode): workers sleep on Parked during serial windows.
  enum : uint32_t { SpecParked = 0, SpecRunning = 1, SpecQuit = 2 };

  /// Worker count for this launch: config / GPUSTM_DEVICE_JOBS, forced to 1
  /// (with a one-line warning) by serial-order observers or on targets
  /// without the fast fiber backend.
  unsigned resolveDeviceJobs() const;
  /// The classic serial round loop.  Runs until the launch ends, or until
  /// RoundsExecuted reaches \p StopRound at a round boundary (returns true:
  /// the launch goes on).  StopRound = watchdogStop() runs the whole
  /// launch (DeviceJobs == 1): the stop is the watchdog compare.
  bool runSerialLoop(LaunchResult &Result, uint64_t StopRound);
  /// The round count at which the watchdog trips: WatchdogRounds + 1,
  /// saturating.
  uint64_t watchdogStop() const {
    return Config.WatchdogRounds + (Config.WatchdogRounds != UINT64_MAX);
  }
  /// The DeviceJobs > 1 loop: windows of SpecWindowRounds rounds, each on
  /// the serial loop or the speculative engine by the last window's width.
  void runParallelLoop(LaunchResult &Result, unsigned Jobs);
  /// One speculative window: the workers plus the coordinator commit rounds
  /// until the launch ends or RoundsExecuted reaches \p StopRound (returns
  /// true: the launch goes on).
  bool runSpecWindow(LaunchResult &Result, uint64_t StopRound);
  /// Worker thread body: claim Queued slots, checkpoint, execute, mark Done;
  /// block on SpecMode while parked.
  void specWorkerLoop();
  /// Queue a fresh spec on every SM with a candidate and an idle slot.
  void queueSpecs();
  /// Snapshot everything a speculative round may mutate eagerly (see the
  /// RoundSpec file comment) so restoreRound can undo it bit-exactly.
  void takeCheckpoint(RoundSpec &S);
  /// Undo an executed speculative round from its checkpoint.
  void restoreRound(RoundSpec &S);
  /// Cancel (Queued) or doom+join+restore (Running/Done) SM \p SmIdx's
  /// in-flight spec, leaving the slot Idle.
  void reclaimSpec(unsigned SmIdx);
  /// Reclaim every in-flight spec (retirement, watchdog, loop exit).
  void drainAllSpecs();
  /// Reclaim every spec except the calling replay's own (host serial
  /// points; called from ThreadCtx::hostSerialPoint).
  void drainSpecsForSerialPoint();
  /// Commit \p S at the head of the serial order: reclaim watcher SMs its
  /// writes may wake, apply the write buffer with serial wake semantics,
  /// register surviving parks, recycle stacks, fold counters, and advance
  /// the SM clock / round-robin exactly like the serial loop.  Returns
  /// false when the round watchdog tripped.
  bool commitApply(SmState &Sm, RoundSpec &S);
  /// Snapshot \p Block's other warps into the active spec before a barrier
  /// release / lane-finish wake mutates their scheduling state.
  void snapshotSiblings(RoundSpec &S, BlockState &Block);

  DeviceConfig Config;
  Memory Mem;
  StackPool Stacks;

  // Launch-scoped state.
  KernelFn CurrentKernel;
  TraceHookFn TraceHook;
#if GPUSTM_SAN_ENABLED
  /// Attached simtsan observer (null when detached; see setSanHooks).
  SanHooks *San = nullptr;
  /// Warp gid of the warp whose round is currently executing (wake-edge
  /// attribution for onWakeEdge); only maintained while San is attached.
  unsigned SanCurWarpGid = 0;
#endif
  LaunchConfig CurrentLaunch;
  std::vector<SmState> Sms;
  std::unordered_map<Addr, WatchBucket> Watchpoints;
  /// Issue cycle of the warp round currently executing (wake timing).
  uint64_t CurrentIssueCycle = 0;
  unsigned NextPendingBlock = 0;
  unsigned LiveBlocks = 0;
  uint64_t RoundsExecuted = 0;
  /// Speculation state (empty / zero until a launch's first speculative
  /// window, and whenever DeviceJobs resolves to 1).
  std::vector<std::unique_ptr<SpecSlot>> SpecSlots;
  std::vector<std::thread> SpecWorkers;
  std::atomic<uint32_t> SpecMode{SpecParked};
  uint64_t Replays = 0;
  uint64_t SpecRounds = 0;
  bool SerialObserver = false;
  /// Attached weak-memory model (see setWmmModel) and the launch-scoped
  /// active pointer: non-null only while a launch is actually relaxing
  /// memory, so every hot-path hook is one pointer test when off.
  wmm::MemModel *Wmm = nullptr;
  wmm::MemModel *ActiveWmm = nullptr;
  /// Resolved schedule-fuzz seed (0 = off; see DeviceConfig::SchedFuzzSeed).
  uint64_t SchedSeed = 0;
  LaneStateHook LaneHook;
  SimCounters Counters;
  uint64_t PhaseTotals[NumPhases] = {};
  uint64_t AbortedTotal = 0;
  StatsSet LaunchStats;
};

} // namespace simt
} // namespace gpustm

#endif // GPUSTM_SIMT_DEVICE_H
