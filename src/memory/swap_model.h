/**
 * @file
 * Swap-cost model and memory capacity planning.
 *
 * Two concerns live here. SwapModel converts parameter bytes to
 * CPU<->GPU copy times over pinned memory (the asynchronous copy_()
 * path of §4.2). CapacityPlanner derives, for a (search space, system
 * model, pipeline depth) combination, what actually fits in GPU
 * memory: the per-GPU resident parameter footprint, the pinned CPU
 * storage, and — most importantly — the largest supported batch size,
 * which Table 2 shows is the dominant lever behind NASPipe's
 * throughput advantage.
 */

#ifndef NASPIPE_MEMORY_SWAP_MODEL_H
#define NASPIPE_MEMORY_SWAP_MODEL_H

#include <cstdint>

#include "hw/cluster.h"
#include "schedule/scheduler.h"
#include "supernet/profile.h"
#include "supernet/search_space.h"

namespace naspipe {

/**
 * Converts bytes to swap durations over one PCIe DMA engine.
 */
class SwapModel
{
  public:
    /**
     * @param bytesPerSec sustained pinned-memory copy bandwidth
     * @param latency fixed per-copy setup latency
     */
    explicit SwapModel(double bytesPerSec = kPcieBytesPerSec,
                       Tick latency = 10 * kTicksPerUs);

    /** Copy duration for @p bytes. */
    Tick swapTime(std::uint64_t bytes) const;

    /** Copy duration in milliseconds (for reports / Table 5). */
    double swapMs(std::uint64_t bytes) const;

    double bytesPerSec() const { return _bytesPerSec; }

  private:
    double _bytesPerSec;
    Tick _latency;
};

/** Workload-dependent activation/compute calibration constants. */
struct ActivationModel {
    /**
     * Bytes of activation + workspace one sample occupies across the
     * whole pipeline while its subnet is in flight (before the
     * recompute / version multipliers below distribute it per GPU).
     */
    std::uint64_t bytesPerSample = 0;
    /** Footprint multiplier with activation recomputation on. */
    double recomputeFactor = 0.25;
    /** Largest batch the workload's algorithm uses (paper Table 2). */
    int maxBatch = 0;
    /** Smallest batch a system can usefully train with. */
    int minBatch = 8;
    /**
     * Bytes per sample of the boundary activation shipped between
     * adjacent stages (and of the matching gradient message).
     */
    std::uint64_t boundaryBytesPerSample = 0;
    /**
     * Kernel fixed-overhead expressed as an equivalent batch size:
     * a task at batch B takes time proportional to
     * (overheadBatch + B), and its useful ALU efficiency is
     * B / (overheadBatch + B). Captures why small-batch baselines
     * burn wall-clock without filling the SM array (Table 2's low
     * GPU ALU rows for GPipe/PipeDream).
     */
    int overheadBatch = 0;
    /** Global compute-time scale calibrated to Table 2's Exec. */
    double computeScale = 1.0;
};

/** Default activation model for a space family. */
ActivationModel defaultActivationModel(SpaceFamily family);

/** What the planner decided for one (space, system, D) combination. */
struct CapacityPlan {
    bool fits = false;            ///< false => OOM (paper: NLP.c0)
    int batch = 0;                ///< largest supported batch
    std::uint64_t residentParamBytesPerGpu = 0;
    std::uint64_t activationBytesPerGpu = 0;
    std::uint64_t cpuMemBytesTotal = 0;  ///< pinned CPU storage
    std::uint64_t reportedParamBytes = 0;  ///< Table 2 "Para." column

    /**
     * The §4.2 per-stage parameter-cache cap under @p mode (0, i.e.
     * unlimited, for AllResident). The planned footprint covers the
     * ~3 moving contexts of §3.3 (previous/current/next); contexts
     * awaiting their backward pass also linger, so the enforced cap
     * is 3x the plan — under pressure the LRU awaiting-backward
     * contexts are evicted and re-fetched by the predictor's
     * released-backward path. Both executors enforce this cap.
     */
    std::uint64_t cacheBudgetBytes(MemoryMode mode) const
    {
        return mode == MemoryMode::AllResident
                   ? 0
                   : 3 * residentParamBytesPerGpu;
    }
};

/**
 * Derives batch sizes and memory footprints (Table 2's B.S., GPU
 * Mem., CPU Mem. and Para. columns) from first principles of each
 * system's residency strategy.
 */
class CapacityPlanner
{
  public:
    /**
     * @param space the search space (only its aggregate sizes are
     *        copied; the planner does not retain a reference)
     * @param gpu GPU parameters (capacity)
     * @param activation workload calibration (defaulted per family)
     */
    CapacityPlanner(const SearchSpace &space, const GpuConfig &gpu,
                    const ActivationModel &activation);

    /** Convenience: family-default activation model. */
    CapacityPlanner(const SearchSpace &space, const GpuConfig &gpu);

    /** Plan for @p system at pipeline depth @p numStages. */
    CapacityPlan plan(const SystemModel &system, int numStages) const;

    /**
     * Plan with an externally pinned batch (the paper's
     * reproducibility methodology fixes the batch across GPU
     * counts). fits reflects whether the pinned batch's activations
     * still fit next to the resident parameters.
     */
    CapacityPlan planWithBatch(const SystemModel &system,
                               int numStages, int batch) const;

    const ActivationModel &activation() const { return _activation; }

    /**
     * GPU bytes not usable for parameters/activations: CUDA context,
     * cuDNN workspaces, communication buffers and allocator
     * fragmentation. 2.5 GB on an 11 GB 2080Ti, calibrated so the
     * derived batch sizes land on Table 2 (GPipe NLP.c1 ~32,
     * PipeDream ~12-16) and NLP.c0 exceeds capacity for the
     * all-resident baselines, as the paper reports.
     */
    static constexpr std::uint64_t kReserveBytes = 2560ULL << 20;

  private:
    /** Resident parameter bytes per GPU under @p system. */
    double residentParams(const SystemModel &system,
                          int numStages) const;

    /** Activation bytes one sample occupies per GPU. */
    double perSampleBytes(const SystemModel &system,
                          int numStages) const;

    std::uint64_t _supernetBytes;
    std::uint64_t _subnetBytes;
    GpuConfig _gpu;
    ActivationModel _activation;
};

} // namespace naspipe

#endif // NASPIPE_MEMORY_SWAP_MODEL_H
