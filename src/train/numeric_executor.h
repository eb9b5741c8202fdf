/**
 * @file
 * Numeric subnet executor.
 *
 * Executes subnets' forward/backward passes *numerically* against the
 * shared ParameterStore, in whatever interleaving the simulated
 * pipeline produces. The three update semantics map to the three
 * synchronization disciplines of the paper:
 *
 *  - Immediate: the backward pass applies the optimizer step right
 *    away (NASPipe's CSP, and also plain sequential training).
 *  - WeightStash: gradients are computed against the parameter
 *    version snapshotted at forward time, then applied to the
 *    current parameters (PipeDream's ASP).
 *  - Deferred: gradients are computed at backward time but the
 *    parameter WRITE happens only at the bulk flush
 *    (GPipe/VPipe/Retiarii BSP).
 *
 * Each training batch is represented by a deterministic digest vector
 * derived from (dataSeed, subnet ID) — the moral equivalent of a
 * seeded DataLoader (§4.1); batch size affects simulated *time*, not
 * the numeric trajectory, which keeps cross-GPU-count comparisons
 * meaningful.
 *
 * All per-subnet numeric state — activations, each forward's
 * tanh(z), gradient cursors, weight stashes, deferred gradients —
 * lives in a per-subnet bump Arena and is addressed through
 * TensorViews, so the steady-state forward/backward path performs
 * no heap allocation and no vector copies. Under Config::precision
 * == Fp16Rne every stored value is rounded through binary16 (see
 * tensor/kernels/precision.h); the arithmetic itself stays binary32.
 */

#ifndef NASPIPE_TRAIN_NUMERIC_EXECUTOR_H
#define NASPIPE_TRAIN_NUMERIC_EXECUTOR_H

#include <array>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <vector>

#include "common/lock_rank.h"
#include "common/rng.h"
#include "memory/arena.h"
#include "tensor/kernels/precision.h"
#include "tensor/sgd.h"
#include "train/param_store.h"

namespace naspipe {

/** When parameter WRITEs take effect. */
enum class UpdateSemantics {
    Immediate,
    WeightStash,
    Deferred,
};

/** Printable name. */
const char *updateSemanticsName(UpdateSemantics semantics);

/**
 * Held-out evaluation data: one input digest and its teacher target
 * per batch, already rounded to the storage precision. It depends
 * only on the eval seed and the executor's data seed, so a search
 * builds it once and scores every candidate against it.
 */
struct EvalSet {
    std::vector<Tensor> inputs;
    std::vector<Tensor> targets;
};

/**
 * Numeric executor over one parameter store.
 */
class NumericExecutor
{
  public:
    /** Executor configuration. */
    struct Config {
        std::uint64_t dataSeed = 99;  ///< seeded "DataLoader"
        SgdConfig sgd;
        bool trackLoss = true;        ///< keep the loss history
        /**
         * Batch size the digests stand for. Mini-batch gradients are
         * noisy estimates whose standard error shrinks as
         * 1/sqrt(batch); the executor models that with a
         * deterministic counter-based perturbation of magnitude
         * gradNoise / sqrt(batch) per update, so systems that only
         * fit small batches (GPipe, PipeDream) genuinely converge to
         * worse plateaus per step — the effect behind Figure 4 and
         * Table 2's Score column. The perturbation is a pure
         * function of (dataSeed, writer, layer, element): identical
         * across GPU counts, so CSP reproducibility is untouched.
         */
        int batch = 1;
        double gradNoise = 0.05;  ///< 0 disables the noise model
        /**
         * Apply the linear learning-rate scaling rule: the effective
         * learning rate is sgd.learningRate * batch / the family's
         * reference batch, so a step over a bigger batch makes
         * proportionally more progress — the reason Figure 4's
         * big-batch systems converge faster per wall-clock second.
         */
        bool scaleLrWithBatch = true;
        /** Storage precision of the whole numeric trajectory. */
        kernels::PrecisionMode precision =
            kernels::PrecisionMode::Fp32;
    };

    NumericExecutor(ParameterStore &store, const Config &config);

    /** Allocate the in-flight context of @p subnet (input, target). */
    void beginSubnet(const Subnet &subnet);

    /**
     * Forward pass over blocks [lo, hi] (must continue contiguously
     * from the last forward call of this subnet). @p stage tags the
     * access-log records with the issuing pipeline stage (-1 when the
     * caller has none, e.g. sequential reference runs).
     */
    void forwardStage(const Subnet &subnet, int lo, int hi,
                      UpdateSemantics semantics, int stage = -1);

    /**
     * Compute the loss after the last forward stage and seed the
     * backward gradient. Returns the loss.
     */
    float computeLoss(const Subnet &subnet);

    /**
     * Backward pass over blocks [lo, hi] (must continue contiguously
     * downward from the last backward call).
     */
    void backwardStage(const Subnet &subnet, int lo, int hi,
                       UpdateSemantics semantics, int stage = -1);

    /** Release @p subnet's context; returns its training loss. */
    float finishSubnet(const Subnet &subnet);

    /**
     * BSP flush: apply the deferred gradients of @p subnets in
     * ascending sequence-ID order ("performs parameter updates in
     * bulk").
     */
    void applyDeferredUpdates(std::vector<SubnetId> subnets);

    /**
     * Reference semantics: run @p subnet start-to-finish sequentially
     * with immediate updates. CSP executions must be bitwise
     * equivalent to a pure sequence of these calls.
     */
    float trainSequential(const Subnet &subnet);

    /** The @p evalBatches held-out batches drawn from @p evalSeed. */
    EvalSet makeEvalSet(std::uint64_t evalSeed,
                        int evalBatches = 4) const;

    /**
     * Evaluation-only loss of @p subnet on @p eval (no logging, no
     * updates). Used for subnet scoring. The batches go through each
     * layer together, as rows of one layerForward call; each batch's
     * loss has the bits it would have alone.
     */
    float evaluate(const Subnet &subnet, const EvalSet &eval);

    /** Losses of finished subnets in completion order. */
    const std::vector<float> &lossHistory() const
    {
        return _lossHistory;
    }

    /** Mean of the last @p window losses (the "supernet loss"). */
    double recentMeanLoss(std::size_t window) const;

    /** Number of subnets currently in flight. */
    std::size_t inflight() const
    {
        std::shared_lock<RankedSharedMutex> lock(_ctxMu);
        return _contexts.size();
    }

    /** Whether @p id currently has an in-flight context. */
    bool inflightSubnet(SubnetId id) const
    {
        std::shared_lock<RankedSharedMutex> lock(_ctxMu);
        return _contexts.count(id) != 0;
    }

    ParameterStore &store() { return _store; }

    /** The storage precision this executor runs under. */
    kernels::PrecisionMode precision() const
    {
        return _config.precision;
    }

  private:
    /**
     * Per-in-flight-subnet training state. Every view points into
     * the context's own arena; the whole context (arena included)
     * dies at finishSubnet, so no view outlives its storage.
     */
    struct SubnetContext {
        /**
         * What a block's forward leaves for its backward: tanh(z)
         * and the store version of the layer it read.
         */
        struct ForwardRecord {
            TensorView tanhZ;
            std::uint64_t version = 0;
        };

        Subnet subnet;
        Arena arena;
        std::vector<TensorView> act; ///< act[b] = input to block b
        std::vector<ForwardRecord> fwd; ///< per parameterized block
        TensorView gradCursor;   ///< dL/d act at the backward front
        TensorView gradScratch;  ///< backward ping-pong buffer
        TensorView target;
        LayerGradsView blockGrads{TensorView(), TensorView()};
        int fwdProgress = 0;     ///< next block to forward
        int bwdProgress = -1;    ///< next block to backward
        bool lossComputed = false;
        float loss = 0.0f;
        std::map<int, LayerParamsView> stashed; ///< WeightStash
        std::map<int, LayerGradsView> deferred; ///< Deferred
    };

    SubnetContext &context(SubnetId id);
    void fillDigest(TensorView out, SubnetId id, const char *tag,
                    std::uint64_t salt) const;
    void fillTeacherTarget(TensorView out, ConstTensorView input) const;
    void applyUpdate(const Subnet &subnet, int block,
                     ConstTensorView gradWeight,
                     ConstTensorView gradBias, int stage);
    /** Storage rounding under the configured precision (no-op fp32). */
    void quantizeStored(TensorView v) const
    {
        kernels::quantizeInPlace(_config.precision, v.data(),
                                 v.size());
    }

    ParameterStore &_store;
    Config _config;
    SgdOptimizer _optimizer;
    /// The teacher's per-element map target = tanh(a * x + b); a pure
    /// function of dataSeed, drawn once by the constructor.
    std::array<float, kLayerDim> _teacherA{};
    std::array<float, kLayerDim> _teacherB{};
    Philox4x32 _gradNoise;  ///< keyed by (dataSeed, "grad-noise")
    /// Guards the _contexts *map structure* (begin/finish insert and
    /// erase; stage workers look contexts up concurrently). A context
    /// body needs no lock: the pipeline token moves a subnet between
    /// stages one at a time, and the inbox hand-off orders the
    /// accesses.
    mutable RankedSharedMutex _ctxMu{LockRank::TrainContext};
    std::map<SubnetId, SubnetContext> _contexts;
    std::vector<float> _lossHistory;
};

} // namespace naspipe

#endif // NASPIPE_TRAIN_NUMERIC_EXECUTOR_H
