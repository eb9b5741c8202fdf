#include "schedule/predictor.h"

#include <algorithm>

#include "common/logging.h"
#include "schedule/csp_scheduler.h"

namespace naspipe {

void
Predictor::beforeBackward(const StageInfo &stage, SubnetId received,
                          const std::vector<PendingBackward> &nextBwds,
                          const FetchFn &fetch)
{
    NASPIPE_ASSERT(fetch, "predictor requires a fetch callback");
    _stats.calls++;

    // Lines 4-8: pre-add the received backward to L_f and re-run
    // SCHEDULE(); the produced forward is likely next.
    SubnetId fwd = CspPolicy::schedulableForward(stage, received);
    if (fwd >= 0) {
        fetch(Task{TaskType::Forward, fwd, stage.stageIndex()},
              PredictReason::AfterBackward);
        _stats.fetchesRequested++;
    }

    // Lines 9-10: remember the pending backwards the message carried.
    // A record whose precedence forward already ran here can never be
    // released (each forward runs once per stage), so it is not kept.
    // The simulator carries the next stage's queued forwards, which
    // have all run here, so in practice nothing is kept.
    std::erase_if(_forwardsRun, [&stage](SubnetId id) {
        return stage.deps().finished(id);
    });
    for (const auto &bwd : nextBwds) {
        bool ran = stage.deps().finished(bwd.precedence) ||
                   std::ranges::find(_forwardsRun, bwd.precedence) !=
                       _forwardsRun.end();
        if (!ran && std::ranges::find(_blocked, bwd) == _blocked.end()) {
            _blocked.push_back(bwd);
            _stats.pendingRecorded++;
        }
    }
}

void
Predictor::beforeForward(const StageInfo &stage, SubnetId current,
                         const FetchFn &fetch)
{
    NASPIPE_ASSERT(fetch, "predictor requires a fetch callback");
    _stats.calls++;
    _forwardsRun.push_back(current);

    // Lines 13-15: the current forward may release a pending
    // backward; fetch its context ahead of arrival.
    for (auto it = _blocked.begin(); it != _blocked.end();) {
        if (it->precedence == current) {
            fetch(Task{TaskType::Backward, it->id,
                       stage.stageIndex()},
                  PredictReason::ReleasedBackward);
            _stats.fetchesRequested++;
            it = _blocked.erase(it);
        } else {
            ++it;
        }
    }

    // Lines 16-18: predict the forward scheduled after this one.
    // The runtime pops the current forward from L_q before calling
    // (Algorithm 1 line 20 precedes line 21), so re-running
    // SCHEDULE() yields the *following* runnable forward; the
    // inequality guard keeps the call safe even if it did not.
    SubnetId fwd = CspPolicy::schedulableForward(stage);
    if (fwd >= 0 && fwd != current) {
        fetch(Task{TaskType::Forward, fwd, stage.stageIndex()},
              PredictReason::AfterForward);
        _stats.fetchesRequested++;
    }
}

} // namespace naspipe
