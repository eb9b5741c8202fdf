#include "schedule/exec_predictor.h"

namespace naspipe {

std::vector<SubnetId>
ExecPredictor::lowestQueued(SubnetId exclude,
                            const std::vector<SubnetId> &queuedFwd)
{
    std::vector<SubnetId> picks;
    if (!_enabled)
        return picks;
    for (SubnetId id : queuedFwd) {
        if (id == exclude)
            continue;
        picks.push_back(id);
        if (static_cast<int>(picks.size()) >= kPrefetchDepth)
            break;
    }
    _stats.predicted += picks.size();
    return picks;
}

std::vector<SubnetId>
ExecPredictor::beforeForward(SubnetId current,
                             const std::vector<SubnetId> &queuedFwd)
{
    if (_enabled)
        _stats.beforeForward++;
    return lowestQueued(current, queuedFwd);
}

std::vector<SubnetId>
ExecPredictor::beforeBackward(const std::vector<SubnetId> &queuedFwd)
{
    if (_enabled)
        _stats.beforeBackward++;
    return lowestQueued(-1, queuedFwd);
}

} // namespace naspipe
