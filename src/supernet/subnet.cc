#include "supernet/subnet.h"

#include <sstream>

#include "common/logging.h"

namespace naspipe {

Subnet::Subnet(SubnetId id, std::vector<std::uint16_t> choices)
    : _id(id), _choices(std::move(choices))
{
    NASPIPE_ASSERT(id >= 0, "subnet sequence ID must be non-negative");
    NASPIPE_ASSERT(!_choices.empty(), "subnet must have choices");
}

bool
Subnet::sharesLayerWith(const Subnet &other) const
{
    return sharesLayerInRange(other, 0, size() - 1);
}

std::vector<int>
Subnet::sharedBlocks(const Subnet &other) const
{
    NASPIPE_ASSERT(other.size() == size(),
                   "subnets from different spaces");
    std::vector<int> blocks;
    for (int b = 0; b < size(); b++) {
        if (_choices[static_cast<std::size_t>(b)] ==
            other._choices[static_cast<std::size_t>(b)]) {
            blocks.push_back(b);
        }
    }
    return blocks;
}

bool
Subnet::sharesLayerInRange(const Subnet &other, int firstBlock,
                           int lastBlock) const
{
    NASPIPE_ASSERT(other.size() == size(),
                   "subnets from different spaces");
    NASPIPE_ASSERT(firstBlock >= 0 && lastBlock < size() &&
                       firstBlock <= lastBlock,
                   "bad block range [", firstBlock, ",", lastBlock, "]");
    for (int b = firstBlock; b <= lastBlock; b++) {
        if (_choices[static_cast<std::size_t>(b)] ==
            other._choices[static_cast<std::size_t>(b)]) {
            return true;
        }
    }
    return false;
}

std::uint64_t
Subnet::paramBytes(const SearchSpace &space) const
{
    std::uint64_t total = 0;
    for (int b = 0; b < size(); b++)
        total += space.spec(b, choice(b)).paramBytes;
    return total;
}

double
Subnet::fwdMs(const SearchSpace &space, int batch) const
{
    double total = 0.0;
    for (int b = 0; b < size(); b++) {
        total += space.spec(b, choice(b))
                     .fwdMsAt(batch, space.referenceBatch());
    }
    return total;
}

double
Subnet::bwdMs(const SearchSpace &space, int batch) const
{
    double total = 0.0;
    for (int b = 0; b < size(); b++) {
        total += space.spec(b, choice(b))
                     .bwdMsAt(batch, space.referenceBatch());
    }
    return total;
}

std::string
Subnet::toString() const
{
    std::ostringstream oss;
    oss << "SN" << _id << "[";
    for (int b = 0; b < size(); b++) {
        if (b)
            oss << ",";
        oss << choice(b);
    }
    oss << "]";
    return oss.str();
}

} // namespace naspipe
