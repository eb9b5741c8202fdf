#include "train/access_log.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.h"
#include "supernet/search_space.h"

namespace naspipe {

namespace {

void
writeU64(std::ostream &out, std::uint64_t value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

bool
readU64(std::istream &in, std::uint64_t &value)
{
    in.read(reinterpret_cast<char *>(&value), sizeof(value));
    return in.gcount() == sizeof(value);
}

} // namespace

void
AccessLog::record(const LayerId &layer, SubnetId subnet,
                  AccessKind kind, int stage)
{
    if (!_enabled)
        return;
    std::lock_guard<RankedMutex> lock(_recordMu);
    _history[layer].push_back(
        AccessRecord{_nextOrder++, subnet, kind, stage});
}

const std::vector<AccessRecord> &
AccessLog::layerHistory(const LayerId &layer) const
{
    static const std::vector<AccessRecord> kEmpty;
    const std::vector<AccessRecord> *history = _history.find(layer);
    return history ? *history : kEmpty;
}

std::string
AccessLog::renderOrder(const LayerId &layer) const
{
    std::ostringstream oss;
    const auto &history = layerHistory(layer);
    for (std::size_t i = 0; i < history.size(); i++) {
        if (i)
            oss << "-";
        oss << history[i].subnet
            << (history[i].kind == AccessKind::Read ? "F" : "B");
    }
    return oss.str();
}

bool
AccessLog::sequentiallyEquivalent(const LayerId &layer) const
{
    const auto &history = layerHistory(layer);
    // Expect: R(x1) W(x1) R(x2) W(x2) ... with x1 < x2 < ...
    SubnetId last = -1;
    std::size_t i = 0;
    while (i < history.size()) {
        if (history[i].kind != AccessKind::Read)
            return false;
        SubnetId id = history[i].subnet;
        if (id <= last)
            return false;
        if (i + 1 >= history.size() ||
            history[i + 1].kind != AccessKind::Write ||
            history[i + 1].subnet != id) {
            return false;
        }
        last = id;
        i += 2;
    }
    return true;
}

std::vector<LayerId>
AccessLog::touchedLayers() const
{
    std::vector<LayerId> out;
    _history.forEach([&out](const LayerId &layer,
                            const std::vector<AccessRecord> &records) {
        if (!records.empty())
            out.push_back(layer);
    });
    return out;
}

bool
AccessLog::allSequentiallyEquivalent() const
{
    for (const LayerId &layer : touchedLayers()) {
        if (!sequentiallyEquivalent(layer))
            return false;
    }
    return true;
}

void
AccessLog::saveTo(std::ostream &out) const
{
    const std::vector<LayerId> layers = touchedLayers();
    writeU64(out, _nextOrder);
    writeU64(out, layers.size());
    for (const LayerId &layer : layers) {
        const std::vector<AccessRecord> &records = layerHistory(layer);
        writeU64(out, layer.key());
        writeU64(out, records.size());
        for (const auto &rec : records) {
            writeU64(out, rec.order);
            writeU64(out, static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(rec.subnet)));
            writeU64(out, rec.kind == AccessKind::Write ? 1 : 0);
        }
    }
}

bool
AccessLog::loadFrom(std::istream &in, const SearchSpace &space)
{
    clear();
    std::uint64_t nextOrder = 0;
    std::uint64_t numLayers = 0;
    if (!readU64(in, nextOrder) || !readU64(in, numLayers))
        return false;
    // Cleared above, so this copies only the table's shape.
    LayerTable<std::vector<AccessRecord>> loaded = _history;
    std::uint64_t total = 0;
    for (std::uint64_t l = 0; l < numLayers; l++) {
        std::uint64_t key = 0;
        std::uint64_t count = 0;
        if (!readU64(in, key) || !readU64(in, count))
            return false;
        LayerId layer{static_cast<std::uint32_t>(key >> 32),
                      static_cast<std::uint32_t>(key & 0xffffffffULL)};
        // saveTo() writes each touched layer once, none empty.
        const std::vector<AccessRecord> *seen = loaded.find(layer);
        if (static_cast<int>(layer.block) >= space.numBlocks() ||
            static_cast<int>(layer.choice) >= space.choicesPerBlock() ||
            count == 0 || (seen && !seen->empty())) {
            return false;
        }
        // Every record carries a distinct order < nextOrder, so a
        // count exceeding it can only come from a corrupted stream.
        if (count > nextOrder || total + count > nextOrder)
            return false;
        // No reserve(count): count comes from the stream, so the
        // vector grows only as records actually arrive.
        std::vector<AccessRecord> records;
        for (std::uint64_t r = 0; r < count; r++) {
            std::uint64_t order = 0, subnet = 0, kind = 0;
            if (!readU64(in, order) || !readU64(in, subnet) ||
                !readU64(in, kind)) {
                return false;
            }
            if (order >= nextOrder || kind > 1)
                return false;
            records.push_back(AccessRecord{
                order,
                static_cast<SubnetId>(
                    static_cast<std::int64_t>(subnet)),
                kind ? AccessKind::Write : AccessKind::Read});
        }
        total += count;
        loaded[layer] = std::move(records);
    }
    _history = std::move(loaded);
    _nextOrder = nextOrder;
    return true;
}

void
AccessLog::clear()
{
    _history.clear();
    _nextOrder = 0;
}

} // namespace naspipe
