#include "supernet/search_space.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "supernet/profile.h"

namespace naspipe {

const char *
spaceFamilyName(SpaceFamily family)
{
    return family == SpaceFamily::Nlp ? "NLP" : "CV";
}

namespace {

/** Candidate kinds available per family, in cycling order. */
const LayerKind kNlpKinds[] = {
    LayerKind::Conv3x1,       LayerKind::SepConv7x1,
    LayerKind::LightConv5x1,  LayerKind::Attention8Head,
    LayerKind::FeedForward,   LayerKind::GatedLinearUnit,
};

const LayerKind kCvKinds[] = {
    LayerKind::Conv3x3,    LayerKind::SepConv3x3,
    LayerKind::SepConv5x5, LayerKind::DilConv3x3,
    LayerKind::MaxPool3x3, LayerKind::Identity,
};

} // namespace

SearchSpace::SearchSpace(std::string name, SpaceFamily family,
                         int numBlocks, int choicesPerBlock,
                         std::uint64_t seed, double skipMass)
    : _name(std::move(name)), _family(family), _numBlocks(numBlocks),
      _choicesPerBlock(choicesPerBlock), _skipMass(skipMass)
{
    NASPIPE_ASSERT(numBlocks > 0, "space needs at least one block");
    NASPIPE_ASSERT(choicesPerBlock > 0,
                   "space needs at least one choice per block");
    NASPIPE_ASSERT(skipMass >= 0.0 && skipMass < 1.0,
                   "skip mass must be in [0, 1)");
    NASPIPE_ASSERT(skipMass == 0.0 || choicesPerBlock >= 2,
                   "skip candidate needs >= 2 choices per block");

    const auto &db = LayerProfileDb::instance();
    const LayerKind *kinds =
        family == SpaceFamily::Nlp ? kNlpKinds : kCvKinds;
    const int numKinds = 6;

    // Candidate diversity comes from a counter-based generator keyed
    // by the space seed, so spec(b, c) is a pure function of
    // (seed, b, c): rebuilding the space anywhere gives identical
    // costs, which the reproducibility experiments depend on.
    Philox4x32 philox(deriveSeed(seed, "search-space"));

    std::vector<LayerSpec> specs;  // ascending (block, choice)
    specs.reserve(static_cast<std::size_t>(numBlocks) *
                  static_cast<std::size_t>(choicesPerBlock));
    for (int b = 0; b < numBlocks; b++) {
        for (int c = 0; c < choicesPerBlock; c++) {
            if (_skipMass > 0.0 && c == 0) {
                // Choice 0 is the parameter-free skip candidate.
                LayerSpec skip = db.reference(LayerKind::Identity);
                skip.paramBytes = 0;
                skip.swapMs = 0.0;
                specs.push_back(skip);
                continue;
            }
            LayerKind kind = kinds[c % numKinds];
            std::uint64_t counter =
                static_cast<std::uint64_t>(b) *
                    static_cast<std::uint64_t>(choicesPerBlock) + c;
            // Scale in [0.7, 1.3): moderate size diversity, as in
            // real spaces where candidates differ in channel width.
            double scale =
                0.7 + 0.6 * philox.uniformFloat(counter);
            LayerSpec spec = db.scaled(kind, scale);
            _totalParamBytes += spec.paramBytes;
            specs.push_back(spec);
        }
    }
    _specs = LayerTable<LayerSpec>(numBlocks, choicesPerBlock,
                                   std::move(specs));
}

const char *
SearchSpace::dataset() const
{
    return _family == SpaceFamily::Nlp ? "WNMT" : "ImageNet";
}

int
SearchSpace::referenceBatch() const
{
    return _family == SpaceFamily::Nlp ? kNlpReferenceBatch
                                       : kCvReferenceBatch;
}

std::uint64_t
SearchSpace::meanSubnetParamBytes() const
{
    // With skip mass q, a block contributes a parameterized layer
    // with probability (1 - q), uniform over the parameterized
    // candidates; the expected subnet size is therefore
    // (1 - q) * total / (#parameterized per block).
    int paramChoices =
        _skipMass > 0.0 ? _choicesPerBlock - 1 : _choicesPerBlock;
    double mean = (1.0 - _skipMass) *
                  static_cast<double>(_totalParamBytes) /
                  static_cast<double>(paramChoices);
    return static_cast<std::uint64_t>(mean);
}

double
SearchSpace::pairDependencyProbability() const
{
    int paramChoices =
        _skipMass > 0.0 ? _choicesPerBlock - 1 : _choicesPerBlock;
    // P(two subnets pick the same parameterized candidate in one
    // block) = sum over candidates of ((1-q)/paramChoices)^2.
    double pBlock = (1.0 - _skipMass) * (1.0 - _skipMass) /
                    static_cast<double>(paramChoices);
    return 1.0 -
           std::pow(1.0 - pBlock, static_cast<double>(_numBlocks));
}

double
SearchSpace::logCandidates() const
{
    return static_cast<double>(_numBlocks) *
           std::log10(static_cast<double>(_choicesPerBlock));
}

double
defaultSkipMass(SpaceFamily family)
{
    // Calibrated from the paper's Table 2 "Para." column: mean
    // subnet depth / supernet depth is ~474M/(15.5M*48) = 0.63 for
    // the NLP spaces and ~337M/(20.8M*32) = 0.51 for the CV spaces.
    return family == SpaceFamily::Nlp ? 0.37 : 0.49;
}

SearchSpace
makeNlpC0()
{
    return SearchSpace("NLP.c0", SpaceFamily::Nlp, 48, 96, 7,
                       defaultSkipMass(SpaceFamily::Nlp));
}

SearchSpace
makeNlpC1()
{
    return SearchSpace("NLP.c1", SpaceFamily::Nlp, 48, 72, 7,
                       defaultSkipMass(SpaceFamily::Nlp));
}

SearchSpace
makeNlpC2()
{
    return SearchSpace("NLP.c2", SpaceFamily::Nlp, 48, 48, 7,
                       defaultSkipMass(SpaceFamily::Nlp));
}

SearchSpace
makeNlpC3()
{
    return SearchSpace("NLP.c3", SpaceFamily::Nlp, 48, 24, 7,
                       defaultSkipMass(SpaceFamily::Nlp));
}

SearchSpace
makeCvC1()
{
    return SearchSpace("CV.c1", SpaceFamily::Cv, 32, 48, 7,
                       defaultSkipMass(SpaceFamily::Cv));
}

SearchSpace
makeCvC2()
{
    return SearchSpace("CV.c2", SpaceFamily::Cv, 32, 24, 7,
                       defaultSkipMass(SpaceFamily::Cv));
}

SearchSpace
makeCvC3()
{
    return SearchSpace("CV.c3", SpaceFamily::Cv, 32, 12, 7,
                       defaultSkipMass(SpaceFamily::Cv));
}

SearchSpace
makeSpaceByName(const std::string &name)
{
    if (name == "NLP.c0")
        return makeNlpC0();
    if (name == "NLP.c1")
        return makeNlpC1();
    if (name == "NLP.c2")
        return makeNlpC2();
    if (name == "NLP.c3")
        return makeNlpC3();
    if (name == "CV.c1")
        return makeCvC1();
    if (name == "CV.c2")
        return makeCvC2();
    if (name == "CV.c3")
        return makeCvC3();
    fatal("unknown search space: ", name);
}

std::vector<std::string>
defaultSpaceNames()
{
    return {"NLP.c0", "NLP.c1", "NLP.c2", "NLP.c3",
            "CV.c1",  "CV.c2",  "CV.c3"};
}

SearchSpace
makeTinySpace(SpaceFamily family, std::uint64_t seed)
{
    return SearchSpace("tiny", family, 4, 3, seed);
}

} // namespace naspipe
