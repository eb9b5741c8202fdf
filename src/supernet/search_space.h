/**
 * @file
 * Search-space model: a supernet's static structure.
 *
 * A search space is a sequence of m choice blocks, each with n
 * candidate layers (paper §3, Preliminaries). The seven evaluated
 * spaces (Table 1) are provided as named builders; NLP spaces follow
 * the Evolved-Transformer operator family and CV spaces follow
 * AmoebaNet, with per-candidate cost diversity generated from a
 * counter-based RNG so every build of a space is identical.
 */

#ifndef NASPIPE_SUPERNET_SEARCH_SPACE_H
#define NASPIPE_SUPERNET_SEARCH_SPACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "supernet/layer.h"
#include "supernet/layer_table.h"

namespace naspipe {

/** Task family of a search space. */
enum class SpaceFamily {
    Nlp,  ///< Evolved-Transformer style (WNMT dataset)
    Cv,   ///< AmoebaNet style (ImageNet dataset)
};

/** Printable family name. */
const char *spaceFamilyName(SpaceFamily family);

/**
 * Immutable description of one supernet search space.
 */
class SearchSpace
{
  public:
    /**
     * Build a space with generated candidate diversity.
     *
     * Real NAS spaces (Evolved Transformer, AmoebaNet) include
     * skip/identity candidates, so sampled subnets activate only
     * part of the supernet's depth; the paper's own Table 2 "Para."
     * column shows subnets averaging ~60 % of full depth for NLP and
     * ~50 % for CV. When @p skipMass > 0, choice 0 of every block is
     * a parameter-free identity candidate and samplers draw it with
     * probability @p skipMass (the remaining mass is uniform over
     * the parameterized candidates). Parameter-free candidates carry
     * no causal dependency — there is no shared trainable state.
     *
     * @param name display name ("NLP.c1")
     * @param family operator family
     * @param numBlocks number of choice blocks (m)
     * @param choicesPerBlock candidates per block (n)
     * @param seed deterministic seed for candidate cost diversity
     * @param skipMass sampling probability of the skip candidate
     */
    SearchSpace(std::string name, SpaceFamily family, int numBlocks,
                int choicesPerBlock, std::uint64_t seed = 7,
                double skipMass = 0.0);

    const std::string &name() const { return _name; }
    SpaceFamily family() const { return _family; }
    int numBlocks() const { return _numBlocks; }
    int choicesPerBlock() const { return _choicesPerBlock; }

    /** Dataset associated with the family (Table 1). */
    const char *dataset() const;

    /** Reference batch for the family's cost profile. */
    int referenceBatch() const;

    /** Cost profile of candidate @p choice in block @p block. */
    const LayerSpec &
    spec(int block, int choice) const
    {
        // Negative indices wrap to values the table rejects.
        return spec(LayerId{static_cast<std::uint32_t>(block),
                            static_cast<std::uint32_t>(choice)});
    }

    /** Cost profile by LayerId. */
    const LayerSpec &
    spec(const LayerId &id) const
    {
        const LayerSpec *spec = _specs.find(id);
        NASPIPE_ASSERT(spec, "layer (", id.block, ", ", id.choice,
                       ") outside the space");
        return *spec;
    }

    /** Sampling mass of the skip candidate (0: no skip choice). */
    double skipMass() const { return _skipMass; }

    /** Whether candidate (block, choice) carries trainable state. */
    bool parameterized(int block, int choice) const
    {
        return spec(block, choice).paramBytes > 0;
    }

    /** Total parameter bytes of the whole supernet. */
    std::uint64_t totalParamBytes() const { return _totalParamBytes; }

    /** Mean parameter bytes of a sampled subnet (skip-aware). */
    std::uint64_t meanSubnetParamBytes() const;

    /**
     * Probability that two independently sampled subnets share a
     * *parameterized* layer in at least one block — the causal
     * dependency density the CSP scheduler faces.
     */
    double pairDependencyProbability() const;

    /** Number of candidate layers overall (m * n). */
    int totalLayers() const { return _numBlocks * _choicesPerBlock; }

    /** The NAS search-space size: n^m candidate architectures. */
    double logCandidates() const;

  private:
    std::string _name;
    SpaceFamily _family;
    int _numBlocks;
    int _choicesPerBlock;
    double _skipMass;
    LayerTable<LayerSpec> _specs;
    std::uint64_t _totalParamBytes = 0;
};

/** Default skip mass per family, calibrated from Table 2's "Para."
 * column (subnet depth ~63 % for NLP, ~51 % for CV). */
double defaultSkipMass(SpaceFamily family);

/** @name Table 1 space builders
 * The seven default search spaces of the evaluation.
 * @{ */
SearchSpace makeNlpC0();  ///< 48 blocks x 96 layers, WNMT
SearchSpace makeNlpC1();  ///< 48 blocks x 72 layers, WNMT
SearchSpace makeNlpC2();  ///< 48 blocks x 48 layers, WNMT
SearchSpace makeNlpC3();  ///< 48 blocks x 24 layers, WNMT
SearchSpace makeCvC1();   ///< 32 blocks x 48 layers, ImageNet
SearchSpace makeCvC2();   ///< 32 blocks x 24 layers, ImageNet
SearchSpace makeCvC3();   ///< 32 blocks x 12 layers, ImageNet
/** @} */

/** Build a Table 1 space by name ("NLP.c1"); fatal on unknown name. */
SearchSpace makeSpaceByName(const std::string &name);

/** All seven Table 1 space names in the paper's order. */
std::vector<std::string> defaultSpaceNames();

/** A small space for unit tests (4 blocks x 3 choices). */
SearchSpace makeTinySpace(SpaceFamily family = SpaceFamily::Nlp,
                          std::uint64_t seed = 7);

} // namespace naspipe

#endif // NASPIPE_SUPERNET_SEARCH_SPACE_H
