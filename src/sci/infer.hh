/**
 * @file
 * SCI inference (paper §3.4 / §5.3): train the elastic-net logistic
 * regression on the labeled invariants from identification (SCI vs
 * identification false positives), validate on a held-out split,
 * then classify every unlabeled invariant. Recommended invariants
 * that the validation corpus exposes as non-invariant are the "clear
 * false positives" the paper's expert struck out; the survivors are
 * grouped into security properties by their point-independent
 * expression shape (Table 5's "33 security properties").
 */

#ifndef SCIFINDER_SCI_INFER_HH
#define SCIFINDER_SCI_INFER_HH

#include <map>

#include "ml/elastic_net.hh"
#include "ml/features.hh"
#include "sci/identify.hh"

namespace scif::sci {

/** Inference configuration (paper §5.3 values). */
struct InferConfig
{
    double trainFraction = 0.7;  ///< 70/30 train/test split
    ml::ElasticNetConfig net;    ///< alpha = 0.5, 3 folds
    uint64_t seed = 0x1fe2;      ///< split seed

    /**
     * Posterior P(security-critical) needed to recommend an
     * unlabeled invariant. The paper does not state its decision
     * rule; 0.6 keeps every invariant the held-out detection
     * experiment (§5.6) relies on while rejecting the bulk of the
     * borderline cases.
     */
    double recommendThreshold = 0.6;

    /**
     * Lower posterior bar for invariants the security-dataflow
     * analysis marks as directly security-classed (a relational
     * invariant whose operands read state in one of the four §2 bug
     * classes, e.g. "l.mfspr -> OPDEST == SPRV"). The static
     * signature acts as a semantic prior: such invariants need less
     * statistical evidence than lexically similar but
     * security-irrelevant ones.
     */
    double semanticThreshold = 0.4;
};

/** Output of the inference phase. */
struct InferenceResult
{
    ml::LogisticModel model;
    ml::FeatureExtractor features;

    size_t labeledSci = 0;     ///< positive labels used
    size_t labeledNonSci = 0;  ///< negative labels used
    double testAccuracy = 0;   ///< held-out split accuracy

    /** Unlabeled invariants the model recommends as SCI. */
    std::vector<size_t> recommended;
    /** Of those, admitted by the semantic prior (below the plain
     *  posterior threshold but directly security-classed). */
    size_t semanticRecommended = 0;
    /** Of those, exposed as non-invariant by validation (the paper's
     *  852 "clear false positives"). */
    std::vector<size_t> clearFalsePositives;
    /** recommended minus clearFalsePositives. */
    std::vector<size_t> inferredSci;
};

/**
 * True when the static security signature justifies the lower
 * semanticThreshold: the invariant relates two pieces of live state
 * (no constant, no value-set enumeration) and at least one operand
 * is directly security-classed. Constant pins like "SPRV == 0" stay
 * on the plain statistical threshold — they are overwhelmingly
 * artifacts of the trace corpus, not security properties.
 */
bool semanticallyImplicated(const expr::Invariant &inv);

/**
 * Run the inference phase.
 *
 * @param set the optimized invariant model.
 * @param db identification output (labels).
 * @param knownNonInvariant validation-corpus violations.
 * @param config tuning.
 * @param pool runs the cross-validation folds and the unlabeled
 *        feature extraction in parallel when given; the result is
 *        identical either way.
 */
InferenceResult infer(const invgen::InvariantSet &set,
                      const SciDatabase &db,
                      const std::set<size_t> &knownNonInvariant,
                      const InferConfig &config = InferConfig(),
                      support::ThreadPool *pool = nullptr);

/**
 * Group invariants into security properties: invariants whose
 * canonical expression (with the program point's mnemonic abstracted
 * away) coincides form one property — e.g. GPR0 == 0 at forty points
 * is a single property.
 *
 * @return map from the group's representative expression to the
 *         member invariant indices.
 */
std::map<std::string, std::vector<size_t>>
groupIntoProperties(const invgen::InvariantSet &set,
                    const std::vector<size_t> &indices);

} // namespace scif::sci

#endif // SCIFINDER_SCI_INFER_HH
