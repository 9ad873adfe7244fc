#include "infer.hh"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "analysis/secflow.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/threadpool.hh"

namespace scif::sci {

namespace {

/**
 * A feature row in the form unlabeled invariants are deduplicated
 * under: the bit patterns of its nonzero entries, and their hash.
 * Rows set a handful of the features, so the keys stay small, and
 * denseRow() restores the row bit for bit.
 */
struct RowKey
{
    std::vector<std::pair<uint32_t, uint64_t>> entries; ///< (j, bits)
    uint64_t hash = 0;

    bool operator==(const RowKey &o) const { return entries == o.entries; }
};

struct RowKeyHash
{
    size_t operator()(const RowKey &key) const { return key.hash; }
};

/** @return the key of feature row @p x, hashed FNV-1a style over its
 *  entries. */
RowKey
rowKey(const std::vector<double> &x)
{
    RowKey key;
    key.hash = 0xcbf29ce484222325ull;
    for (size_t j = 0; j < x.size(); ++j) {
        uint64_t bits = 0;
        std::memcpy(&bits, &x[j], sizeof bits);
        if (bits == 0)
            continue;
        key.entries.emplace_back(uint32_t(j), bits);
        key.hash = (key.hash ^ j ^ bits ^ (bits >> 32)) * 0x100000001b3ull;
    }
    return key;
}

/** @return the @p size-feature row @p key was made from. */
std::vector<double>
denseRow(const RowKey &key, size_t size)
{
    std::vector<double> x(size, 0.0);
    for (const auto &[j, bits] : key.entries)
        std::memcpy(&x[j], &bits, sizeof bits);
    return x;
}

/** Unlabeled invariants keyed per parallel pass; bounds the keys held
 *  at once. */
constexpr size_t extractWave = 4096;

} // namespace

bool
semanticallyImplicated(const expr::Invariant &inv)
{
    if (inv.op == expr::CmpOp::In || inv.lhs.isConst ||
        inv.rhs.isConst)
        return false;
    return !analysis::invariantSignature(
                analysis::StateGraph::instance(), inv)
                .direct()
                .empty();
}

InferenceResult
infer(const invgen::InvariantSet &set, const SciDatabase &db,
      const std::set<size_t> &knownNonInvariant,
      const InferConfig &config, support::ThreadPool *pool)
{
    InferenceResult result;

    // Assemble the labeled data. y = 1 means NON-security-critical
    // (the paper's convention).
    std::vector<size_t> sci = db.sciIndices();
    std::vector<size_t> nonSci = db.nonSciIndices();
    result.labeledSci = sci.size();
    result.labeledNonSci = nonSci.size();
    SCIF_ASSERT(!sci.empty() && !nonSci.empty());

    std::vector<size_t> labeled;
    std::vector<int> labels;
    for (size_t idx : sci) {
        labeled.push_back(idx);
        labels.push_back(0);
    }
    for (size_t idx : nonSci) {
        labeled.push_back(idx);
        labels.push_back(1);
    }

    // 70/30 split.
    Rng rng(config.seed);
    std::vector<size_t> perm = rng.permutation(labeled.size());
    size_t trainCount =
        size_t(double(labeled.size()) * config.trainFraction);

    ml::Matrix Xtrain(trainCount, result.features.size());
    std::vector<int> ytrain(trainCount);
    for (size_t i = 0; i < trainCount; ++i) {
        size_t k = perm[i];
        auto x = result.features.extract(set.all()[labeled[k]]);
        for (size_t j = 0; j < x.size(); ++j)
            Xtrain.at(i, j) = x[j];
        ytrain[i] = labels[k];
    }

    result.model = ml::fitElasticNet(Xtrain, ytrain, config.net, pool);

    // Held-out accuracy.
    size_t correct = 0, total = 0;
    for (size_t i = trainCount; i < labeled.size(); ++i) {
        size_t k = perm[i];
        auto x = result.features.extract(set.all()[labeled[k]]);
        int predicted = result.model.predict(x) >= 0.5 ? 1 : 0;
        correct += predicted == labels[k];
        ++total;
    }
    result.testAccuracy =
        total ? double(correct) / double(total) : 0.0;

    // Classify every unlabeled invariant. Feature rows are extracted
    // and keyed on the pool a wave at a time; many invariants share a
    // row, so the model predicts each distinct row once. Decisions are
    // made in index order.
    std::set<size_t> labeledSet(labeled.begin(), labeled.end());
    std::vector<size_t> unlabeled;
    for (size_t idx = 0; idx < set.size(); ++idx) {
        if (!labeledSet.count(idx))
            unlabeled.push_back(idx);
    }
    std::unordered_map<RowKey, double, RowKeyHash> pSciOfRow;
    std::vector<RowKey> keys;
    for (size_t base = 0; base < unlabeled.size(); base += extractWave) {
        keys.resize(std::min(extractWave, unlabeled.size() - base));
        support::parallelFor(pool, keys.size(), [&](size_t k) {
            keys[k] = rowKey(
                result.features.extract(set.all()[unlabeled[base + k]]));
        });
        for (size_t k = 0; k < keys.size(); ++k) {
            auto [it, fresh] = pSciOfRow.try_emplace(std::move(keys[k]));
            if (fresh) {
                it->second = 1.0 - result.model.predict(denseRow(
                                       it->first, result.features.size()));
            }
            double pSci = it->second;
            size_t idx = unlabeled[base + k];
            if (pSci >= config.recommendThreshold) {
                result.recommended.push_back(idx);
            } else if (pSci >= config.semanticThreshold &&
                       semanticallyImplicated(set.all()[idx])) {
                result.recommended.push_back(idx);
                ++result.semanticRecommended;
            }
        }
    }

    // The expert pass: recommended invariants the validation corpus
    // exposes as non-invariant are clear false positives.
    for (size_t idx : result.recommended) {
        if (knownNonInvariant.count(idx))
            result.clearFalsePositives.push_back(idx);
        else
            result.inferredSci.push_back(idx);
    }
    return result;
}

std::map<std::string, std::vector<size_t>>
groupIntoProperties(const invgen::InvariantSet &set,
                    const std::vector<size_t> &indices)
{
    std::map<std::string, std::vector<size_t>> groups;
    for (size_t idx : indices) {
        const expr::Invariant &inv = set.all()[idx];
        // Abstract the program point: keep only the exception
        // qualifier so "l.add@range" and "l.addi@range" group, and
        // "l.add" and "l.sub" group. Immediate values are abstracted
        // to K so that e.g. the per-vector NPC constants form one
        // property.
        expr::Invariant shape = inv;
        auto abstractConst = [](expr::Operand &o) {
            if (o.isConst)
                o.constVal = 0xabcdef;
            o.addImm = o.addImm ? 1 : 0;
            o.mulImm = o.mulImm != 1 ? 2 : 1;
            o.modImm = o.modImm ? 2 : 0;
        };
        abstractConst(shape.lhs);
        if (shape.op != expr::CmpOp::In)
            abstractConst(shape.rhs);
        else
            shape.set = {0xabcdef};
        std::string key = shape.exprKey();
        // Render the sentinel constant as "K" for readability.
        for (size_t pos; (pos = key.find("0xabcdef")) !=
                         std::string::npos;) {
            key.replace(pos, 8, "K");
        }
        if (inv.point.exception() != isa::Exception::None) {
            key = "@" +
                  std::string(isa::exceptionName(
                      inv.point.exception())) +
                  ": " + key;
        }
        groups[key].push_back(idx);
    }
    return groups;
}

} // namespace scif::sci
