/**
 * @file
 * ML substrate tests: matrix/standardizer, the Jacobi eigensolver,
 * elastic-net logistic regression (separable data, sparsity
 * recovery, cross validation, pooled folds bit-identical to serial),
 * PCA, and invariant feature extraction.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/elastic_net.hh"
#include "ml/features.hh"
#include "ml/matrix.hh"
#include "ml/pca.hh"
#include "support/random.hh"
#include "support/threadpool.hh"

namespace scif::ml {
namespace {

TEST(MatrixOps, AppendAndAccess)
{
    Matrix m;
    m.appendRow({1, 2, 3});
    m.appendRow({4, 5, 6});
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.at(1, 2), 6.0);
    m.at(0, 0) = 9;
    EXPECT_EQ(m.row(0)[0], 9.0);
}

TEST(StandardizerOps, ZeroMeanUnitVariance)
{
    Matrix m;
    m.appendRow({1, 10});
    m.appendRow({3, 10});
    m.appendRow({5, 10});
    Standardizer s = Standardizer::fit(m);
    EXPECT_DOUBLE_EQ(s.mean[0], 3.0);
    EXPECT_DOUBLE_EQ(s.mean[1], 10.0);
    EXPECT_EQ(s.stddev[1], 1.0); // zero-variance guard

    Matrix t = s.apply(m);
    double mean = (t.at(0, 0) + t.at(1, 0) + t.at(2, 0)) / 3;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    double var = 0;
    for (int i = 0; i < 3; ++i)
        var += t.at(i, 0) * t.at(i, 0);
    EXPECT_NEAR(var / 3, 1.0, 1e-12);
}

TEST(Eigen, DiagonalizesKnownMatrix)
{
    // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
    Matrix a(2, 2);
    a.at(0, 0) = 2;
    a.at(0, 1) = 1;
    a.at(1, 0) = 1;
    a.at(1, 1) = 2;
    std::vector<double> values;
    Matrix vectors;
    symmetricEigen(a, values, vectors);
    ASSERT_EQ(values.size(), 2u);
    EXPECT_NEAR(values[0], 3.0, 1e-9);
    EXPECT_NEAR(values[1], 1.0, 1e-9);
    // Leading eigenvector is (1,1)/sqrt(2) up to sign.
    EXPECT_NEAR(std::fabs(vectors.at(0, 0)), 1 / std::sqrt(2), 1e-9);
    EXPECT_NEAR(std::fabs(vectors.at(1, 0)), 1 / std::sqrt(2), 1e-9);
}

TEST(Eigen, OrthonormalVectors)
{
    Rng rng(5);
    size_t n = 6;
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) {
            double v = rng.gaussian();
            a.at(i, j) = v;
            a.at(j, i) = v;
        }
    }
    std::vector<double> values;
    Matrix vectors;
    symmetricEigen(a, values, vectors);
    for (size_t c1 = 0; c1 < n; ++c1) {
        for (size_t c2 = 0; c2 < n; ++c2) {
            double dot = 0;
            for (size_t r = 0; r < n; ++r)
                dot += vectors.at(r, c1) * vectors.at(r, c2);
            EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-8);
        }
    }
    // Eigenvalues descend.
    for (size_t i = 1; i < n; ++i)
        EXPECT_GE(values[i - 1], values[i] - 1e-12);
}

/** Synthetic labeled data: y depends on the first two features. */
struct Synthetic
{
    Matrix X;
    std::vector<int> y;
};

Synthetic
makeSynthetic(size_t n, size_t p, Rng &rng, double noise = 0.3)
{
    Synthetic s;
    s.X = Matrix(n, p);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < p; ++j)
            s.X.at(i, j) = rng.gaussian();
        double score = 2.5 * s.X.at(i, 0) - 2.0 * s.X.at(i, 1);
        s.y.push_back(score + noise * rng.gaussian() > 0 ? 1 : 0);
    }
    return s;
}

TEST(ElasticNet, LearnsSeparableData)
{
    Rng rng(42);
    Synthetic train = makeSynthetic(400, 10, rng);
    LogisticModel model = fitElasticNet(train.X, train.y);

    Synthetic test = makeSynthetic(200, 10, rng);
    size_t correct = 0;
    for (size_t i = 0; i < 200; ++i) {
        std::vector<double> x(10);
        for (size_t j = 0; j < 10; ++j)
            x[j] = test.X.at(i, j);
        int pred = model.predict(x) >= 0.5 ? 1 : 0;
        correct += pred == test.y[i];
    }
    EXPECT_GT(double(correct) / 200, 0.9);
}

TEST(ElasticNet, RecoversSignsAndSparsity)
{
    // Overlapping classes: regularization pays off, so cross
    // validation must keep a lambda that suppresses the noise.
    Rng rng(7);
    Synthetic train = makeSynthetic(500, 20, rng, 2.5);
    LogisticModel model = fitElasticNet(train.X, train.y);

    // The informative features carry the planted signs.
    EXPECT_GT(model.beta[0], 0.1);
    EXPECT_LT(model.beta[1], -0.1);

    // Noise features carry no meaningful weight: the L1 penalty
    // keeps them at or near zero while the signal stays strong.
    size_t strongNoise = 0;
    for (size_t j = 2; j < 20; ++j)
        strongNoise += std::fabs(model.beta[j]) > 0.1;
    EXPECT_LE(strongNoise, 3u);
    EXPECT_GT(std::fabs(model.beta[0]), 5 * std::fabs(model.beta[2]));
}

TEST(ElasticNet, PooledFitMatchesSerial)
{
    // The cross-validation folds run on the pool; every pool width
    // and fold count must give the serial fit's exact bits.
    Rng rng(17);
    Synthetic train = makeSynthetic(240, 12, rng, 1.5);
    for (int folds : {3, 5}) {
        ElasticNetConfig cfg;
        cfg.folds = folds;
        LogisticModel serial = fitElasticNet(train.X, train.y, cfg);
        EXPECT_FALSE(serial.nonZeroFeatures().empty());
        for (size_t threads : {2, 3, 4}) {
            support::ThreadPool pool(threads);
            LogisticModel pooled =
                fitElasticNet(train.X, train.y, cfg, &pool);
            EXPECT_EQ(pooled.beta, serial.beta)
                << folds << " folds, " << threads << " threads";
            EXPECT_EQ(pooled.intercept, serial.intercept);
            EXPECT_EQ(pooled.lambda, serial.lambda);
        }
    }
}

TEST(ElasticNet, StrongPenaltyZeroesEverything)
{
    Rng rng(9);
    Synthetic train = makeSynthetic(100, 5, rng);
    LogisticModel model = fitElasticNetFixed(train.X, train.y, 1e6);
    for (double b : model.beta)
        EXPECT_EQ(b, 0.0);
}

TEST(ElasticNet, RidgeOnlyKeepsAllFeatures)
{
    Rng rng(11);
    Synthetic train = makeSynthetic(300, 6, rng);
    ElasticNetConfig cfg;
    cfg.alpha = 0.0; // pure ridge: no sparsity
    LogisticModel model = fitElasticNetFixed(train.X, train.y, 0.01,
                                             cfg);
    EXPECT_EQ(model.nonZeroFeatures().size(), 6u);
}

TEST(Pca, SeparatesStructuredClusters)
{
    // Two clusters displaced along a diagonal; PC1 must capture it.
    Rng rng(13);
    Matrix X(100, 5);
    for (size_t i = 0; i < 100; ++i) {
        double offset = i < 50 ? 3.0 : -3.0;
        X.at(i, 0) = offset + rng.gaussian() * 0.3;
        X.at(i, 1) = offset + rng.gaussian() * 0.3;
        for (size_t j = 2; j < 5; ++j)
            X.at(i, j) = rng.gaussian() * 0.3;
    }
    PcaResult r = pca(X, 2);
    ASSERT_EQ(r.projected.cols(), 2u);
    EXPECT_GT(r.eigenvalues[0], 5 * r.eigenvalues[1]);

    // The two clusters separate on PC1.
    double minA = 1e9, maxA = -1e9, minB = 1e9, maxB = -1e9;
    for (size_t i = 0; i < 100; ++i) {
        double v = r.projected.at(i, 0);
        if (i < 50) {
            minA = std::min(minA, v);
            maxA = std::max(maxA, v);
        } else {
            minB = std::min(minB, v);
            maxB = std::max(maxB, v);
        }
    }
    EXPECT_TRUE(maxA < minB || maxB < minA);
}

TEST(Features, ExtractMarksVariablesAndOperators)
{
    FeatureExtractor fx;
    EXPECT_GE(fx.size(), 150u);

    auto inv = expr::Invariant::parse("l.rfe -> SR == orig(ESR0)");
    auto x = fx.extract(inv);
    ASSERT_EQ(x.size(), fx.size());

    auto featureOn = [&](const std::string &name) {
        for (size_t j = 0; j < fx.size(); ++j) {
            if (fx.names()[j] == name)
                return x[j] == 1.0;
        }
        ADD_FAILURE() << "no feature " << name;
        return false;
    };
    EXPECT_TRUE(featureOn("SR"));
    EXPECT_TRUE(featureOn("orig(ESR0)"));
    EXPECT_TRUE(featureOn("=="));
    EXPECT_FALSE(featureOn("ESR0"));
    EXPECT_FALSE(featureOn("CONST"));
    EXPECT_FALSE(featureOn("!="));
}

TEST(Features, ConstAndCompoundOperators)
{
    FeatureExtractor fx;
    auto inv =
        expr::Invariant::parse("l.jal -> GPR9 == PC + 8");
    auto x = fx.extract(inv);
    auto idxOf = [&](const std::string &name) {
        for (size_t j = 0; j < fx.size(); ++j) {
            if (fx.names()[j] == name)
                return j;
        }
        return fx.size();
    };
    EXPECT_EQ(x[idxOf("GPR9")], 1.0);
    EXPECT_EQ(x[idxOf("PC")], 1.0);
    EXPECT_EQ(x[idxOf("+")], 1.0);
    EXPECT_EQ(x[idxOf("CONST")], 1.0);

    auto inSet = expr::Invariant::parse("l.addi -> IMM in {1, 2}");
    auto xi = fx.extract(inSet);
    EXPECT_EQ(xi[idxOf("in")], 1.0);
    EXPECT_EQ(xi[idxOf("CONST")], 1.0);
}

} // namespace
} // namespace scif::ml
