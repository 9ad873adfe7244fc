/**
 * @file
 * Elastic-net-penalized logistic regression (paper §3.4).
 *
 * A from-scratch implementation of the glmnet algorithm (Friedman,
 * Hastie, Tibshirani): iteratively reweighted least squares with an
 * inner cyclic coordinate descent and soft thresholding, fit over a
 * descending lambda path with warm starts; k-fold cross validation
 * picks the final lambda. The paper fits with alpha = 0.5 and 3-fold
 * cross validation and reports lambda = 0.08 with 90% held-out
 * accuracy.
 *
 * The IRLS loop stops as soon as one coordinate-descent pass over a
 * quadratic approximation converges, so a lambda gets a second
 * approximation only when descent hits its 100-sweep cap. SCI
 * inference depends on that: iterating IRLS to convergence moves
 * four of its recommendations, so the iteration structure is part of
 * the model.
 *
 * Class convention follows the paper: y = 1 means NON-security-
 * critical, so features with negative weights are associated with
 * security-critical invariants (Table 4).
 */

#ifndef SCIFINDER_ML_ELASTIC_NET_HH
#define SCIFINDER_ML_ELASTIC_NET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ml/matrix.hh"

namespace scif::support {
class ThreadPool;
} // namespace scif::support

namespace scif::ml {

/** Hyper-parameters for the fit. */
struct ElasticNetConfig
{
    double alpha = 0.5;          ///< L1/L2 mix (1 = lasso)
    int folds = 3;               ///< cross-validation folds
    int pathLength = 40;         ///< lambdas on the path
    double lambdaMinRatio = 1e-3;
    int maxIterations = 200;     ///< IRLS iterations per lambda
    double tolerance = 1e-7;
    uint64_t seed = 0x5eed;      ///< fold assignment seed
};

/** A fitted logistic model (coefficients on the standardized scale,
 *  prediction handles standardization internally). */
struct LogisticModel
{
    Standardizer standardizer;
    std::vector<double> beta;   ///< per standardized feature
    double intercept = 0.0;
    double lambda = 0.0;        ///< the CV-selected penalty

    /** @return P(y = 1 | x) for a raw (unstandardized) feature row. */
    double predict(const std::vector<double> &x) const;

    /** Indices of features with non-zero coefficients. */
    std::vector<size_t> nonZeroFeatures() const;
};

/**
 * Fit the model on raw features @p X and binary labels @p y,
 * selecting lambda by k-fold cross validation over the path. The
 * folds are independent fits and run in parallel over @p pool when
 * one is given; the model is bit-identical either way.
 */
LogisticModel fitElasticNet(const Matrix &X, const std::vector<int> &y,
                            const ElasticNetConfig &config =
                                ElasticNetConfig(),
                            support::ThreadPool *pool = nullptr);

/**
 * Fit with a fixed lambda (no cross validation); used by the CV
 * driver and by tests.
 */
LogisticModel fitElasticNetFixed(const Matrix &X,
                                 const std::vector<int> &y,
                                 double lambda,
                                 const ElasticNetConfig &config =
                                     ElasticNetConfig());

} // namespace scif::ml

#endif // SCIFINDER_ML_ELASTIC_NET_HH
