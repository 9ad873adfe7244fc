#include "elastic_net.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/random.hh"
#include "support/threadpool.hh"

namespace scif::ml {

namespace {

double
softThreshold(double z, double gamma)
{
    if (z > gamma)
        return z - gamma;
    if (z < -gamma)
        return z + gamma;
    return 0.0;
}

double
sigmoid(double t)
{
    if (t > 30)
        return 1.0;
    if (t < -30)
        return 0.0;
    return 1.0 / (1.0 + std::exp(-t));
}

/** @return X transposed: row j holds column j of @p X. */
Matrix
transposed(const Matrix &X)
{
    Matrix t(X.cols(), X.rows());
    for (size_t i = 0; i < X.rows(); ++i) {
        for (size_t j = 0; j < X.cols(); ++j)
            t.at(j, i) = X.at(i, j);
    }
    return t;
}

/**
 * One glmnet-style fit on *standardized* X at a fixed lambda,
 * warm-started from the supplied coefficients.
 *
 * @param Xt the design transposed (see transposed()), so coordinate
 *        descent reads each feature's column contiguously.
 *
 * The weights w are fixed for one quadratic approximation, so
 * w[i] * x[i][j] and each coordinate's denominator sum (w x) x are
 * computed once per IRLS step rather than once per sweep. Every sum
 * runs in ascending row order, so the coefficients are the same bits
 * as when those terms are formed inside each sweep. A zero x[i][j]
 * adds a signed zero, which leaves a sum unchanged, so no term is
 * skipped.
 */
void
fitAtLambda(const Matrix &Xt, const std::vector<int> &y, double lambda,
            const ElasticNetConfig &cfg, std::vector<double> &beta,
            double &intercept)
{
    size_t p = Xt.rows(), n = Xt.cols();
    SCIF_ASSERT(y.size() == n && beta.size() == p);
    const double nw = double(n);

    std::vector<double> eta(n), w(n), z(n), denom(p);
    Matrix wx(p, n);
    for (int iter = 0; iter < cfg.maxIterations; ++iter) {
        // eta = intercept + X beta, each row summed in ascending j.
        std::fill(eta.begin(), eta.end(), intercept);
        for (size_t j = 0; j < p; ++j) {
            const double *x = Xt.row(j);
            double bj = beta[j];
            for (size_t i = 0; i < n; ++i)
                eta[i] += x[i] * bj;
        }

        // Quadratic approximation around the current estimate.
        double wsum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            double pi = sigmoid(eta[i]);
            double wi = std::max(pi * (1.0 - pi), 1e-5);
            w[i] = wi;
            z[i] = eta[i] + (double(y[i]) - pi) / wi;
            wsum += wi;
        }
        for (size_t j = 0; j < p; ++j) {
            const double *x = Xt.row(j);
            double *wxj = wx.row(j);
            double d = 0.0;
            for (size_t i = 0; i < n; ++i) {
                wxj[i] = w[i] * x[i];
                d += wxj[i] * x[i];
            }
            denom[j] = d;
        }

        // Cyclic coordinate descent on the penalized WLS problem;
        // eta tracks the current working fit.
        double maxDelta = 0.0;
        for (int cd = 0; cd < 100; ++cd) {
            maxDelta = 0.0;

            for (size_t j = 0; j < p; ++j) {
                const double *x = Xt.row(j);
                const double *wxj = wx.row(j);
                double bOld = beta[j];
                double num = 0.0;
                for (size_t i = 0; i < n; ++i)
                    num += wxj[i] * (z[i] - (eta[i] - x[i] * bOld));
                double bj = softThreshold(num / nw,
                                          lambda * cfg.alpha) /
                            (denom[j] / nw +
                             lambda * (1.0 - cfg.alpha));
                double delta = bj - bOld;
                if (delta != 0.0) {
                    for (size_t i = 0; i < n; ++i)
                        eta[i] += x[i] * delta;
                    beta[j] = bj;
                    maxDelta = std::max(maxDelta, std::fabs(delta));
                }
            }

            // Intercept (unpenalized).
            double num = 0.0;
            for (size_t i = 0; i < n; ++i)
                num += w[i] * (z[i] - (eta[i] - intercept));
            double b0 = num / wsum;
            double delta = b0 - intercept;
            if (delta != 0.0) {
                for (size_t i = 0; i < n; ++i)
                    eta[i] += delta;
                intercept = b0;
                maxDelta = std::max(maxDelta, std::fabs(delta));
            }

            if (maxDelta < cfg.tolerance)
                break;
        }
        if (maxDelta < cfg.tolerance)
            break;
    }
}

/** Largest lambda with all coefficients zero (path start). */
double
lambdaMax(const Matrix &Xt, const std::vector<int> &y, double alpha)
{
    size_t p = Xt.rows(), n = Xt.cols();
    double ybar = 0.0;
    for (int yi : y)
        ybar += yi;
    ybar /= double(n);

    double best = 0.0;
    for (size_t j = 0; j < p; ++j) {
        const double *x = Xt.row(j);
        double dot = 0.0;
        for (size_t i = 0; i < n; ++i)
            dot += x[i] * (double(y[i]) - ybar);
        best = std::max(best, std::fabs(dot) / double(n));
    }
    return best / std::max(alpha, 1e-3);
}

/** Binomial deviance of predictions on a fold. */
double
deviance(const Matrix &X, const std::vector<int> &y,
         const std::vector<size_t> &idx, const std::vector<double> &beta,
         double intercept)
{
    double dev = 0.0;
    for (size_t i : idx) {
        double t = intercept;
        const double *row = X.row(i);
        for (size_t j = 0; j < beta.size(); ++j)
            t += row[j] * beta[j];
        double pi = std::clamp(sigmoid(t), 1e-9, 1.0 - 1e-9);
        dev += y[i] ? -std::log(pi) : -std::log(1.0 - pi);
    }
    return dev;
}

} // namespace

double
LogisticModel::predict(const std::vector<double> &x) const
{
    std::vector<double> row = x;
    standardizer.applyRow(row);
    double t = intercept;
    for (size_t j = 0; j < beta.size(); ++j)
        t += row[j] * beta[j];
    return sigmoid(t);
}

std::vector<size_t>
LogisticModel::nonZeroFeatures() const
{
    std::vector<size_t> out;
    for (size_t j = 0; j < beta.size(); ++j) {
        if (beta[j] != 0.0)
            out.push_back(j);
    }
    return out;
}

LogisticModel
fitElasticNetFixed(const Matrix &X, const std::vector<int> &y,
                   double lambda, const ElasticNetConfig &config)
{
    LogisticModel model;
    model.standardizer = Standardizer::fit(X);
    Matrix Xst = transposed(model.standardizer.apply(X));
    model.beta.assign(X.cols(), 0.0);
    model.lambda = lambda;
    fitAtLambda(Xst, y, lambda, config, model.beta, model.intercept);
    return model;
}

LogisticModel
fitElasticNet(const Matrix &X, const std::vector<int> &y,
              const ElasticNetConfig &config, support::ThreadPool *pool)
{
    size_t n = X.rows(), p = X.cols();
    SCIF_ASSERT(n >= size_t(config.folds) && n == y.size());

    Standardizer standardizer = Standardizer::fit(X);
    Matrix Xs = standardizer.apply(X);
    Matrix Xst = transposed(Xs);

    // Descending log-spaced lambda path.
    double lmax = lambdaMax(Xst, y, config.alpha);
    if (lmax <= 0)
        lmax = 1.0;
    std::vector<double> path(config.pathLength);
    double lmin = lmax * config.lambdaMinRatio;
    for (int k = 0; k < config.pathLength; ++k) {
        double f = double(k) / double(config.pathLength - 1);
        path[k] = lmax * std::pow(lmin / lmax, f);
    }

    // Fold assignment.
    Rng rng(config.seed);
    std::vector<size_t> perm = rng.permutation(n);
    std::vector<int> fold(n);
    for (size_t i = 0; i < n; ++i)
        fold[perm[i]] = int(i % size_t(config.folds));

    // Cross-validated deviance per lambda, warm starts down the path.
    // The folds are independent fits; each writes only its own column
    // of foldDeviance.
    std::vector<std::vector<double>> foldDeviance(
        path.size(), std::vector<double>(config.folds, 0.0));
    support::parallelFor(pool, size_t(config.folds), [&](size_t f) {
        std::vector<size_t> trainIdx, testIdx;
        for (size_t i = 0; i < n; ++i)
            (fold[i] == int(f) ? testIdx : trainIdx).push_back(i);

        Matrix Xtrain(p, trainIdx.size()); // transposed, like Xst
        for (size_t j = 0; j < p; ++j) {
            for (size_t i = 0; i < trainIdx.size(); ++i)
                Xtrain.at(j, i) = Xst.at(j, trainIdx[i]);
        }
        std::vector<int> ytrain(trainIdx.size());
        for (size_t i = 0; i < trainIdx.size(); ++i)
            ytrain[i] = y[trainIdx[i]];

        std::vector<double> beta(p, 0.0);
        double intercept = 0.0;
        for (size_t k = 0; k < path.size(); ++k) {
            fitAtLambda(Xtrain, ytrain, path[k], config, beta,
                        intercept);
            foldDeviance[k][f] =
                deviance(Xs, y, testIdx, beta, intercept);
        }
    });

    // glmnet's one-standard-error rule: take the *largest* lambda
    // whose mean CV deviance is within one standard error of the
    // minimum — the sparsest model statistically indistinguishable
    // from the best one.
    std::vector<double> cvMean(path.size()), cvSe(path.size());
    for (size_t k = 0; k < path.size(); ++k) {
        double mean = 0.0;
        for (double d : foldDeviance[k])
            mean += d;
        mean /= double(config.folds);
        double var = 0.0;
        for (double d : foldDeviance[k])
            var += (d - mean) * (d - mean);
        var /= double(std::max(config.folds - 1, 1));
        cvMean[k] = mean;
        cvSe[k] = std::sqrt(var / double(config.folds));
    }
    size_t minK = 0;
    for (size_t k = 1; k < path.size(); ++k) {
        if (cvMean[k] < cvMean[minK])
            minK = k;
    }
    size_t bestK = minK;
    for (size_t k = 0; k <= minK; ++k) {
        if (cvMean[k] <= cvMean[minK] + cvSe[minK]) {
            bestK = k; // path is descending: first hit is largest
            break;
        }
    }

    // Final fit on all data at the selected lambda.
    LogisticModel model;
    model.standardizer = standardizer;
    model.lambda = path[bestK];
    double intercept = 0.0;
    std::vector<double> beta(p, 0.0);
    for (size_t k = 0; k <= bestK; ++k)
        fitAtLambda(Xst, y, path[k], config, beta, intercept);
    model.beta = beta;
    model.intercept = intercept;
    return model;
}

} // namespace scif::ml
