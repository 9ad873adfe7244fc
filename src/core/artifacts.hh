/**
 * @file
 * The on-disk layout of a pipeline artifact directory.
 *
 * Every phase boundary of the staged pipeline has a versioned binary
 * artifact, so any phase can be re-run (or resumed) from its
 * predecessors' persisted outputs without recomputing them:
 *
 *     traces.bin          phase 1a  the named training-trace set
 *     invariants.raw.bin  phase 1b  the unoptimized invariant model
 *     invariants.bin      phase 2   the optimized invariant model
 *     validation.bin      phase 3   the validation-corpus trace set
 *     violations.bin      phase 3   validation-corpus violations
 *     scidb.bin           phase 3   per-bug identification results
 *     inference.txt       phase 4   final SCI report (human-readable)
 *     analysis.txt        analyze   static invariant classification
 *     audit.txt           audit     security-dataflow bug audit
 *
 * Which phase reads and writes which file is decided in one place, the
 * phase functions of core/scifinder.hh. The serializers themselves
 * live with their types (trace/store.hh, invgen::InvariantSet,
 * sci::SciDatabase); this module owns the directory layout plus the
 * small index-set artifact used for the validation violations. Every
 * one of them reports a failed read or write by throwing
 * support::IoError; a phase input that is not there at all is a
 * MissingArtifact.
 */

#ifndef SCIFINDER_CORE_ARTIFACTS_HH
#define SCIFINDER_CORE_ARTIFACTS_HH

#include <set>
#include <stdexcept>
#include <string>

namespace scif::core {

/** Path helper for one artifact directory. */
class ArtifactPaths
{
  public:
    explicit ArtifactPaths(std::string dir) : dir_(std::move(dir)) {}

    const std::string &dir() const { return dir_; }

    std::string traces() const { return join("traces.bin"); }
    std::string rawModel() const { return join("invariants.raw.bin"); }
    std::string model() const { return join("invariants.bin"); }
    std::string violations() const { return join("violations.bin"); }
    std::string validation() const { return join("validation.bin"); }
    std::string sciDatabase() const { return join("scidb.bin"); }
    std::string inference() const { return join("inference.txt"); }
    std::string analysis() const { return join("analysis.txt"); }
    std::string audit() const { return join("audit.txt"); }

    /** Create the directory (and parents) if missing; throws
     *  support::IoError on failure. */
    void ensureDir() const;

    /** @return true if the file exists. */
    static bool exists(const std::string &path);

  private:
    std::string join(const char *name) const
    {
        return dir_ + "/" + name;
    }

    std::string dir_;
};

/** An input artifact that does not exist; the message names the
 *  subcommand that writes it. */
class MissingArtifact : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throw MissingArtifact unless @p path exists; @p producer is the
 *  scifinder subcommand that writes it. */
void requireArtifact(const std::string &path, const char *producer);

/** Persist a set of invariant indices as a versioned artifact. */
void saveIndexSet(const std::string &path,
                  const std::set<size_t> &indices);

/**
 * Load an index-set artifact whose indices point into a model of
 * @p modelSize invariants; throws support::IoError on truncation,
 * corruption, or an index at or beyond @p modelSize (at its offset).
 */
std::set<size_t> loadIndexSet(const std::string &path,
                              size_t modelSize);

} // namespace scif::core

#endif // SCIFINDER_CORE_ARTIFACTS_HH
