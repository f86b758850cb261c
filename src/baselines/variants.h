// Open functions for the competitor concurrency architectures (paper §5).
// Every variant shares cLSM's engine chassis and disk substrate; see
// baseline_db.h.
#ifndef CLSM_BASELINES_VARIANTS_H_
#define CLSM_BASELINES_VARIANTS_H_

#include <string>

#include "src/core/db.h"

namespace clsm {

// Original LevelDB: global mutex, single-writer queue with group commit,
// reads take the mutex briefly. Does not scale with threads (§5.1).
Status OpenLevelStyleDb(const Options& options, const std::string& dbname, DB** dbptr);

// HyperLevelDB: fine-grained locking on the write path (concurrent memtable
// inserts under striped locks), LevelDB-style reads. Scales to ~4 writers.
Status OpenHyperStyleDb(const Options& options, const std::string& dbname, DB** dbptr);

// RocksDB (2014-era): single-writer queue, but lock-free reads via
// thread-locally cached metadata. Reads scale; writes do not.
Status OpenRocksStyleDb(const Options& options, const std::string& dbname, DB** dbptr);

// bLSM: a single writer whose merge scheduler bounds how long merges may
// block writes. The shared write controller plays that role for every
// variant, so this opens the LevelDB class under the name "blsm".
Status OpenBlsmStyleDb(const Options& options, const std::string& dbname, DB** dbptr);

// LevelDB + textbook lock-striping RMW (the Fig 9 baseline): every write
// and read-modify-write holds an exclusive per-key-stripe lock.
Status OpenStripedRmwDb(const Options& options, const std::string& dbname, DB** dbptr);

}  // namespace clsm

#endif  // CLSM_BASELINES_VARIANTS_H_
