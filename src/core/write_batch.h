// Atomic batch of write operations. cLSM commits a batch like a put (shared
// lock, Active set): one counter increment gives its ops consecutive
// timestamps, which is what keeps it atomic for snapshots, and one WAL
// record keeps it atomic for recovery. The paper (§4) instead takes the
// lock in exclusive mode, as LevelDB does.
#ifndef CLSM_CORE_WRITE_BATCH_H_
#define CLSM_CORE_WRITE_BATCH_H_

#include <string>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/util/slice.h"

namespace clsm {

class WriteBatch {
 public:
  WriteBatch() = default;

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  void Clear();

  size_t Count() const { return ops_.size(); }

  struct Op {
    ValueType type;
    std::string key;
    std::string value;
  };
  const std::vector<Op>& ops() const { return ops_; }

  // Approximate memory footprint of the batch contents.
  size_t ApproximateSize() const;

 private:
  std::vector<Op> ops_;
};

}  // namespace clsm

#endif  // CLSM_CORE_WRITE_BATCH_H_
