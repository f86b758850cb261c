#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"

namespace clsm {

namespace {

// bLSM (paper §6): a single-writer prototype whose merge scheduler bounds
// the time a merge may block writes. The single-writer queue is the base
// chassis; the scheduler's role — spring-style pacing of writers against
// merge debt instead of hard gates — is played by the shared
// WriteController every variant's writes pass through
// (src/lsm/write_controller.h).
class BlsmStyleDb final : public BaselineDbBase {
 public:
  BlsmStyleDb(const Options& options, const std::string& dbname)
      : BaselineDbBase(options, dbname) {}

  const char* Name() const override { return "blsm"; }

  using BaselineDbBase::Init;
};

}  // namespace

Status OpenBlsmStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  *dbptr = nullptr;
  auto db = std::make_unique<BlsmStyleDb>(options, dbname);
  Status s = db->Init();
  if (!s.ok()) {
    return s;
  }
  *dbptr = db.release();
  return Status::OK();
}

}  // namespace clsm
