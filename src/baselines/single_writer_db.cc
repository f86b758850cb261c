#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"

namespace clsm {

namespace {

// The base class *is* the original LevelDB architecture; this variant only
// names it. bLSM is the same class under its own name: its merge
// scheduler's role — spring-style pacing of writers against merge debt
// instead of hard gates — is played by the shared WriteController every
// variant's writes pass through (src/lsm/write_controller.h).
class LevelStyleDb final : public BaselineDbBase {
 public:
  LevelStyleDb(const Options& options, const std::string& dbname, const char* name)
      : BaselineDbBase(options, dbname), name_(name) {}
  ~LevelStyleDb() override { StopBackground(); }

  const char* Name() const override { return name_; }

 private:
  const char* const name_;
};

}  // namespace

Status OpenLevelStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return DbChassis::Open(std::make_unique<LevelStyleDb>(options, dbname, "leveldb"), dbptr);
}

Status OpenBlsmStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return DbChassis::Open(std::make_unique<LevelStyleDb>(options, dbname, "blsm"), dbptr);
}

}  // namespace clsm
