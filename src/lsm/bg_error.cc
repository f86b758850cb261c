#include "src/lsm/bg_error.h"

namespace clsm {

BgErrorSeverity BackgroundErrorState::Classify(BgErrorReason reason, const Status& s) {
  if (s.ok()) {
    return BgErrorSeverity::kNone;
  }
  if (s.IsCorruption()) {
    return BgErrorSeverity::kFatal;
  }
  switch (reason) {
    case BgErrorReason::kCompaction:
    case BgErrorReason::kFileCleanup:
      return BgErrorSeverity::kSoft;
    case BgErrorReason::kWalAppend:
    case BgErrorReason::kWalSync:
    case BgErrorReason::kMemtableRoll:
    case BgErrorReason::kFlush:
    case BgErrorReason::kManifestWrite:
      return BgErrorSeverity::kHard;
  }
  return BgErrorSeverity::kHard;
}

BgErrorSeverity BackgroundErrorState::Record(BgErrorReason reason, const Status& s) {
  const BgErrorSeverity sev = Classify(reason, s);
  if (sev == BgErrorSeverity::kNone) {
    return sev;
  }
  std::lock_guard<std::mutex> l(mutex_);
  if (static_cast<int>(sev) > severity_.load(std::memory_order_relaxed)) {
    status_ = s;
    reason_ = reason;
    severity_.store(static_cast<int>(sev), std::memory_order_release);
  }
  return sev;
}

void BackgroundErrorState::ClearSoft() {
  if (severity_.load(std::memory_order_acquire) != static_cast<int>(BgErrorSeverity::kSoft)) {
    return;
  }
  std::lock_guard<std::mutex> l(mutex_);
  if (severity_.load(std::memory_order_relaxed) == static_cast<int>(BgErrorSeverity::kSoft)) {
    severity_.store(0, std::memory_order_release);
    status_ = Status::OK();
  }
}

Status BackgroundErrorState::status() const {
  if (ok()) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> l(mutex_);
  return status_;
}

BgErrorReason BackgroundErrorState::reason() const {
  std::lock_guard<std::mutex> l(mutex_);
  return reason_;
}

std::string BackgroundErrorState::ToString() const {
  std::lock_guard<std::mutex> l(mutex_);
  const int sev = severity_.load(std::memory_order_relaxed);
  if (sev == 0) {
    return "OK";
  }
  std::string out = BgErrorSeverityName(static_cast<BgErrorSeverity>(sev));
  out += "(";
  out += BgErrorReasonName(reason_);
  out += "): ";
  out += status_.ToString();
  return out;
}

}  // namespace clsm
