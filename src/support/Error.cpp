//===- support/Error.cpp --------------------------------------*- C++ -*-===//

#include "support/Error.h"

#include <new>

using namespace deept;
using namespace deept::support;

const char *deept::support::errorCodeName(ErrorCode C) {
  switch (C) {
  case ErrorCode::Ok:
    return "ok";
  case ErrorCode::BadArgument:
    return "bad_argument";
  case ErrorCode::IoError:
    return "io_error";
  case ErrorCode::ModelNotFound:
    return "model_not_found";
  case ErrorCode::ModelCorrupt:
    return "model_corrupt";
  case ErrorCode::StoreCorrupt:
    return "store_corrupt";
  case ErrorCode::JobInvalid:
    return "job_invalid";
  case ErrorCode::DeadlineExceeded:
    return "deadline_exceeded";
  case ErrorCode::OutOfMemory:
    return "out_of_memory";
  case ErrorCode::UnsoundAbstraction:
    return "unsound_abstraction";
  case ErrorCode::FaultInjected:
    return "fault_injected";
  case ErrorCode::Internal:
    return "internal";
  }
  return "internal";
}

int deept::support::exitCodeFor(ErrorCode C) {
  switch (C) {
  case ErrorCode::Ok:
    return 0;
  case ErrorCode::BadArgument:
  case ErrorCode::JobInvalid:
    return 2;
  case ErrorCode::IoError:
  case ErrorCode::ModelNotFound:
  case ErrorCode::ModelCorrupt:
  case ErrorCode::StoreCorrupt:
    return 3;
  case ErrorCode::DeadlineExceeded:
    return 4;
  case ErrorCode::OutOfMemory:
  case ErrorCode::UnsoundAbstraction:
  case ErrorCode::FaultInjected:
  case ErrorCode::Internal:
    return 5;
  }
  return 5;
}

ErrorCode deept::support::codeOf(const std::exception &E) {
  if (const auto *Err = dynamic_cast<const Error *>(&E))
    return Err->code();
  if (dynamic_cast<const std::bad_alloc *>(&E))
    return ErrorCode::OutOfMemory;
  return ErrorCode::Internal;
}
