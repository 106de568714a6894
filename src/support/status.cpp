#include "support/status.h"

namespace eric {

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kParseError: return "PARSE_ERROR";
    case ErrorCode::kVerificationFailed: return "VERIFICATION_FAILED";
    case ErrorCode::kAuthenticationFailed: return "AUTHENTICATION_FAILED";
    case ErrorCode::kDecryptionFailed: return "DECRYPTION_FAILED";
    case ErrorCode::kCorruptPackage: return "CORRUPT_PACKAGE";
    case ErrorCode::kUnsupported: return "UNSUPPORTED";
    case ErrorCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case ErrorCode::kTimeout: return "TIMEOUT";
    case ErrorCode::kUnavailable: return "UNAVAILABLE";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kInjectedCrash: return "INJECTED_CRASH";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(ErrorCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace eric
