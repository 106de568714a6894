// Whole-string number parsing for command-line flags.
//
// Every CLI (eric_fleetd, eric_enroll, eric_run, eric_pack) takes numbers
// through these two functions, so a malformed value is refused the same
// way everywhere instead of being silently truncated or wrapped.
#pragma once

#include <cstdint>
#include <string>

namespace eric {

/// Whole-string unsigned integer (decimal, 0x hex, or 0 octal). Refuses
/// empty text, any sign or leading space, trailing junk, and overflow.
bool ParseUnsigned(const std::string& text, uint64_t* out);

/// Whole-string finite real. Refuses empty text, leading space, trailing
/// junk, out-of-range magnitudes, nan and inf.
bool ParseReal(const std::string& text, double* out);

}  // namespace eric
