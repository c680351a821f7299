// Strict whole-string numeric parsing shared by flag handling everywhere.
//
// PR 1 introduced strict numeric validation for the bench harness flags
// (reject trailing junk like "5x", overflow, non-positive values); the CLI's
// newer flags (--threads, --workers, --cache-mb, --port, submit limits) use
// the same rules via these helpers, so "graphalign serve --workers 4x"
// fails the same way "bench --reps 4x" does. Unlike the bench wrappers,
// these return a Status instead of exiting, so callers choose the failure
// mode.
#ifndef GRAPHALIGN_COMMON_PARSE_H_
#define GRAPHALIGN_COMMON_PARSE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace graphalign {

// Whole-string strictly-positive integer in [1, INT_MAX]; rejects empty
// input, trailing junk, overflow, zero, and negatives.
Result<int> ParseStrictPositiveInt(const std::string& text);

// Whole-string strictly-positive finite double; rejects empty input,
// trailing junk, overflow, inf/nan, zero, and negatives.
Result<double> ParseStrictPositiveDouble(const std::string& text);

// As above, but zero is allowed too: [0, INT_MAX] and finite doubles >= 0,
// for counts and levels where zero is meaningful ("--k 0", "--level 0").
Result<int> ParseStrictNonNegativeInt(const std::string& text);
Result<double> ParseStrictNonNegativeDouble(const std::string& text);

// Whole-string unsigned 64-bit integer (zero allowed); rejects empty input,
// trailing junk, a leading '-', and overflow.
Result<uint64_t> ParseStrictUint64(const std::string& text);

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_PARSE_H_
