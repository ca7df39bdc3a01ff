#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace riptide::sim {

// Whole-token number readers, shared by the command-line programs and the
// spec grammars. Each returns nullopt unless `text` is exactly one number:
// an integer is decimal digits only (no sign, space or embedded NUL) that
// fit in 64 bits; a double is what strtod reads from the whole token, with
// no leading space, and finite. Range checks are the caller's.
std::optional<std::uint64_t> read_u64(const std::string& text);
std::optional<double> read_double(const std::string& text);

// "A,B,C": one or more read_u64 items, none of them empty.
std::optional<std::vector<std::uint64_t>> read_u64_list(
    const std::string& text);

}  // namespace riptide::sim
