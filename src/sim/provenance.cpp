#include "sim/provenance.h"

#include <cstdio>
#include <ctime>
#include <fstream>

#include "git_rev.h" // generated at build time by cmake/git_rev.cmake

namespace pracleak::sim {

const char *
gitRevision()
{
    return PRACLEAK_GIT_REV;
}

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = 0xCBF2'9CE4'8422'2325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100'0000'01B3ULL;
    }
    return hash;
}

std::string
hashHex(std::uint64_t hash)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buffer;
}

std::string
fileHashHex(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return hashHex(fnv1a64(bytes));
}

std::string
gridHashHex(const JsonValue &grid)
{
    return hashHex(fnv1a64(grid.dump()));
}

std::string
utcTimestamp()
{
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char buffer[32];
    std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &utc);
    return buffer;
}

JsonValue
provenanceObject(const JsonValue &grid)
{
    JsonValue provenance = JsonValue::object();
    provenance.set("git_rev", gitRevision());
    provenance.set("grid_fnv1a64", gridHashHex(grid));
    provenance.set("generated_at", utcTimestamp());
    return provenance;
}

} // namespace pracleak::sim
