#include "telemetry/io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace pracleak::telemetry {

bool
writeAtomic(const std::string &path, const std::string &contents)
{
    const std::filesystem::path target(path);
    std::error_code ec;
    if (target.has_parent_path())
        std::filesystem::create_directories(target.parent_path(), ec);

    // The temporary lives next to the target so the rename stays on
    // one filesystem (and therefore atomic).
    const std::string temporary = path + ".tmp";
    {
        std::ofstream out(temporary,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "pracleak: cannot write %s\n",
                         temporary.c_str());
            return false;
        }
        out << contents;
        out.close();
        if (!out.good()) {
            std::fprintf(stderr, "pracleak: write to %s failed\n",
                         temporary.c_str());
            std::filesystem::remove(temporary, ec);
            return false;
        }
    }
    std::filesystem::rename(temporary, path, ec);
    if (ec) {
        std::fprintf(stderr, "pracleak: cannot finalize %s: %s\n",
                     path.c_str(), ec.message().c_str());
        std::filesystem::remove(temporary, ec);
        return false;
    }
    return true;
}

} // namespace pracleak::telemetry
