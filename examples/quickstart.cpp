/**
 * @file
 * Quickstart: build a PRAC-protected DDR5 memory system, run a small
 * workload on a 4-core system with and without the TPRAC defense, and
 * print the headline numbers.
 *
 *   $ ./build/examples/quickstart
 */

#include <cstdio>

#include "cpu/system.h"
#include "mitigation/registry.h"
#include "workload/suite.h"

using namespace pracleak;

namespace {

RunResult
runOnce(const char *defense, std::uint32_t nbo,
        std::uint32_t channels = 1)
{
    SystemConfig config;
    config.spec = DramSpec::ddr5_8000b();
    config.spec.prac.nbo = nbo;
    // The registry key names the defense; configureDefense derives
    // its parameters (here the TPRAC TB-Window) from the spec's NBO.
    configureDefense(config.mem, defense, config.spec);
    config.warmupInstrs = 20'000;
    config.measureInstrs = 200'000;

    // Interleaved DDR5 channels, one controller + PRAC engine each;
    // channels = 1 is the paper's single-channel configuration.
    config.channels = channels;

    // A memory-intensive homogeneous 4-core workload.
    const SuiteEntry entry = standardSuite().front();
    System system(config, instantiate(entry, 4));
    return system.run();
}

} // namespace

int
main()
{
    constexpr std::uint32_t kNbo = 1024; // RowHammer threshold proxy

    std::printf("PRACLeak/TPRAC quickstart (NBO = %u)\n", kNbo);
    std::printf("running baseline (PRAC timings, no mitigation)...\n");
    const RunResult base = runOnce("none", kNbo);
    std::printf("running TPRAC (timing-based RFMs)...\n");
    const RunResult tprac = runOnce("tprac", kNbo);

    std::printf("\n%-12s %10s %10s %8s %8s\n", "config", "IPC-sum",
                "TB-RFMs", "alerts", "RBMPKI");
    std::printf("%-12s %10.3f %10llu %8llu %8.1f\n", "baseline",
                base.ipcSum(),
                static_cast<unsigned long long>(base.tbRfms),
                static_cast<unsigned long long>(base.alerts),
                base.rbmpki());
    std::printf("%-12s %10.3f %10llu %8llu %8.1f\n", "tprac",
                tprac.ipcSum(),
                static_cast<unsigned long long>(tprac.tbRfms),
                static_cast<unsigned long long>(tprac.alerts),
                tprac.rbmpki());

    const double slowdown = 1.0 - normalizedPerf(tprac, base);
    std::printf("\nTPRAC slowdown vs. insecure baseline: %.2f%%\n",
                100.0 * slowdown);
    std::printf("TPRAC alerts (must be 0 for a closed channel): %llu\n",
                static_cast<unsigned long long>(tprac.alerts));

    std::printf("\nrunning TPRAC again on two interleaved channels...\n");
    const RunResult two = runOnce("tprac", kNbo, 2);
    std::printf("2-channel IPC-sum %.3f (1-channel %.3f); per-channel "
                "ACTs:",
                two.ipcSum(), tprac.ipcSum());
    for (const ChannelResult &channel : two.channels)
        std::printf(" %llu",
                    static_cast<unsigned long long>(
                        channel.energyCounts.acts));
    std::printf("\n");
    return 0;
}
