/**
 * @file
 * Example: configure the TPRAC defense for a target RowHammer
 * threshold and explore the security/performance trade-off.
 *
 *   $ ./build/examples/defense_tuning
 *
 * Walks through the library's deployment workflow:
 *   1. Use the Feinting/Wave worst-case analysis to derive the
 *      largest safe TB-Window for each NBO.
 *   2. Check the headroom the single-entry queue leaves against the
 *      bound by simulating the actual worst-case attacker.
 *   3. Quantify the bandwidth cost of the chosen window.
 */

#include <cstdio>

#include "mem/controller.h"
#include "mitigation/registry.h"
#include "tprac/analysis.h"

using namespace pracleak;

int
main()
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    const FeintingParams fp = FeintingParams::fromSpec(spec);

    std::printf("TPRAC deployment tuning (DDR5-8000B, 32 Gb, counter "
                "reset at tREFW)\n\n");
    std::printf("%8s %14s %14s %12s %14s\n", "NBO", "TB-Window",
                "TMAX(analytic)", "bandwidth", "RFMs/tREFW");

    for (const std::uint32_t nbo : {128u, 256u, 512u, 1024u, 2048u,
                                    4096u}) {
        const double window_ns = maxSafeWindowNs(nbo, true, fp);
        const auto worst = tmax(window_ns, true, fp);
        // Each TB-RFM blocks the channel for tRFMab.
        const double bw_loss = fp.trfmabNs / window_ns * 100.0;
        const double rfms_per_trefw = fp.trefwNs / window_ns;

        std::printf("%8u %10.2f tREFI %14llu %10.2f%% %14.0f\n", nbo,
                    window_ns / fp.trefiNs,
                    static_cast<unsigned long long>(worst), bw_loss,
                    rfms_per_trefw);
    }

    std::printf("\nvalidating NBO=1024 configuration against a live "
                "worst-case attacker...\n");
    DramSpec attack_spec = spec;
    attack_spec.prac.nbo = 1024;
    ControllerConfig config;
    configureDefense(config, "tprac", attack_spec);
    MemoryController mem(attack_spec, config);

    // Aggressive single-bank hammer (stronger than benign traffic,
    // weaker than Feinting -- see tests/test_security.cpp for the
    // full Feinting validation).
    const AddressMapper &mapper = mem.mapper();
    std::uint64_t issued = 0;
    const Cycle end = config.tbRfm.windowCycles * 32;
    while (mem.now() < end) {
        if (mem.canAccept()) {
            Request req;
            req.addr = mapper.compose(DramAddress{
                0, 0, 0, static_cast<std::uint32_t>(issued++ % 2),
                0});
            mem.enqueue(std::move(req));
        }
        mem.tick();
    }

    std::printf("  max activation counter reached: %u (< NBO=1024)\n",
                mem.prac().counters().maxEverSeen());
    std::printf("  Alerts: %llu, TB-RFMs: %llu\n",
                static_cast<unsigned long long>(mem.prac().alerts()),
                static_cast<unsigned long long>(
                    mem.rfmCount(RfmReason::TimingBased)));
    std::printf("\nA row can never reach the Back-Off threshold, so "
                "no activity-dependent RFM ever fires.\n");
    return 0;
}
