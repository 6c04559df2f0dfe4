#include "mitigation/registry.h"

#include <algorithm>

#include "common/log.h"
#include "mem/controller.h"
#include "mitigation/graphene.h"
#include "mitigation/legacy.h"
#include "mitigation/para.h"
#include "mitigation/pb_rfm.h"
#include "tprac/analysis.h"

namespace pracleak {

const std::vector<MitigationInfo> &
mitigationCatalog()
{
    static const std::vector<MitigationInfo> catalog = {
        {"none",
         "PRAC timings only; no ABO, no RFMs (normalization baseline)",
         false},
        {"abo-only",
         "DRAM Alert Back-Off serviced with Nmit RFMabs (leaky)",
         true},
        {"abo+acb-rfm",
         "host-side per-bank ACT counting, RFMab at the BAT (leaky)",
         true},
        {"tprac",
         "timing-based RFMs on a fixed TB-Window; ABO as safety net",
         true},
        {"obfuscation",
         "ABO plus random RFMab injection per tREFI (Section 7.1)",
         true},
        {"para",
         "probabilistic in-DRAM neighbour refresh (no bus events)",
         false},
        {"graphene",
         "Misra-Gries counter table per bank, targeted RFMpb (leaky)",
         false},
        {"pb-rfm",
         "DDR5 RAAIMT-style per-bank RFM scheduling (leaky)", false},
    };
    return catalog;
}

const MitigationInfo *
findMitigation(const std::string &name)
{
    for (const MitigationInfo &info : mitigationCatalog())
        if (name == info.name)
            return &info;
    return nullptr;
}

std::vector<std::string>
mitigationNames()
{
    std::vector<std::string> names;
    for (const MitigationInfo &info : mitigationCatalog())
        names.emplace_back(info.name);
    return names;
}

std::unique_ptr<Mitigation>
makeMitigation(const std::string &name, const MitigationContext &ctx)
{
    const DramSpec &spec = *ctx.spec;
    const ControllerConfig &config = *ctx.config;
    const std::uint32_t banks = spec.org.totalBanks();

    if (name == "none" || name == "abo-only") {
        return std::make_unique<NullMitigation>(
            name == "none" ? "none" : "abo-only");
    }
    if (name == "abo+acb-rfm") {
        if (config.bat == 0)
            fatal("abo+acb-rfm requires a non-zero BAT");
        return std::make_unique<AcbRfmMitigation>(banks, config.bat);
    }
    if (name == "tprac") {
        if (config.tbRfm.windowCycles == 0)
            fatal("tprac requires a non-zero TB-Window");
        TbRfmConfig tb = config.tbRfm;
        if (tb.perBank) {
            // Rotate through every bank within one window so each
            // bank still gets one mitigation per windowCycles.
            tb.windowCycles =
                std::max<Cycle>(1, tb.windowCycles / banks);
        }
        return std::make_unique<TpracMitigation>(tb, ctx.prac, banks);
    }
    if (name == "obfuscation") {
        return std::make_unique<ObfuscationMitigation>(
            config.randomRfmPerTrefi, config.obfuscationSeed,
            spec.timing.tREFI);
    }
    if (name == "para") {
        if (config.para.refreshProb <= 0.0)
            fatal("PARA requires a non-zero refresh probability");
        return std::make_unique<ParaMitigation>(
            config.para, config.channelIndex, ctx.prac, ctx.stats);
    }
    if (name == "graphene") {
        return std::make_unique<GrapheneMitigation>(
            config.graphene, banks, spec.timing.tREFW, ctx.stats);
    }
    if (name == "pb-rfm") {
        return std::make_unique<PbRfmMitigation>(config.pbRfm, banks,
                                                 ctx.stats);
    }
    fatal("unknown mitigation '" + name +
          "' (see mitigationCatalog())");
}

void
configureDefense(ControllerConfig &config, const std::string &name,
                 const DramSpec &spec, bool tref_co_design)
{
    if (!findMitigation(name))
        fatal("unknown mitigation '" + name +
              "' (see mitigationCatalog())");

    config.mitigation = name;
    const std::uint32_t nbo = spec.prac.nbo;
    const bool reset = config.prac.counterResetAtTrefw;
    const FeintingParams fp = FeintingParams::fromSpec(spec);

    if (name == "abo+acb-rfm" && config.bat == 0)
        config.bat =
            std::max<std::uint32_t>(16, maxSafeBat(nbo, reset, fp));
    if (name == "tprac" && config.tbRfm.windowCycles == 0)
        config.tbRfm =
            TbRfmConfig::forNbo(nbo, reset, spec, tref_co_design);
    if (name == "para" && config.para.refreshProb <= 0.0)
        config.para.refreshProb =
            std::min(1.0, 64.0 / static_cast<double>(nbo));
    if (name == "graphene") {
        if (config.graphene.threshold == 0)
            config.graphene.threshold =
                std::max<std::uint32_t>(16, nbo / 4);
        if (config.graphene.tableSize == 0) {
            // One entry per threshold activations of the tREFW budget
            // keeps the Space-Saving overestimate below the trigger
            // threshold (no decoy-scanning false triggers).
            const std::uint64_t budget = maxActsPerTrefw(0.0, fp);
            config.graphene.tableSize = std::max<std::uint32_t>(
                64, static_cast<std::uint32_t>(
                        budget / config.graphene.threshold + 1));
        }
    }
    if (name == "pb-rfm" && config.pbRfm.raaimt == 0)
        config.pbRfm.raaimt =
            std::max<std::uint32_t>(16, maxSafeBat(nbo, reset, fp));
}

} // namespace pracleak
