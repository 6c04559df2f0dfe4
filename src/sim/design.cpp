#include "sim/design.h"

#include <cstdlib>
#include <future>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "mitigation/registry.h"
#include "sim/memo.h"

namespace pracleak::sim {

DesignConfig
designFromLabel(std::string label, std::uint32_t nrh,
                std::uint32_t nmit)
{
    DesignConfig design;
    design.label = label;
    design.nbo = nrh;
    design.nmit = nmit;

    const auto noreset = label.find("-noreset");
    if (noreset != std::string::npos) {
        design.counterReset = false;
        label.erase(noreset, 8);
    }
    const auto tref = label.find("+tref/");
    if (tref != std::string::npos) {
        design.trefPeriodRefs = static_cast<std::uint32_t>(
            std::strtoul(label.c_str() + tref + 6, nullptr, 10));
        label.erase(tref);
    }

    design.perBankRfm = label == "tprac-pb";
    if (label == "baseline")
        design.mitigation = "none";
    else if (design.perBankRfm)
        design.mitigation = "tprac";
    else if (label == "abo-only" || label == "abo+acb-rfm" ||
             label == "tprac")
        design.mitigation = label;
    else
        throw std::invalid_argument("unknown design label '" + label +
                                    "'");
    return design;
}

SystemConfig
makeSystemConfig(const DesignConfig &design, const RunBudget &budget)
{
    SystemConfig config;
    config.spec = design.spec.empty() ? DramSpec::ddr5_8000b()
                                      : specByName(design.spec);
    config.spec.prac.nbo = design.nbo;
    config.spec.prac.nmit = design.nmit;
    if (design.ranks != 0)
        config.spec.org.ranks = design.ranks;
    config.channels = design.channels;
    config.channelInterleaveBytes = design.channelInterleaveBytes;
    config.warmupInstrs = budget.warmup;
    config.measureInstrs = budget.measure;

    if (design.randomRfmPerTrefi >= 0.0)
        config.mem.randomRfmPerTrefi = design.randomRfmPerTrefi;
    config.mem.prac.queue = QueueKind::SingleEntry;
    config.mem.prac.counterResetAtTrefw = design.counterReset;
    config.mem.prac.trefPeriodRefs = design.trefPeriodRefs;
    configureDefense(config.mem, design.mitigation, config.spec,
                     design.trefPeriodRefs != 0);
    config.mem.tbRfm.perBank = design.perBankRfm;
    return config;
}

RunResult
runOne(const SuiteEntry &entry, const DesignConfig &design,
       const RunBudget &budget, std::uint32_t cores)
{
    System system(makeSystemConfig(design, budget),
                  instantiate(entry, cores));
    return system.run();
}

namespace {

Memo<std::tuple<std::string, DesignConfig, RunBudget, std::uint32_t>,
     RunResult>
    g_baselines;

} // namespace

PairResult
runNormalizedPair(const SuiteEntry &entry, const DesignConfig &design,
                  const RunBudget &budget, std::uint32_t cores)
{
    // Normalize away every knob only the defense reads, so designs
    // that differ only in their defense share one baseline; whatever
    // else the baseline run can observe is in the key by construction.
    DesignConfig baseline = design;
    baseline.label = "baseline";
    baseline.mitigation = "none";
    baseline.perBankRfm = false;
    baseline.randomRfmPerTrefi = DesignConfig{}.randomRfmPerTrefi;

    const std::shared_future<RunResult> shared = g_baselines.get(
        {entry.params.name, baseline, budget, cores},
        [&] { return runOne(entry, baseline, budget, cores); });
    PairResult pair;
    pair.design = runOne(entry, design, budget, cores);
    pair.baseline = shared.get();
    return pair;
}

void
clearBaselineCache()
{
    g_baselines.clear();
}

const SuiteEntry &
findSuiteEntry(const std::string &name)
{
    static const std::vector<SuiteEntry> suite = standardSuite();
    for (const SuiteEntry &entry : suite)
        if (entry.params.name == name)
            return entry;
    std::string known;
    for (const SuiteEntry &entry : suite)
        known += (known.empty() ? "" : ", ") + entry.params.name;
    throw std::invalid_argument("unknown suite entry '" + name +
                                "' (have: " + known + ")");
}

std::vector<std::string>
suiteEntryNames()
{
    std::vector<std::string> names;
    for (const SuiteEntry &entry : standardSuite())
        names.push_back(entry.params.name);
    return names;
}

std::vector<std::string>
suiteEntryNames(MemIntensity intensity)
{
    std::vector<std::string> names;
    for (const SuiteEntry &entry : standardSuite())
        if (entry.intensity == intensity)
            names.push_back(entry.params.name);
    return names;
}

std::vector<std::string>
memoryIntensiveEntryNames()
{
    std::vector<std::string> names = suiteEntryNames(MemIntensity::High);
    for (auto &name : suiteEntryNames(MemIntensity::Medium))
        names.push_back(std::move(name));
    return names;
}

} // namespace pracleak::sim
