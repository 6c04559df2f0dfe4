#include "sim/design.h"

#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "mitigation/registry.h"

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
    config.fastForward = design.fastForward;
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

using BaselineKey =
    std::tuple<std::string, DesignConfig, RunBudget, std::uint32_t>;

// shared_future per key: the first thread to claim a key computes
// it, concurrent claimants wait instead of re-simulating.
std::mutex g_baselineMutex;
std::map<BaselineKey, std::shared_future<RunResult>> g_baselineCache;

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

    const BaselineKey key{entry.params.name, baseline, budget, cores};
    std::shared_future<RunResult> future;
    std::promise<RunResult> promise;
    bool owner = false;
    {
        const std::lock_guard<std::mutex> lock(g_baselineMutex);
        const auto it = g_baselineCache.find(key);
        if (it != g_baselineCache.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            g_baselineCache.emplace(key, future);
            owner = true;
        }
    }
    if (owner) {
        try {
            promise.set_value(runOne(entry, baseline, budget, cores));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }

    PairResult pair;
    pair.design = runOne(entry, design, budget, cores);
    pair.baseline = future.get();
    return pair;
}

void
clearBaselineCache()
{
    const std::lock_guard<std::mutex> lock(g_baselineMutex);
    g_baselineCache.clear();
}

std::vector<EntryPerf>
runSuiteNormalized(const std::vector<SuiteEntry> &entries,
                   const DesignConfig &design, const RunBudget &budget,
                   ThreadPool *pool)
{
    std::vector<std::function<PairResult()>> jobs;
    jobs.reserve(entries.size());
    for (const SuiteEntry &entry : entries)
        jobs.push_back([entry, design, budget] {
            return runNormalizedPair(entry, design, budget);
        });
    auto pairs = runParallel(std::move(jobs), pool);

    std::vector<EntryPerf> out;
    out.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EntryPerf perf;
        perf.name = entries[i].params.name;
        perf.intensity = entries[i].intensity;
        perf.normalized =
            normalizedPerf(pairs[i].design, pairs[i].baseline);
        perf.result = std::move(pairs[i].design);
        out.push_back(std::move(perf));
    }
    return out;
}

double
meanNormalized(const std::vector<EntryPerf> &perfs)
{
    if (perfs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &perf : perfs)
        sum += perf.normalized;
    return sum / static_cast<double>(perfs.size());
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
