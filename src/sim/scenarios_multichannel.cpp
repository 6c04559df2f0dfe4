/**
 * @file
 * Multi-channel scenarios (extensions beyond the paper's
 * single-channel evaluation):
 *
 *  - perf_channel_sweep: throughput and mitigation overhead vs the
 *    number of interleaved channels.
 *  - sidechannel_cross_channel: the ABO side channel observed from
 *    the victim's channel vs from a different channel -- PRAC state
 *    is per-channel, so the leak does not cross the interleave.
 *  - covert_channel_parallel: aggregate covert capacity when one
 *    sender/receiver pair runs on every channel in parallel.
 */

#include "sim/scenario.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attack/agents.h"
#include "attack/covert.h"
#include "attack/harness.h"
#include "cpu/system.h"
#include "sim/design.h"
#include "sim/scenario_util.h"

namespace pracleak::sim {

namespace {

// --- Channel-count performance sweep -------------------------------

Scenario
perfChannelSweep()
{
    Scenario scenario;
    scenario.name = "perf_channel_sweep";
    scenario.tags = {"perf", "multichannel"};
    scenario.title = "Channel sweep: throughput and TPRAC overhead vs "
                     "interleaved channel count";
    scenario.notes = "per-channel PRAC engines fire their TB-RFMs in "
                     "lockstep, so TPRAC overhead stays flat as "
                     "channels scale while ipc_sum rises with the "
                     "added bandwidth";
    scenario.grid.axis("channels", {1, 2, 4})
        .axis("design", {"abo-only", "tprac"})
        .axis("entry",
              toValues({"h_rand_heavy", "h_stream_wide", "m_blend"}))
        .constant("nrh", 1024)
        .constant("warmup", 50'000)
        .constant("measure", 150'000);

    scenario.runPoint = [](const ParamSet &params) {
        DesignConfig design = designFromLabel(
            params.getString("design"),
            params.getUint32("nrh"), 1);
        design.channels = params.getUint32("channels");

        RunBudget budget;
        budget.warmup =
            static_cast<std::uint64_t>(params.getInt("warmup"));
        budget.measure =
            static_cast<std::uint64_t>(params.getInt("measure"));

        const SuiteEntry &entry =
            findSuiteEntry(params.getString("entry"));
        const PairResult pair =
            runNormalizedPair(entry, design, budget);

        ResultRow row = JsonValue::object();
        row.set("normalized",
                normalizedPerf(pair.design, pair.baseline));
        row.set("ipc_sum", pair.design.ipcSum());
        row.set("measure_cycles", pair.design.measureCycles);
        setRfmColumns(row, pair.design.stats, {RfmReason::TimingBased});
        row.set("alerts", pair.design.stats.alerts);
        JsonValue per_channel = JsonValue::array();
        for (const ChannelResult &channel : pair.design.channels)
            per_channel.push(channel.energyCounts.acts);
        row.set("acts_per_channel", std::move(per_channel));
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        // Mean normalized perf per (design, channels) group found in
        // the rows (so axis overrides still summarize), plus IPC
        // scaling vs the same design at channels=1 when the sweep
        // contains those baseline points.
        struct Bucket
        {
            double norm = 0.0, ipc = 0.0, ipc1 = 0.0;
            std::int64_t count = 0, withBase = 0;
        };
        using Key = std::pair<std::string, std::int64_t>;
        std::vector<Key> order;
        std::map<Key, Bucket> groups;
        for (const ResultRow &row : rows) {
            const Key key{row.get("design")->asString(),
                          row.get("channels")->asInt()};
            if (groups.find(key) == groups.end())
                order.push_back(key);
            Bucket &bucket = groups[key];
            bucket.norm += row.get("normalized")->asDouble();
            bucket.ipc += row.get("ipc_sum")->asDouble();
            ++bucket.count;
            for (const ResultRow &base : rows) {
                if (base.get("design")->asString() == key.first &&
                    base.get("channels")->asInt() == 1 &&
                    base.get("entry")->asString() ==
                        row.get("entry")->asString()) {
                    bucket.ipc1 += base.get("ipc_sum")->asDouble();
                    ++bucket.withBase;
                    break;
                }
            }
        }
        std::vector<ResultRow> out;
        for (const Key &key : order) {
            const Bucket &bucket = groups[key];
            ResultRow row = JsonValue::object();
            row.set("design", key.first);
            row.set("channels", key.second);
            row.set("mean_normalized",
                    bucket.norm /
                        static_cast<double>(bucket.count));
            if (bucket.withBase == bucket.count && bucket.ipc1 > 0.0)
                row.set("ipc_scaling", bucket.ipc / bucket.ipc1);
            out.push_back(std::move(row));
        }
        return out;
    };
    return scenario;
}

// --- Cross-channel side channel ------------------------------------

Scenario
sidechannelCrossChannel()
{
    Scenario scenario;
    scenario.name = "sidechannel_cross_channel";
    scenario.tags = {"attack", "multichannel"};
    scenario.title = "Cross-channel isolation: ABO spikes seen from "
                     "the victim's channel vs another channel";
    scenario.notes = "PRAC counters, Alerts, and RFMs are per "
                     "channel: the same-channel probe sees every "
                     "ABO-RFM, the cross-channel probe sees none";
    scenario.grid.axis("probe", {"same-channel", "cross-channel"})
        .axis("nmit", {1, 4})
        .constant("nbo", 256)
        .constant("window_ms", 1.0);

    scenario.runPoint = [](const ParamSet &params) {
        // Refresh off isolates the ABO effects.
        const AttackSetup setup = attackSetup(
            DramSpec::ddr5_8000b(), "abo-only",
            params.getUint32("nbo"),
            params.getUint32("nmit"), false);
        const DramSpec &spec = setup.spec;
        AttackHarness harness(spec, setup.controller, 2);
        const std::uint32_t probe_channel =
            params.getString("probe") == "same-channel" ? 0 : 1;

        // The victim hammers on channel 0, placed like the leak
        // experiment's; the probe reads its own private row on
        // probe_channel.
        AttackerConfig probe_config;
        probe_config.targetRow = 3;
        ProbeAgent probe(harness.mem(probe_channel), probe_config);
        HammerAgent victim(harness.mem(0), leakVictimPlacement());

        harness.add(&probe, probe_channel);
        harness.add(&victim, 0);

        victim.repeat(pastContractBurst(spec.prac));
        harness.run(nsToCycles(params.getDouble("window_ms") * 1.0e6));

        std::uint64_t spikes = 0;
        for (const auto &sample : probe.samples())
            spikes += sample.latency >= ProbeAgent::spikeThreshold();

        ResultRow row = JsonValue::object();
        row.set("spikes", spikes);
        row.set("probe_reads", probe.completed());
        row.set("victim_channel_alerts",
                harness.mem(0).prac().alerts());
        row.set("probe_channel_alerts",
                harness.mem(probe_channel).prac().alerts());
        row.set("leak_visible",
                spikes > 0 && harness.mem(0).prac().alerts() > 0);
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::vector<ResultRow> out;
        for (const char *probe : {"same-channel", "cross-channel"}) {
            std::uint64_t spikes = 0;
            std::int64_t leaks = 0, count = 0;
            for (const ResultRow &row : rows) {
                if (row.get("probe")->asString() != probe)
                    continue;
                spikes += static_cast<std::uint64_t>(
                    row.get("spikes")->asInt());
                leaks += row.get("leak_visible")->asBool() ? 1 : 0;
                ++count;
            }
            ResultRow row = JsonValue::object();
            row.set("probe", probe);
            row.set("total_spikes",
                    static_cast<std::int64_t>(spikes));
            row.set("leaking_points", leaks);
            row.set("points", count);
            out.push_back(std::move(row));
        }
        return out;
    };
    return scenario;
}

// --- Channel-parallel covert capacity ------------------------------

Scenario
covertChannelParallel()
{
    Scenario scenario;
    scenario.name = "covert_channel_parallel";
    scenario.tags = {"covert", "multichannel"};
    scenario.title = "Covert capacity table: one activity-channel "
                     "pair per memory channel, in parallel";
    scenario.notes = "all pairs run concurrently on one multi-channel "
                     "harness: per-channel PRAC state keeps them "
                     "isolated, so capacity scales linearly -- a "
                     "cross-channel Alert/RFM leak would show up "
                     "here as decode errors";
    scenario.grid.axis("channels", {1, 2, 4})
        .constant("nbo", 256)
        .constant("bits", 24);

    scenario.runPoint = [](const ParamSet &params) {
        const auto channels = params.getUint32("channels");
        const auto nbo = params.getUint32("nbo");
        const auto bits =
            static_cast<std::size_t>(params.getInt("bits"));

        // One sender/receiver pair per channel, each with its own
        // message, stepped concurrently on one harness.
        CovertParams config;
        config.nbo = nbo;
        std::vector<std::vector<bool>> messages;
        for (std::uint32_t c = 0; c < channels; ++c)
            messages.push_back(randomBits(bits, 1000 + 17 * c));
        const std::vector<CovertResult> per_channel =
            runActivityCovertParallel(config, messages);

        double rate_sum = 0.0;
        double period_sum = 0.0;
        std::size_t errors = 0, symbols = 0;
        for (const CovertResult &result : per_channel) {
            rate_sum += result.bitrateKbps();
            period_sum += result.periodUs();
            errors += result.symbolErrors;
            symbols += result.symbolsSent;
        }

        ResultRow row = JsonValue::object();
        row.set("aggregate_kbps", rate_sum);
        row.set("mean_period_us",
                period_sum / static_cast<double>(channels));
        row.set("error_pct",
                symbols ? 100.0 * static_cast<double>(errors) /
                              static_cast<double>(symbols)
                        : 0.0);
        row.set("symbols_sent",
                static_cast<std::int64_t>(symbols));
        return std::vector<ResultRow>{std::move(row)};
    };
    return scenario;
}

} // namespace

void
registerMultichannelScenarios(ScenarioRegistry &registry)
{
    registry.add(perfChannelSweep());
    registry.add(sidechannelCrossChannel());
    registry.add(covertChannelParallel());
}

} // namespace pracleak::sim
