/**
 * @file
 * Covert-channel scenario: Table 2, transmission period and bitrate
 * of the activity-based and activation-count-based channels.
 */

#include "sim/scenario.h"

#include "attack/covert.h"
#include "common/rng.h"
#include "sim/scenario_util.h"

namespace pracleak::sim {

namespace {

std::vector<std::uint32_t>
randomSymbols(std::size_t n, std::uint32_t bound, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> symbols(n);
    for (auto &symbol : symbols)
        symbol = static_cast<std::uint32_t>(rng.range(bound));
    return symbols;
}

Scenario
table2CovertChannels()
{
    Scenario scenario;
    scenario.name = "table2_covert_channels";
    scenario.tags = {"covert"};
    scenario.title = "Table 2: covert-channel period and bitrate";
    scenario.notes = "paper: activity 24.1-91.8us / 41.4-10.9Kbps; "
                     "count 64.7-257.6us / 123.6-38.8Kbps (our count "
                     "channel trades payload bits for robustness)";
    scenario.grid.axis("channel", {"activity", "count"})
        .axis("nbo", {256, 512, 1024})
        .constant("bits", 32)      // activity-channel message length
        .constant("symbols", 24);  // count-channel message length

    scenario.runPoint = [](const ParamSet &params) {
        const auto nbo = params.getUint32("nbo");
        CovertParams config;
        config.nbo = nbo;

        CovertResult result;
        if (params.getString("channel") == "activity") {
            result = runActivityCovert(
                config,
                randomBits(
                    static_cast<std::size_t>(params.getInt("bits")),
                    nbo));
        } else {
            const std::uint32_t bound =
                nbo <= 256 ? nbo / 16 : nbo / 32;
            result = runCountCovert(
                config,
                randomSymbols(
                    static_cast<std::size_t>(params.getInt("symbols")),
                    bound, nbo + 1));
        }

        ResultRow row = JsonValue::object();
        row.set("period_us", result.periodUs());
        row.set("rate_kbps", result.bitrateKbps());
        row.set("error_pct", 100.0 * result.errorRate());
        row.set("symbols_sent", result.symbolsSent);
        row.set("bits_per_symbol", result.bitsPerSymbol);
        return std::vector<ResultRow>{std::move(row)};
    };
    return scenario;
}

} // namespace

void
registerCovertScenarios(ScenarioRegistry &registry)
{
    registry.add(table2CovertChannels());
}

} // namespace pracleak::sim
