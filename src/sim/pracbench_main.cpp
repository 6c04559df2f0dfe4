/**
 * @file
 * `pracbench` -- the unified scenario runner CLI, organized as
 * subcommands:
 *
 *   pracbench list
 *   pracbench run fig10_performance --jobs 4 --out results/fig10.json
 *   pracbench run all --out results/ --csv results/
 *   pracbench run fig13_nrh_sweep --set nrh=512,1024 --set measure=50000
 *   pracbench run defense_matrix_perf --checkpoint ckpt/ --resume
 *   pracbench record traces/ --workload h_rand_heavy
 *   pracbench replay traces/h_rand_heavy.trc --set mitigation=none,tprac
 *
 * Every verb has exactly one spelling.  Unknown flags and subcommands
 * are hard errors with a "did you mean" hint, a numeric flag value
 * that is not a number in range is rejected, and so is an empty flag
 * value -- a typo'd axis, mode, count or unset path variable must
 * never silently run the wrong sweep or write nothing.
 */

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/adversaries.h"
#include "common/log.h"
#include "mitigation/registry.h"
#include "sim/analyze_support.h"
#include "sim/design.h"
#include "sim/provenance.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/scenario_util.h"
#include "sim/search.h"
#include "sim/suggest.h"
#include "sim/trace_support.h"
#include "telemetry/io.h"

using namespace pracleak::sim;
using pracleak::telemetry::writeAtomic;

namespace {

void
printUsage()
{
    std::string knobs;
    for (const pracleak::AttackerField &field : pracleak::kAttackerFields)
        if (field.tunable)
            knobs += (knobs.empty() ? "" : ", ") + std::string(field.name);
    std::printf(
        "usage: pracbench COMMAND [options]\n"
        "\n"
        "commands:\n"
        "  run NAME...            run scenarios ('all' runs every "
        "one)\n"
        "  list                   list registered scenarios, "
        "defenses, and attackers\n"
        "  search SCENARIO        successive-halving attacker-knob "
        "search against one\n"
        "                         defense; SCENARIO supplies the "
        "evaluation universe\n"
        "                         (its spec/nbo/window_ms constants), "
        "e.g.\n"
        "                         defense_matrix_adaptive\n"
        "  record DIR             record memory-request traces into "
        "DIR/<name>.trc\n"
        "  replay FILE            replay a recorded trace against "
        "fresh defenses\n"
        "  analyze SERIES...      offline leakage analysis over "
        "--series-out files:\n"
        "                         burst detection and ON/OFF "
        "distinguishability of\n"
        "                         the bus-visible mitigation "
        "traffic, per defense\n"
        "  help                   this message\n"
        "\n"
        "run options:\n"
        "  --jobs N               worker threads, 0-4096 (default 0: "
        "hardware\n"
        "                         concurrency)\n"
        "  --out PATH             write JSON results; a .json path "
        "for a single\n"
        "                         scenario, else a directory "
        "(NAME.json per scenario)\n"
        "  --csv PATH             same for CSV output\n"
        "  --set AXIS=V1[,V2...]  override a grid axis (repeatable; "
        "unknown axes error)\n"
        "  --try-set AXIS=V1[,..] like --set, but skipped when the "
        "scenario has no such axis\n"
        "  --checkpoint DIR       journal each completed sweep point "
        "under DIR as\n"
        "                         workers finish (overwrites an "
        "existing journal\n"
        "                         unless --resume is given)\n"
        "  --resume               with --checkpoint: skip points "
        "already journaled by\n"
        "                         an earlier (killed) run and merge "
        "their rows back in\n"
        "  --smoke                one-point sweep with a tiny "
        "budget (CI smoke)\n"
        "  --quiet                suppress per-point progress lines\n"
        "  --no-table             skip the text tables on stdout\n"
        "  --trace-out PATH       write a Chrome trace-event JSON "
        "of the sweep\n"
        "                         (Perfetto-loadable: one lane per "
        "worker, a span\n"
        "                         per point; single scenario only)\n"
        "  --series-out PATH      write the windowed command-bus "
        "time series of\n"
        "                         every simulation the sweep runs "
        "(JSONL, or CSV\n"
        "                         when PATH ends in .csv; single "
        "scenario only);\n"
        "                         with --trace-out, ACT/RFM counter "
        "lanes are\n"
        "                         merged into the trace\n"
        "  --log-level LEVEL      quiet|warn|info|debug or 0-9 "
        "(default: warn)\n"
        "\n"
        "search options:\n"
        "  --target-defense D     defense under attack (required; "
        "see `pracbench list`)\n"
        "  --attacker NAME        attacker whose knobs are walked "
        "(default: the\n"
        "                         defense-matched adversary)\n"
        "  --budget N             candidate configurations, "
        "including the oblivious\n"
        "                         baseline (default: the scenario's "
        "'budget' constant)\n"
        "  --rounds N             successive-halving rounds, 0-32; the "
        "last runs the\n"
        "                         full window (default: the scenario's "
        "'rounds'\n"
        "                         constant)\n"
        "  --seed S               candidate-sampling seed\n"
        "  --set attacker.K=V     pin knob K to V >= 1 instead of "
        "sampling it, K one of\n"
        "                         %s;\n"
        "                         --set attacker=NAME is an alias for "
        "--attacker\n"
        "  --out FILE.json        write the search result JSON "
        "(default: stdout)\n"
        "  --jobs/--checkpoint/--resume/--quiet  as for run; the "
        "result is\n"
        "                         byte-identical at any jobs width "
        "and across a\n"
        "                         kill + --resume cycle\n"
        "\n"
        "record options: --workload NAME (repeatable), --jobs N, "
        "--set/--try-set AXIS=V\n"
        "                (workload, mitigation, spec, nbo, warmup, "
        "measure, channels,\n"
        "                cores; one value each except workload), "
        "--smoke (one workload),\n"
        "                --quiet, --trace-out PATH, --series-out PATH\n"
        "replay options: --jobs N, --set mitigation=A,B, --verify, "
        "--out FILE.json,\n"
        "                --no-table, --quiet, --trace-out PATH, "
        "--series-out PATH\n"
        "\n"
        "analyze options:\n"
        "  --defense-matrix       also print/emit the per-defense "
        "worst-case\n"
        "                         summary (the defense_matrix_"
        "leakage verdicts)\n"
        "  --out FILE.json        write verdicts (and summary) as "
        "JSON\n"
        "  --no-table             skip the text tables on stdout\n"
        "\n"
        "Flag values are checked: an empty value, or a numeric value "
        "that is not a\n"
        "decimal integer in range, exits 2.\n",
        knobs.c_str());
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::vector<JsonValue>
parseValueList(const std::string &text)
{
    std::vector<JsonValue> values;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string piece =
            text.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!piece.empty())
            values.push_back(parseScalar(piece));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return values;
}

std::string
outputPath(const std::string &base, const std::string &scenario,
           const char *extension, bool single)
{
    if (single && endsWith(base, extension))
        return base;
    std::string dir = base;
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    return dir + scenario + extension;
}

/**
 * Create the directory every emission under @p base will land in,
 * *before* any sweep runs: a long sweep must not die at emission
 * time on a missing or unwritable output location.
 */
bool
prepareOutputDir(const std::string &base, const char *extension,
                 bool single)
{
    if (base.empty())
        return true;
    std::filesystem::path dir(base);
    if (single && endsWith(base, extension))
        dir = dir.parent_path();
    if (dir.empty())
        return true;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !std::filesystem::is_directory(dir)) {
        std::fprintf(stderr,
                     "pracbench: cannot create output directory "
                     "%s%s%s\n",
                     dir.string().c_str(), ec ? ": " : "",
                     ec ? ec.message().c_str() : "");
        return false;
    }
    return true;
}

/** "unknown X 'word' (did you mean 'hint'?)" on stderr; exits 2. */
[[noreturn]] void
rejectUnknown(const std::string &what, const std::string &word,
              const std::vector<std::string> &candidates)
{
    const std::string hint = closestTo(word, candidates);
    std::fprintf(stderr, "pracbench: unknown %s '%s'%s%s%s\n",
                 what.c_str(), word.c_str(),
                 hint.empty() ? "" : " (did you mean '",
                 hint.c_str(), hint.empty() ? "" : "'?)");
    std::fprintf(stderr, "pracbench: see `pracbench help`\n");
    std::exit(2);
}

/** Sweep flags shared by run, record and replay. */
struct RunCli
{
    std::vector<std::string> names;
    RunOptions options;
    std::string outJson;
    std::string outCsv;
    std::string checkpointDir;
    bool table = true;
    bool smoke = false;
};

/** Tiny budgets for every knob a scenario might sweep (--smoke). */
void
applySmokeBudgets(RunOptions &options)
{
    options.firstPointOnly = true;
    // Applied after the whole command line is parsed so an explicit
    // --set/--try-set for the same axis always wins, wherever it
    // appears relative to --smoke.
    const std::pair<const char *, JsonValue> tiny[] = {
        {"warmup", std::int64_t{2'000}},
        {"measure", std::int64_t{5'000}},
        {"window_ms", 0.2},
        {"encryptions", std::int64_t{60}},
        {"repeats", std::int64_t{1}},
        {"bits", std::int64_t{4}},
        {"symbols", std::int64_t{2}},
        {"message_bits", std::int64_t{4}},
    };
    for (const auto &[axis, value] : tiny)
        if (options.overrides.find(axis) ==
                options.overrides.end() &&
            options.softOverrides.find(axis) ==
                options.softOverrides.end())
            options.softOverrides[axis] = {value};
}

/**
 * Fetch the value after a flag; exits 2 when it is missing or empty.
 * An empty value is what an unset shell variable expands to, and
 * for a path flag it would otherwise silently mean "off".
 */
std::string
nextValue(const std::vector<std::string> &args, std::size_t &i,
          const std::string &flag)
{
    if (i + 1 >= args.size() || args[i + 1].empty()) {
        std::fprintf(stderr, "pracbench: %s needs a non-empty value\n",
                     flag.c_str());
        std::exit(2);
    }
    return args[++i];
}

/** Worker threads a --jobs value may ask for (0 = hardware). */
constexpr std::uint64_t kMaxJobs = 4096;

/**
 * The one integer parser behind every numeric flag: @p text as a
 * decimal integer in [0, @p max].  Anything else (empty, a sign,
 * trailing junk, overflow) exits 2 naming @p flag -- a mistyped count
 * must never fall back to a default or wrap into a huge thread pool.
 */
std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || value > max) {
        std::fprintf(stderr,
                     "pracbench: %s expects an integer from 0 to "
                     "%llu, got '%s'\n",
                     flag.c_str(), static_cast<unsigned long long>(max),
                     text.c_str());
        std::exit(2);
    }
    return value;
}

/** The value after a numeric flag, checked by parseCount(). */
std::uint64_t
nextCount(const std::vector<std::string> &args, std::size_t &i,
          const std::string &flag, std::uint64_t max)
{
    return parseCount(flag, nextValue(args, i, flag), max);
}

/**
 * Parse the sweep flags every data-producing command shares.
 * Returns false when @p arg is not one of them (positional or a
 * command-specific flag).
 */
bool
parseCommonFlag(RunCli &cli, const std::vector<std::string> &args,
                std::size_t &i)
{
    const std::string &arg = args[i];
    if (arg == "--jobs" || arg == "-j") {
        cli.options.jobs =
            static_cast<unsigned>(nextCount(args, i, arg, kMaxJobs));
    } else if (arg == "--out" || arg == "-o") {
        cli.outJson = nextValue(args, i, arg);
    } else if (arg == "--csv") {
        cli.outCsv = nextValue(args, i, arg);
    } else if (arg == "--set" || arg == "--try-set") {
        const std::string spec = nextValue(args, i, arg);
        const std::size_t eq = spec.find('=');
        if (eq == std::string::npos || eq == 0) {
            std::fprintf(stderr,
                         "pracbench: %s expects AXIS=V1[,V2]\n",
                         arg.c_str());
            std::exit(2);
        }
        auto &target = arg == "--set" ? cli.options.overrides
                                      : cli.options.softOverrides;
        target[spec.substr(0, eq)] =
            parseValueList(spec.substr(eq + 1));
    } else if (arg == "--smoke") {
        cli.smoke = true;
    } else if (arg == "--quiet" || arg == "-q") {
        cli.options.progress = false;
    } else if (arg == "--no-table") {
        cli.table = false;
    } else if (arg == "--trace-out") {
        cli.options.telemetry.traceOut = nextValue(args, i, arg);
    } else if (arg == "--series-out") {
        cli.options.telemetry.seriesOut = nextValue(args, i, arg);
    } else if (arg == "--log-level") {
        const std::string value = nextValue(args, i, arg);
        const int level = pracleak::parseLogLevel(value);
        if (level < 0) {
            std::fprintf(stderr,
                         "pracbench: --log-level expects "
                         "quiet|warn|info|debug or 0-9, got '%s'\n",
                         value.c_str());
            std::exit(2);
        }
        pracleak::setLogLevel(level);
    } else {
        return false;
    }
    return true;
}

int
commandList(const std::vector<std::string> &args)
{
    for (std::size_t i = 0; i < args.size(); ++i)
        if (args[i] == "--help" || args[i] == "-h") {
            printUsage();
            return 0;
        } else {
            rejectUnknown("option for `list`", args[i],
                          {"--help"});
        }
    const ScenarioRegistry &registry = ScenarioRegistry::instance();
    std::printf("%-28s %7s  %s\n", "scenario", "points", "tags");
    for (const Scenario *scenario : registry.all()) {
        std::string tags;
        for (const std::string &tag : scenario->tags)
            tags += (tags.empty() ? "" : ", ") + tag;
        std::printf("%-28s %7zu  %s\n", scenario->name.c_str(),
                    scenario->grid.size(), tags.c_str());
        std::printf("    %s\n", scenario->title.c_str());
    }

    std::printf("\n%-28s %s\n", "mitigation", "description");
    for (const pracleak::MitigationInfo &info :
         pracleak::mitigationCatalog())
        std::printf("%-28s %s\n", info.name, info.description);

    std::printf("\n%-28s %-10s %s\n", "attacker", "tuned-for",
                "description");
    for (const pracleak::AttackerInfo &info :
         pracleak::attackerCatalog())
        std::printf("%-28s %-10s %s\n", info.name,
                    info.targetDefense[0] ? info.targetDefense : "-",
                    info.description);
    return 0;
}

/**
 * Exit 2 on any --set/--try-set value of @p axis outside @p known
 * before the sweep starts, with a "did you mean" hint: a point must
 * not die on it mid-sweep.
 */
void
checkAxisValues(const RunOptions &options, const std::string &axis,
                const std::vector<std::string> &known)
{
    for (const auto *set : {&options.overrides, &options.softOverrides}) {
        const auto it = set->find(axis);
        if (it == set->end())
            continue;
        for (const JsonValue &value : it->second)
            if (std::find(known.begin(), known.end(), value.asString()) ==
                known.end())
                rejectUnknown(axis, value.asString(), known);
    }
}

int
commandRun(const std::vector<std::string> &args)
{
    RunCli cli;
    static const std::vector<std::string> known = {
        "--jobs",       "--out",       "--csv",
        "--set",        "--try-set",   "--smoke",
        "--quiet",      "--no-table",  "--checkpoint",
        "--resume",     "--trace-out", "--series-out",
        "--log-level",  "--help"};
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (parseCommonFlag(cli, args, i))
            continue;
        if (arg == "--checkpoint") {
            cli.checkpointDir = nextValue(args, i, arg);
        } else if (arg == "--resume") {
            cli.options.checkpoint.resume = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            rejectUnknown("option for `run`", arg, known);
        } else {
            cli.names.push_back(arg);
        }
    }

    if (cli.smoke)
        applySmokeBudgets(cli.options);
    checkAxisValues(cli.options, "mitigation",
                    pracleak::mitigationNames());
    if (cli.options.checkpoint.resume && cli.checkpointDir.empty()) {
        std::fprintf(stderr,
                     "pracbench: --resume requires --checkpoint\n");
        return 2;
    }
    cli.options.checkpoint.directory = cli.checkpointDir;

    const ScenarioRegistry &registry = ScenarioRegistry::instance();
    if (cli.names.empty()) {
        std::fprintf(stderr,
                     "pracbench: run needs at least one scenario "
                     "name (or 'all'); try `pracbench list`\n");
        return 2;
    }
    if (cli.names.size() == 1 && cli.names[0] == "all") {
        cli.names.clear();
        for (const Scenario *scenario : registry.all())
            cli.names.push_back(scenario->name);
    }
    // Validate every name before running anything: a typo in the
    // third of five scenarios must not surface after the first ran.
    std::vector<std::string> knownNames;
    for (const Scenario *scenario : registry.all())
        knownNames.push_back(scenario->name);
    for (const std::string &name : cli.names)
        if (!registry.find(name))
            rejectUnknown("scenario", name, knownNames);

    const bool single = cli.names.size() == 1;
    if (!single && (endsWith(cli.outJson, ".json") ||
                    endsWith(cli.outCsv, ".csv"))) {
        std::fprintf(stderr,
                     "pracbench: multiple scenarios need a directory "
                     "for --out/--csv, not a file path\n");
        return 2;
    }
    if (!single && !cli.options.telemetry.traceOut.empty()) {
        std::fprintf(stderr,
                     "pracbench: --trace-out records one sweep per "
                     "file; run the scenarios separately\n");
        return 2;
    }
    if (!single && !cli.options.telemetry.seriesOut.empty()) {
        std::fprintf(stderr,
                     "pracbench: --series-out records one sweep per "
                     "file; run the scenarios separately\n");
        return 2;
    }
    // Fail fast on bad output locations: create them now rather
    // than discovering a missing/unwritable directory at emission
    // time, after a long sweep.
    if (!prepareOutputDir(cli.outJson, ".json", single) ||
        !prepareOutputDir(cli.outCsv, ".csv", single) ||
        !prepareOutputDir(cli.checkpointDir, ".jsonl",
                          /*single=*/false))
        return 2;

    for (const std::string &name : cli.names) {
        try {
            const SweepResult result =
                runScenarioByName(name, cli.options);
            if (cli.table)
                printTables(result);
            // Finalize via temp + atomic rename: a crash during
            // emission must never leave a torn artifact that a
            // later --resume (or a results consumer) trusts.
            if (!cli.outJson.empty()) {
                const std::string path = outputPath(
                    cli.outJson, name, ".json", single);
                if (!writeAtomic(path,
                                 result.toJson().dump(2) + "\n"))
                    return 1;
                std::fprintf(stderr, "pracbench: wrote %s\n",
                             path.c_str());
            }
            if (!cli.outCsv.empty()) {
                const std::string path =
                    outputPath(cli.outCsv, name, ".csv", single);
                if (!writeAtomic(path, result.toCsv()))
                    return 1;
                std::fprintf(stderr, "pracbench: wrote %s\n",
                             path.c_str());
            }
        } catch (const std::exception &error) {
            std::fprintf(stderr, "pracbench: %s\n", error.what());
            return 2;
        }
    }
    return 0;
}

/**
 * `pracbench search SCENARIO --target-defense D [--budget N ...]`:
 * run the successive-halving attacker search (sim/search.h).  The
 * named scenario supplies the evaluation universe -- its single-value
 * spec/nbo/window_ms (and budget/rounds/seed/attacker) constants seed
 * the defaults; explicit flags override them.
 */
int
commandSearch(const std::vector<std::string> &args)
{
    std::string scenarioName;
    std::string targetDefense;
    std::string attackerFlag;
    std::string checkpointDir;
    std::string outJson;
    pracleak::AttackerConfig base;
    std::optional<std::uint32_t> budget;
    std::optional<std::uint32_t> rounds;
    std::optional<std::uint64_t> seed;
    std::optional<int> jobs;
    bool resume = false;
    bool quiet = false;
    static const std::vector<std::string> known = {
        "--target-defense", "--attacker", "--budget",
        "--rounds",         "--seed",     "--jobs",
        "--checkpoint",     "--resume",   "--out",
        "--set",            "--quiet",    "--help"};
    std::vector<std::string> knownSetKeys = {"attacker"};
    for (const pracleak::AttackerField &field : pracleak::kAttackerFields)
        if (field.tunable)
            knownSetKeys.push_back(std::string("attacker.") + field.name);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--target-defense") {
            targetDefense = nextValue(args, i, arg);
        } else if (arg == "--attacker") {
            attackerFlag = nextValue(args, i, arg);
        } else if (arg == "--budget") {
            budget = static_cast<std::uint32_t>(
                nextCount(args, i, arg, UINT32_MAX));
        } else if (arg == "--rounds") {
            // Round r of R runs window / 2^(R-r): R must keep that
            // shift inside 32 bits.
            rounds =
                static_cast<std::uint32_t>(nextCount(args, i, arg, 32));
        } else if (arg == "--seed") {
            seed = nextCount(args, i, arg, UINT64_MAX);
        } else if (arg == "--jobs" || arg == "-j") {
            jobs = static_cast<int>(nextCount(args, i, arg, kMaxJobs));
        } else if (arg == "--checkpoint") {
            checkpointDir = nextValue(args, i, arg);
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--out" || arg == "-o") {
            outJson = nextValue(args, i, arg);
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else if (arg == "--set") {
            const std::string spec = nextValue(args, i, arg);
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr,
                             "pracbench: --set expects KEY=VALUE\n");
                return 2;
            }
            const std::string key = spec.substr(0, eq);
            const std::string value = spec.substr(eq + 1);
            const std::string knob_prefix = "attacker.";
            const pracleak::AttackerField *field =
                key.starts_with(knob_prefix)
                    ? pracleak::findAttackerField(
                          key.substr(knob_prefix.size()))
                    : nullptr;
            if (key == "attacker") {
                attackerFlag = value;
            } else if (field && field->tunable) {
                base.*field->field = static_cast<std::uint32_t>(
                    parseCount("--set " + key, value, UINT32_MAX));
                if (base.*field->field == 0) {
                    // The search reads 0 as "not pinned".
                    std::fprintf(stderr,
                                 "pracbench: --set %s=0 cannot pin "
                                 "the knob: 0 leaves it sampled; pin "
                                 "it to 1 or more\n",
                                 key.c_str());
                    return 2;
                }
            } else {
                rejectUnknown("search --set key", key, knownSetKeys);
            }
        } else if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            rejectUnknown("option for `search`", arg, known);
        } else if (scenarioName.empty()) {
            scenarioName = arg;
        } else {
            std::fprintf(stderr,
                         "pracbench: search takes exactly one "
                         "scenario name\n");
            return 2;
        }
    }

    if (scenarioName.empty()) {
        std::fprintf(stderr,
                     "pracbench: search needs a scenario name "
                     "(e.g. defense_matrix_adaptive); try "
                     "`pracbench list`\n");
        return 2;
    }
    const ScenarioRegistry &registry = ScenarioRegistry::instance();
    const Scenario *scenario = registry.find(scenarioName);
    if (!scenario) {
        std::vector<std::string> knownNames;
        for (const Scenario *entry : registry.all())
            knownNames.push_back(entry->name);
        rejectUnknown("scenario", scenarioName, knownNames);
    }
    if (targetDefense.empty()) {
        std::fprintf(stderr,
                     "pracbench: search requires --target-defense "
                     "(see `pracbench list`)\n");
        return 2;
    }
    if (!pracleak::findMitigation(targetDefense))
        rejectUnknown("defense", targetDefense,
                      pracleak::mitigationNames());
    if (!attackerFlag.empty() && attackerFlag != "auto" &&
        !pracleak::findAttacker(attackerFlag))
        rejectUnknown("attacker", attackerFlag,
                      pracleak::attackerNames());
    if (resume && checkpointDir.empty()) {
        std::fprintf(stderr,
                     "pracbench: --resume requires --checkpoint\n");
        return 2;
    }
    if (!outJson.empty() && !endsWith(outJson, ".json")) {
        std::fprintf(stderr,
                     "pracbench: search --out must be a .json file "
                     "path\n");
        return 2;
    }
    if (!prepareOutputDir(outJson, ".json", /*single=*/true) ||
        !prepareOutputDir(checkpointDir, ".jsonl",
                          /*single=*/false))
        return 2;

    SearchOptions options;
    options.targetDefense = targetDefense;
    options.base = base;
    options.checkpointDir = checkpointDir;
    options.resume = resume;
    // Scenario constants seed the defaults...
    const auto singleValue =
        [&scenario](const char *name) -> const JsonValue * {
        const ParamAxis *axis = scenario->grid.findAxis(name);
        return axis && axis->values.size() == 1 ? &axis->values[0]
                                                : nullptr;
    };
    if (const JsonValue *value = singleValue("spec"))
        options.specName = value->asString();
    if (const JsonValue *value = singleValue("nbo"))
        options.nbo =
            static_cast<std::uint32_t>(value->asInt());
    if (const JsonValue *value = singleValue("window_ms"))
        options.windowMs = value->asDouble();
    if (const JsonValue *value = singleValue("budget"))
        options.budget =
            static_cast<std::uint32_t>(value->asInt());
    if (const JsonValue *value = singleValue("rounds"))
        options.rounds =
            static_cast<std::uint32_t>(value->asInt());
    if (const JsonValue *value = singleValue("seed"))
        options.seed =
            static_cast<std::uint64_t>(value->asInt());
    if (const JsonValue *value = singleValue("attacker"))
        if (value->asString() != "auto")
            options.attacker = value->asString();
    // ... and explicit flags override them.
    if (!attackerFlag.empty())
        options.attacker =
            attackerFlag == "auto" ? "" : attackerFlag;
    options.budget = budget.value_or(options.budget);
    options.rounds = rounds.value_or(options.rounds);
    options.seed = seed.value_or(options.seed);
    options.jobs = jobs.value_or(options.jobs);

    try {
        const SearchResult result = runAttackerSearch(options);
        const std::string text = result.toJson().dump(2) + "\n";
        if (outJson.empty()) {
            std::fputs(text.c_str(), stdout);
        } else {
            if (!writeAtomic(outJson, text))
                return 1;
            std::fprintf(stderr, "pracbench: wrote %s\n",
                         outJson.c_str());
        }
        if (!quiet)
            std::fprintf(
                stderr,
                "pracbench: search vs %s: best %s max_counter=%u "
                "(oblivious %u, contract %u)\n",
                options.targetDefense.c_str(),
                result.best.config.attacker.c_str(),
                static_cast<unsigned>(result.best.maxCounter),
                static_cast<unsigned>(result.oblivious.maxCounter),
                static_cast<unsigned>(result.contract));
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pracbench: %s\n", error.what());
        return 2;
    }
    return 0;
}

int
commandRecord(const std::vector<std::string> &args)
{
    RunCli cli;
    std::vector<std::string> dirs;
    std::vector<std::string> workloads;
    static const std::vector<std::string> known = {
        "--workload",  "--jobs",       "--set",
        "--try-set",   "--smoke",      "--quiet",
        "--trace-out", "--series-out", "--log-level",
        "--help"};
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--workload" || arg == "-w") {
            workloads.push_back(nextValue(args, i, arg));
        } else if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else if (parseCommonFlag(cli, args, i)) {
            // --out/--csv/--no-table parse but are rejected below
            // for a precise message.
        } else if (!arg.empty() && arg[0] == '-') {
            rejectUnknown("option for `record`", arg, known);
        } else {
            dirs.push_back(arg);
        }
    }
    if (dirs.size() != 1) {
        std::fprintf(stderr,
                     "pracbench: record needs exactly one trace "
                     "directory\n");
        return 2;
    }
    if (!cli.outJson.empty() || !cli.outCsv.empty() || !cli.table) {
        std::fprintf(stderr,
                     "pracbench: record writes DIR/<workload>.trc and "
                     "prints no table; --out/--csv/--no-table do not "
                     "apply\n");
        return 2;
    }
    if (cli.smoke)
        applySmokeBudgets(cli.options);
    if (!workloads.empty())
        cli.options.overrides["workload"] = toValues(workloads);
    // Every point writes DIR/<workload>.trc, so only the workload
    // axis may list several values.
    for (const auto *set :
         {&cli.options.overrides, &cli.options.softOverrides})
        for (const auto &[axis, values] : *set)
            if (axis != "workload" && values.size() != 1) {
                std::fprintf(stderr,
                             "pracbench: --set %s takes exactly one "
                             "value in record mode\n",
                             axis.c_str());
                return 2;
            }
    checkAxisValues(cli.options, "workload", suiteEntryNames());
    checkAxisValues(cli.options, "mitigation",
                    pracleak::mitigationNames());
    if (!prepareOutputDir(dirs[0], ".trc", /*single=*/false))
        return 2;

    try {
        const SweepResult result =
            runScenario(recordScenario(dirs[0]), cli.options);
        if (cli.options.progress)
            for (const ResultRow &row : result.rows)
                std::fprintf(
                    stderr,
                    "pracbench: recorded %s (%lld requests, %lld "
                    "bytes, end cycle %lld, fnv1a %s)\n",
                    row.get("path")->asString().c_str(),
                    static_cast<long long>(row.get("requests")->asInt()),
                    static_cast<long long>(row.get("bytes")->asInt()),
                    static_cast<long long>(
                        row.get("end_cycle")->asInt()),
                    row.get("fnv1a64")->asString().c_str());
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pracbench: %s\n", error.what());
        return 2;
    }
    return 0;
}

int
commandReplay(const std::vector<std::string> &args)
{
    RunCli cli;
    std::vector<std::string> files;
    bool verify = false;
    static const std::vector<std::string> known = {
        "--jobs",      "--set",        "--try-set",   "--verify",
        "--out",       "--no-table",   "--quiet",     "--trace-out",
        "--series-out", "--log-level", "--help"};
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--verify") {
            verify = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else if (parseCommonFlag(cli, args, i)) {
            // --csv/--smoke parse but are rejected below for a
            // precise message.
        } else if (!arg.empty() && arg[0] == '-') {
            rejectUnknown("option for `replay`", arg, known);
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 1) {
        std::fprintf(stderr,
                     "pracbench: replay needs exactly one trace "
                     "file\n");
        return 2;
    }
    if (!cli.outCsv.empty() || cli.smoke) {
        std::fprintf(stderr,
                     "pracbench: --csv/--smoke do not apply to "
                     "replay\n");
        return 2;
    }
    // Replay writes outJson verbatim as one file; a directory form
    // would only fail at emission time, after the sweep.
    if (!cli.outJson.empty() && !endsWith(cli.outJson, ".json")) {
        std::fprintf(stderr,
                     "pracbench: replay --out must be a .json file "
                     "path\n");
        return 2;
    }
    checkAxisValues(cli.options, "mitigation",
                    pracleak::mitigationNames());
    if (!prepareOutputDir(cli.outJson, ".json", /*single=*/true))
        return 2;

    try {
        const std::string &path = files[0];
        const pracleak::trace::TraceReader reader(path);
        const pracleak::trace::TraceData &trace = reader.data();
        const std::string &recorded = trace.header.mitigation;
        // --verify is a statement about the *recorded* defense; make
        // sure that leg runs even when the --set list omits it,
        // instead of passing vacuously.
        if (verify)
            for (auto *set :
                 {&cli.options.overrides, &cli.options.softOverrides}) {
                const auto it = set->find("mitigation");
                if (it != set->end() &&
                    std::none_of(it->second.begin(), it->second.end(),
                                 [&](const JsonValue &value) {
                                     return value.asString() == recorded;
                                 }))
                    it->second.emplace_back(recorded);
            }

        const SweepResult result =
            runScenario(replayScenario(trace, path), cli.options);
        bool verified = true;
        for (const ResultRow &row : result.rows)
            if (const JsonValue *identical = row.get("bit_identical"))
                verified = verified && identical->asBool();

        if (cli.table)
            printTables(result);
        if (!cli.outJson.empty()) {
            JsonValue root = result.toJson();
            root.set("trace", path);
            root.set("trace_fnv1a64", fileHashHex(path));
            root.set("workload", trace.header.workload);
            root.set("recorded_mitigation", recorded);
            root.set("spec", trace.header.spec);
            if (!writeAtomic(cli.outJson, root.dump(2) + "\n"))
                return 1;
            std::fprintf(stderr, "pracbench: wrote %s\n",
                         cli.outJson.c_str());
        }

        if (verify && !verified) {
            std::fprintf(stderr,
                         "pracbench: FAIL: same-defense replay did "
                         "not reproduce the recorded stats\n");
            return 1;
        }
        if (verify)
            std::fprintf(stderr,
                         "pracbench: same-defense replay is "
                         "bit-identical to the recording\n");
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pracbench: %s\n", error.what());
        return 2;
    }
    return 0;
}

int
commandAnalyze(const std::vector<std::string> &args)
{
    AnalyzeCliOptions options;
    static const std::vector<std::string> known = {
        "--defense-matrix", "--out", "--no-table", "--help"};
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--defense-matrix") {
            options.defenseMatrix = true;
        } else if (arg == "--out" || arg == "-o") {
            options.outJson = nextValue(args, i, arg);
        } else if (arg == "--no-table") {
            options.table = false;
        } else if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            rejectUnknown("option for `analyze`", arg, known);
        } else {
            options.paths.push_back(arg);
        }
    }
    if (options.paths.empty()) {
        std::fprintf(stderr,
                     "pracbench: analyze needs at least one "
                     "--series-out file\n");
        return 2;
    }
    if (!options.outJson.empty() &&
        !endsWith(options.outJson, ".json")) {
        std::fprintf(stderr,
                     "pracbench: analyze --out must be a .json "
                     "file path\n");
        return 2;
    }
    if (!prepareOutputDir(options.outJson, ".json", /*single=*/true))
        return 2;
    return runAnalyzeCommand(options);
}

} // namespace

int
main(int argc, char **argv)
{
    registerBuiltinScenarios();

    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        printUsage();
        return 2;
    }

    const std::string command = args[0];
    args.erase(args.begin());
    if (command == "help" || command == "--help" || command == "-h") {
        printUsage();
        return 0;
    }
    if (command == "list")
        return commandList(args);
    if (command == "run")
        return commandRun(args);
    if (command == "search")
        return commandSearch(args);
    if (command == "record")
        return commandRecord(args);
    if (command == "replay")
        return commandReplay(args);
    if (command == "analyze")
        return commandAnalyze(args);
    rejectUnknown("command", command,
                  {"run", "list", "search", "record", "replay",
                   "analyze", "help"});
}
