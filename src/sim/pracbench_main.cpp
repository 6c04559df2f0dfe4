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
 * Each flag is declared once, as a row of kFlags: its spellings, the
 * value it takes, its help line, the commands that take it and what
 * it sets in Cli.  Each command is a row of kCommands.  One parse
 * loop serves every command, and `pracbench help` is printed from
 * the two tables, so the help cannot drift from what is accepted.
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
#include <iterator>
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

/**
 * The --out of @p command that writes one file: it must end in .json,
 * and its directory is created now (see prepareOutputDir()).
 */
bool
prepareJsonOut(const char *command, const std::string &path)
{
    if (!path.empty() && !endsWith(path, ".json")) {
        std::fprintf(stderr,
                     "pracbench: %s --out must be a .json file path\n",
                     command);
        return false;
    }
    return prepareOutputDir(path, ".json", /*single=*/true);
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

/**
 * Everything a command line can set.  Each flag's action writes its
 * part; each command reads the parts its flags fill.
 */
struct Cli
{
    std::vector<std::string> positional;
    /** --set/--try-set, --quiet, --checkpoint/--resume, telemetry. */
    RunOptions options;
    /** --jobs as given: search's default (1) is not RunOptions' (0). */
    std::optional<std::uint64_t> jobs;
    std::string outJson;
    std::string outCsv;
    std::vector<std::string> workloads;
    bool table = true;
    bool smoke = false;
    bool verify = false;
    bool defenseMatrix = false;
    // search
    std::string targetDefense;
    std::string attacker;
    pracleak::AttackerConfig knobs; //!< pinned by --set attacker.K=V
    std::optional<std::uint64_t> budget;
    std::optional<std::uint64_t> rounds;
    std::optional<std::uint64_t> seed;
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
 * The one integer parser behind every numeric flag: @p text as a
 * decimal integer in [0, @p max].  Anything else (empty, a sign,
 * trailing junk, overflow) exits 2 naming @p flag -- a mistyped count
 * must never fall back to a default or wrap into a huge thread count.
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

/** What a flag takes after it. */
enum class Takes
{
    Nothing,
    Text,     //!< a non-empty text or path
    Count,    //!< a decimal integer from 0 to Flag::max
    Axis,     //!< AXIS=V1[,V2...]
    LogLevel, //!< quiet|warn|info|debug or 0-9
};

/** A flag's value, checked against what the flag takes. */
struct Value
{
    std::string text;              //!< as given; Axis: the axis name
    std::uint64_t number = 0;      //!< Count, LogLevel
    std::vector<JsonValue> values; //!< Axis: V1, V2, ...
};

/** One bit per command that takes flags, for Flag::commands. */
enum : unsigned
{
    kRun = 1,
    kSearch = 2,
    kRecord = 4,
    kReplay = 8,
    kAnalyze = 16,
    kSweeps = kRun | kRecord | kReplay,
};

/** One flag, declared once. */
struct Flag
{
    const char *name;
    const char *alias;   //!< short spelling, or nullptr
    Takes takes;
    const char *metavar; //!< the value's name in help
    std::uint64_t max;   //!< Takes::Count: the largest value
    unsigned commands;   //!< bits of the commands that take it
    const char *help;    //!< KNOBS: the knobs search may pin
    void (*set)(Cli &, const Value &);
};

/** The value after @p flag at @p args[i]; exits 2 when it does not fit. */
Value
takeValue(const Flag &flag, const std::vector<std::string> &args,
          std::size_t &i)
{
    const std::string &spelling = args[i];
    Value value;
    if (flag.takes == Takes::Nothing)
        return value;
    // An empty value is what an unset shell variable expands to, and
    // for a path flag it would otherwise silently mean "off".
    if (i + 1 >= args.size() || args[i + 1].empty()) {
        std::fprintf(stderr, "pracbench: %s needs a non-empty value\n",
                     spelling.c_str());
        std::exit(2);
    }
    value.text = args[++i];
    if (flag.takes == Takes::Count) {
        value.number = parseCount(spelling, value.text, flag.max);
    } else if (flag.takes == Takes::Axis) {
        const std::size_t eq = value.text.find('=');
        if (eq == std::string::npos || eq == 0) {
            std::fprintf(stderr, "pracbench: %s expects AXIS=V1[,V2]\n",
                         spelling.c_str());
            std::exit(2);
        }
        value.values = parseValueList(value.text.substr(eq + 1));
        value.text.resize(eq);
    } else if (flag.takes == Takes::LogLevel) {
        const int level = pracleak::parseLogLevel(value.text);
        if (level < 0) {
            std::fprintf(stderr,
                         "pracbench: %s expects quiet|warn|info|debug "
                         "or 0-9, got '%s'\n",
                         spelling.c_str(), value.text.c_str());
            std::exit(2);
        }
        value.number = static_cast<std::uint64_t>(level);
    }
    return value;
}

/** search's `--set attacker.K=V` (pin knob K) or `--set attacker=NAME`. */
void
setSearchKnob(Cli &cli, const Value &value)
{
    const std::size_t eq = value.text.find('=');
    if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "pracbench: --set expects KEY=VALUE\n");
        std::exit(2);
    }
    const std::string key = value.text.substr(0, eq);
    const std::string text = value.text.substr(eq + 1);
    if (key == "attacker") {
        cli.attacker = text;
        return;
    }
    const std::string prefix = "attacker.";
    const pracleak::AttackerField *field =
        key.starts_with(prefix)
            ? pracleak::findAttackerField(key.substr(prefix.size()))
            : nullptr;
    if (!field || !field->tunable) {
        std::vector<std::string> keys = {"attacker"};
        for (const pracleak::AttackerField &knob : pracleak::kAttackerFields)
            if (knob.tunable)
                keys.push_back(prefix + knob.name);
        rejectUnknown("search --set key", key, keys);
    }
    const auto knob = static_cast<std::uint32_t>(
        parseCount("--set " + key, text, UINT32_MAX));
    if (knob == 0) {
        // The search reads 0 as "not pinned".
        std::fprintf(stderr,
                     "pracbench: --set %s=0 cannot pin the knob: 0 "
                     "leaves it sampled; pin it to 1 or more\n",
                     key.c_str());
        std::exit(2);
    }
    cli.knobs.*field->field = knob;
}

const Flag kFlags[] = {
    {"--target-defense", nullptr, Takes::Text, "D", 0, kSearch,
     "defense under attack (required; see `pracbench list`)",
     [](Cli &c, const Value &v) { c.targetDefense = v.text; }},
    {"--attacker", nullptr, Takes::Text, "NAME", 0, kSearch,
     "attacker whose knobs are walked (default: the defense-matched one)",
     [](Cli &c, const Value &v) { c.attacker = v.text; }},
    {"--budget", nullptr, Takes::Count, "N", UINT32_MAX, kSearch,
     "candidates, incl. the oblivious baseline (default: scenario's)",
     [](Cli &c, const Value &v) { c.budget = v.number; }},
    // Round r of R runs window / 2^(R-r): R must keep that shift
    // inside 32 bits.
    {"--rounds", nullptr, Takes::Count, "N", 32, kSearch,
     "successive-halving rounds, 0-32; the last runs the full window "
     "(default: scenario's)",
     [](Cli &c, const Value &v) { c.rounds = v.number; }},
    {"--seed", nullptr, Takes::Count, "S", UINT64_MAX, kSearch,
     "candidate-sampling seed",
     [](Cli &c, const Value &v) { c.seed = v.number; }},
    {"--workload", "-w", Takes::Text, "NAME", 0, kRecord,
     "record this suite workload (repeatable; default: every one)",
     [](Cli &c, const Value &v) { c.workloads.push_back(v.text); }},
    {"--verify", nullptr, Takes::Nothing, nullptr, 0, kReplay,
     "exit 1 unless the recorded defense's replay matches the recording",
     [](Cli &c, const Value &) { c.verify = true; }},
    {"--defense-matrix", nullptr, Takes::Nothing, nullptr, 0, kAnalyze,
     "also print/emit the per-defense worst-case summary",
     [](Cli &c, const Value &) { c.defenseMatrix = true; }},
    {"--jobs", "-j", Takes::Count, "N", 4096, kSweeps | kSearch,
     "run at most N points at once, the calling thread included; "
     "0-4096 (default 0: hardware concurrency; search: 1)",
     [](Cli &c, const Value &v) {
         c.jobs = v.number;
         c.options.jobs = static_cast<unsigned>(v.number);
     }},
    {"--out", "-o", Takes::Text, "PATH", 0,
     kRun | kSearch | kReplay | kAnalyze,
     "write JSON to a .json file (run: or a directory, NAME.json each)",
     [](Cli &c, const Value &v) { c.outJson = v.text; }},
    {"--csv", nullptr, Takes::Text, "PATH", 0, kRun,
     "same for CSV output",
     [](Cli &c, const Value &v) { c.outCsv = v.text; }},
    {"--set", nullptr, Takes::Axis, "AXIS=V1[,V2]", 0, kSweeps,
     "override a grid axis (repeatable); an unknown axis, or a value "
     "that does not fit it, exits 2",
     [](Cli &c, const Value &v) { c.options.overrides[v.text] = v.values; }},
    {"--try-set", nullptr, Takes::Axis, "AXIS=V1[,V2]", 0, kSweeps,
     "like --set, but skipped when the scenario has no such axis",
     [](Cli &c, const Value &v) {
         c.options.softOverrides[v.text] = v.values;
     }},
    {"--set", nullptr, Takes::Text, "attacker.K=V", 0, kSearch,
     "pin knob K to V >= 1 instead of sampling it, K one of KNOBS; "
     "--set attacker=NAME is an alias for --attacker",
     setSearchKnob},
    {"--smoke", nullptr, Takes::Nothing, nullptr, 0, kRun | kRecord,
     "one-point sweep with a tiny budget (CI smoke)",
     [](Cli &c, const Value &) { c.smoke = true; }},
    {"--quiet", "-q", Takes::Nothing, nullptr, 0, kSweeps | kSearch,
     "suppress per-point progress lines",
     [](Cli &c, const Value &) { c.options.progress = false; }},
    {"--no-table", nullptr, Takes::Nothing, nullptr, 0,
     kRun | kReplay | kAnalyze, "skip the text tables on stdout",
     [](Cli &c, const Value &) { c.table = false; }},
    {"--trace-out", nullptr, Takes::Text, "PATH", 0, kSweeps,
     "write a Chrome trace-event JSON of the sweep (Perfetto-loadable; "
     "one scenario only)",
     [](Cli &c, const Value &v) { c.options.telemetry.traceOut = v.text; }},
    {"--series-out", nullptr, Takes::Text, "PATH", 0, kSweeps,
     "write every simulation's command-bus time series (JSONL, or CSV "
     "for a .csv PATH; one scenario only)",
     [](Cli &c, const Value &v) { c.options.telemetry.seriesOut = v.text; }},
    {"--log-level", nullptr, Takes::LogLevel, "LEVEL", 0, kSweeps,
     "quiet|warn|info|debug or 0-9 (default: warn)",
     [](Cli &, const Value &v) {
         pracleak::setLogLevel(static_cast<int>(v.number));
     }},
    {"--checkpoint", nullptr, Takes::Text, "DIR", 0, kRun | kSearch,
     "journal each completed point under DIR (overwritten unless --resume)",
     [](Cli &c, const Value &v) { c.options.checkpoint.directory = v.text; }},
    {"--resume", nullptr, Takes::Nothing, nullptr, 0, kRun | kSearch,
     "with --checkpoint: skip points an earlier (killed) run journaled",
     [](Cli &c, const Value &) { c.options.checkpoint.resume = true; }},
};

int
commandList(Cli &cli)
{
    if (!cli.positional.empty())
        rejectUnknown("option for `list`", cli.positional[0], {"--help"});
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
commandRun(Cli &cli)
{
    if (cli.smoke)
        applySmokeBudgets(cli.options);
    checkAxisValues(cli.options, "mitigation",
                    pracleak::mitigationNames());
    const std::string &checkpointDir = cli.options.checkpoint.directory;
    if (cli.options.checkpoint.resume && checkpointDir.empty()) {
        std::fprintf(stderr,
                     "pracbench: --resume requires --checkpoint\n");
        return 2;
    }

    const ScenarioRegistry &registry = ScenarioRegistry::instance();
    std::vector<std::string> &names = cli.positional;
    if (names.empty()) {
        std::fprintf(stderr,
                     "pracbench: run needs at least one scenario "
                     "name (or 'all'); try `pracbench list`\n");
        return 2;
    }
    if (names.size() == 1 && names[0] == "all") {
        names.clear();
        for (const Scenario *scenario : registry.all())
            names.push_back(scenario->name);
    }
    // Validate every name before running anything: a typo in the
    // third of five scenarios must not surface after the first ran.
    std::vector<std::string> knownNames;
    for (const Scenario *scenario : registry.all())
        knownNames.push_back(scenario->name);
    for (const std::string &name : names)
        if (!registry.find(name))
            rejectUnknown("scenario", name, knownNames);

    const bool single = names.size() == 1;
    if (!single && (endsWith(cli.outJson, ".json") ||
                    endsWith(cli.outCsv, ".csv"))) {
        std::fprintf(stderr,
                     "pracbench: multiple scenarios need a directory "
                     "for --out/--csv, not a file path\n");
        return 2;
    }
    const std::string &traceOut = cli.options.telemetry.traceOut;
    if (!single &&
        (!traceOut.empty() || !cli.options.telemetry.seriesOut.empty())) {
        std::fprintf(stderr,
                     "pracbench: %s records one sweep per file; run the "
                     "scenarios separately\n",
                     traceOut.empty() ? "--series-out" : "--trace-out");
        return 2;
    }
    // Fail fast on bad output locations: create them now rather
    // than discovering a missing/unwritable directory at emission
    // time, after a long sweep.
    if (!prepareOutputDir(cli.outJson, ".json", single) ||
        !prepareOutputDir(cli.outCsv, ".csv", single) ||
        !prepareOutputDir(checkpointDir, ".jsonl", /*single=*/false))
        return 2;

    for (const std::string &name : names) {
        const SweepResult result = runScenarioByName(name, cli.options);
        if (cli.table)
            printTables(result);
        // Finalize via temp + atomic rename: a crash during emission
        // must never leave a torn artifact that a later --resume (or
        // a results consumer) trusts.
        if (!cli.outJson.empty()) {
            const std::string path =
                outputPath(cli.outJson, name, ".json", single);
            if (!writeAtomic(path, result.toJson().dump(2) + "\n"))
                return 1;
            std::fprintf(stderr, "pracbench: wrote %s\n", path.c_str());
        }
        if (!cli.outCsv.empty()) {
            const std::string path =
                outputPath(cli.outCsv, name, ".csv", single);
            if (!writeAtomic(path, result.toCsv()))
                return 1;
            std::fprintf(stderr, "pracbench: wrote %s\n", path.c_str());
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
commandSearch(Cli &cli)
{
    if (cli.positional.size() != 1) {
        std::fprintf(stderr,
                     "pracbench: search needs exactly one scenario name "
                     "(e.g. defense_matrix_adaptive); try "
                     "`pracbench list`\n");
        return 2;
    }
    const ScenarioRegistry &registry = ScenarioRegistry::instance();
    const Scenario *scenario = registry.find(cli.positional[0]);
    if (!scenario) {
        std::vector<std::string> knownNames;
        for (const Scenario *entry : registry.all())
            knownNames.push_back(entry->name);
        rejectUnknown("scenario", cli.positional[0], knownNames);
    }
    if (cli.targetDefense.empty()) {
        std::fprintf(stderr,
                     "pracbench: search requires --target-defense "
                     "(see `pracbench list`)\n");
        return 2;
    }
    if (!pracleak::findMitigation(cli.targetDefense))
        rejectUnknown("defense", cli.targetDefense,
                      pracleak::mitigationNames());
    if (!cli.attacker.empty() && cli.attacker != "auto" &&
        !pracleak::findAttacker(cli.attacker))
        rejectUnknown("attacker", cli.attacker,
                      pracleak::attackerNames());
    const std::string &checkpointDir = cli.options.checkpoint.directory;
    if (cli.options.checkpoint.resume && checkpointDir.empty()) {
        std::fprintf(stderr,
                     "pracbench: --resume requires --checkpoint\n");
        return 2;
    }
    if (!prepareJsonOut("search", cli.outJson) ||
        !prepareOutputDir(checkpointDir, ".jsonl", /*single=*/false))
        return 2;

    SearchOptions options;
    options.targetDefense = cli.targetDefense;
    options.base = cli.knobs;
    options.checkpointDir = checkpointDir;
    options.resume = cli.options.checkpoint.resume;
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
        options.nbo = static_cast<std::uint32_t>(value->asInt());
    if (const JsonValue *value = singleValue("window_ms"))
        options.windowMs = value->asDouble();
    if (const JsonValue *value = singleValue("budget"))
        options.budget = static_cast<std::uint32_t>(value->asInt());
    if (const JsonValue *value = singleValue("rounds"))
        options.rounds = static_cast<std::uint32_t>(value->asInt());
    if (const JsonValue *value = singleValue("seed"))
        options.seed = static_cast<std::uint64_t>(value->asInt());
    if (const JsonValue *value = singleValue("attacker"))
        if (value->asString() != "auto")
            options.attacker = value->asString();
    // ... and explicit flags override them.
    if (!cli.attacker.empty())
        options.attacker = cli.attacker == "auto" ? "" : cli.attacker;
    options.budget =
        static_cast<std::uint32_t>(cli.budget.value_or(options.budget));
    options.rounds =
        static_cast<std::uint32_t>(cli.rounds.value_or(options.rounds));
    options.seed = cli.seed.value_or(options.seed);
    options.jobs =
        static_cast<unsigned>(cli.jobs.value_or(options.jobs));

    const SearchResult result = runAttackerSearch(options);
    const std::string text = result.toJson().dump(2) + "\n";
    if (cli.outJson.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        if (!writeAtomic(cli.outJson, text))
            return 1;
        std::fprintf(stderr, "pracbench: wrote %s\n",
                     cli.outJson.c_str());
    }
    if (cli.options.progress)
        std::fprintf(stderr,
                     "pracbench: search vs %s: best %s max_counter=%u "
                     "(oblivious %u, contract %u)\n",
                     options.targetDefense.c_str(),
                     result.best.config.attacker.c_str(),
                     static_cast<unsigned>(result.best.maxCounter),
                     static_cast<unsigned>(result.oblivious.maxCounter),
                     static_cast<unsigned>(result.contract));
    return 0;
}

int
commandRecord(Cli &cli)
{
    if (cli.positional.size() != 1) {
        std::fprintf(stderr,
                     "pracbench: record needs exactly one trace "
                     "directory\n");
        return 2;
    }
    const std::string &dir = cli.positional[0];
    if (cli.smoke)
        applySmokeBudgets(cli.options);
    if (!cli.workloads.empty())
        cli.options.overrides["workload"] = toValues(cli.workloads);
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
    if (!prepareOutputDir(dir, ".trc", /*single=*/false))
        return 2;

    const SweepResult result =
        runScenario(recordScenario(dir), cli.options);
    if (cli.options.progress)
        for (const ResultRow &row : result.rows)
            std::fprintf(
                stderr,
                "pracbench: recorded %s (%lld requests, %lld bytes, end "
                "cycle %lld, fnv1a %s)\n",
                row.get("path")->asString().c_str(),
                static_cast<long long>(row.get("requests")->asInt()),
                static_cast<long long>(row.get("bytes")->asInt()),
                static_cast<long long>(row.get("end_cycle")->asInt()),
                row.get("fnv1a64")->asString().c_str());
    return 0;
}

int
commandReplay(Cli &cli)
{
    if (cli.positional.size() != 1) {
        std::fprintf(stderr,
                     "pracbench: replay needs exactly one trace "
                     "file\n");
        return 2;
    }
    checkAxisValues(cli.options, "mitigation",
                    pracleak::mitigationNames());
    // Replay writes outJson verbatim as one file; a directory form
    // would only fail at emission time, after the sweep.
    if (!prepareJsonOut("replay", cli.outJson))
        return 2;

    const std::string &path = cli.positional[0];
    const pracleak::trace::TraceReader reader(path);
    const pracleak::trace::TraceData &trace = reader.data();
    const std::string &recorded = trace.header.mitigation;
    // --verify is a statement about the *recorded* defense; make sure
    // that leg runs even when the --set list omits it, instead of
    // passing vacuously.
    if (cli.verify)
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

    if (cli.verify && !verified) {
        std::fprintf(stderr,
                     "pracbench: FAIL: same-defense replay did not "
                     "reproduce the recorded stats\n");
        return 1;
    }
    if (cli.verify)
        std::fprintf(stderr,
                     "pracbench: same-defense replay is bit-identical "
                     "to the recording\n");
    return 0;
}

int
commandAnalyze(Cli &cli)
{
    if (cli.positional.empty()) {
        std::fprintf(stderr,
                     "pracbench: analyze needs at least one "
                     "--series-out file\n");
        return 2;
    }
    if (!prepareJsonOut("analyze", cli.outJson))
        return 2;
    return runAnalyzeCommand(AnalyzeCliOptions{
        cli.positional, cli.defenseMatrix, cli.outJson, cli.table});
}

void printUsage();

/** One command (verb). */
struct Command
{
    const char *name;
    const char *synopsis; //!< its positional arguments
    const char *summary;
    unsigned bit;         //!< its Flag::commands bit; 0: takes no flag
    int (*run)(Cli &);
};

const Command kCommands[] = {
    {"run", "NAME...", "run scenarios ('all' runs every one)", kRun,
     commandRun},
    {"list", "", "list registered scenarios, defenses, and attackers", 0,
     commandList},
    {"search", "SCENARIO",
     "successive-halving attacker-knob search against one defense in "
     "SCENARIO's universe (its spec/nbo/window_ms constants), e.g. "
     "defense_matrix_adaptive; the result is byte-identical at any "
     "--jobs and across a kill + --resume",
     kSearch, commandSearch},
    {"record", "DIR",
     "record memory-request traces into DIR/<workload>.trc; axes other "
     "than workload take one value each",
     kRecord, commandRecord},
    {"replay", "FILE", "replay a recorded trace against fresh defenses",
     kReplay, commandReplay},
    {"analyze", "SERIES...",
     "offline leakage analysis over --series-out files: ON/OFF "
     "distinguishability of the bus-visible mitigation traffic, per "
     "defense",
     kAnalyze, commandAnalyze},
    {"help", "", "this message", 0, [](Cli &) {
         printUsage();
         return 0;
     }},
};

/** @p head, then @p text word-wrapped from column 26 to column 80. */
void
printEntry(std::string line, const std::string &text)
{
    constexpr std::size_t kIndent = 26;
    line.resize(std::max(kIndent, line.size() + 2), ' ');
    for (std::size_t start = 0, end = 0; start < text.size();
         start = end + 1) {
        end = std::min(text.find(' ', start), text.size());
        if (line.size() > kIndent && line.size() + end - start >= 80) {
            std::printf("%s\n", line.c_str());
            line.assign(kIndent, ' ');
        }
        line += (line.size() > kIndent ? " " : "") +
                text.substr(start, end - start);
    }
    std::printf("%s\n", line.c_str());
}

/** The help, generated from kCommands and kFlags. */
void
printUsage()
{
    std::printf("usage: pracbench COMMAND [options]\n\ncommands:\n");
    for (const Command &command : kCommands)
        printEntry(std::string("  ") + command.name + " " +
                       command.synopsis,
                   command.summary);
    std::string knobs;
    for (const pracleak::AttackerField &knob : pracleak::kAttackerFields)
        if (knob.tunable)
            knobs += (knobs.empty() ? "" : ", ") + std::string(knob.name);
    for (const Command &command : kCommands) {
        if (command.bit)
            std::printf("\n%s options:\n", command.name);
        for (const Flag &flag : kFlags) {
            if (!(flag.commands & command.bit))
                continue;
            std::string help = flag.help;
            if (const std::size_t at = help.find("KNOBS");
                at != std::string::npos)
                help.replace(at, 5, knobs);
            printEntry(std::string("  ") + flag.name +
                           (flag.alias ? std::string("/") + flag.alias : "") +
                           (flag.metavar ? std::string(" ") + flag.metavar
                                         : ""),
                       help);
        }
    }
    std::printf("\nEvery command takes --help/-h.  Flag values are "
                "checked: an empty value, or a\nnumeric value that is "
                "not a decimal integer in range, exits 2.\n");
}

/**
 * @p args after @p command's name as a Cli: --help/-h prints help
 * and exits 0, a flag of the command takes its value and runs its
 * action, any other word starting with '-' exits 2 with a hint, and
 * every other word is positional.
 */
Cli
parse(const Command &command, const std::vector<std::string> &args)
{
    std::vector<std::string> spellings = {"--help"}; // for the hint
    for (const Flag &flag : kFlags)
        if (flag.commands & command.bit)
            spellings.emplace_back(flag.name);
    Cli cli;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const Flag *flag = std::find_if(
            std::begin(kFlags), std::end(kFlags), [&](const Flag &f) {
                return (f.commands & command.bit) &&
                       (arg == f.name || (f.alias && arg == f.alias));
            });
        if (arg == "--help" || arg == "-h") {
            printUsage();
            std::exit(0);
        } else if (flag != std::end(kFlags)) {
            flag->set(cli, takeValue(*flag, args, i));
        } else if (!arg.empty() && arg[0] == '-') {
            rejectUnknown(std::string("option for `") + command.name + "`",
                          arg, spellings);
        } else {
            cli.positional.push_back(arg);
        }
    }
    return cli;
}

} // namespace

int
main(int argc, char **argv)
{
    registerBuiltinScenarios();

    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        printUsage();
        return 2;
    }
    const std::string verb =
        args[0] == "--help" || args[0] == "-h" ? "help" : args[0];
    std::vector<std::string> names;
    for (const Command &command : kCommands) {
        names.emplace_back(command.name);
        if (verb != command.name)
            continue;
        Cli cli = parse(command, {args.begin() + 1, args.end()});
        try {
            return command.run(cli);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "pracbench: %s\n", error.what());
            return 2;
        }
    }
    rejectUnknown("command", args[0], names);
}
