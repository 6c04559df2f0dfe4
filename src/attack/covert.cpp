#include "attack/covert.h"

#include <algorithm>
#include <cmath>

#include "attack/agents.h"
#include "attack/harness.h"
#include "attack/visible_bus.h"
#include "common/log.h"

namespace pracleak {

double
CovertResult::periodUs() const
{
    if (symbolsSent == 0)
        return 0.0;
    return cyclesToUs(totalCycles) / static_cast<double>(symbolsSent);
}

double
CovertResult::bitrateKbps() const
{
    const double period_s = periodUs() * 1e-6;
    if (period_s <= 0.0)
        return 0.0;
    return bitsPerSymbol / period_s / 1000.0;
}

double
CovertResult::errorRate() const
{
    if (symbolsSent == 0)
        return 0.0;
    return static_cast<double>(symbolErrors) /
           static_cast<double>(symbolsSent);
}

namespace {

AttackSetup
covertSetup(const CovertParams &params)
{
    ControllerConfig controller;
    controller.tbRfm.windowCycles = params.tbWindowCycles;
    controller.randomRfmPerTrefi = params.randomRfmPerTrefi;
    return attackSetup(params.spec, params.defense, params.nbo,
                       params.nmit, params.refreshEnabled, controller);
}

/** A receiver-side RFM detector probe: row 3 of flat bank @p bank. */
AttackerConfig
detectorRow(std::uint32_t bank)
{
    AttackerConfig config;
    config.targetBank = bank;
    config.targetRow = 3;
    return config;
}

/**
 * Receiver-side RFM detection over two probes, one in each of two
 * ranks: a per-rank refresh delays only one probe, while an RFMab
 * (which blocks the whole channel) delays both within a tight
 * coincidence window.  This filters refresh-induced false spikes
 * without any timing calibration.  Whether some spike of @p a
 * completed since @p since within 500 ns of some spike of @p b;
 * per-rank refreshes are staggered ~975 ns apart and never coincide.
 */
bool
rfmSince(const ProbeAgent &a, const ProbeAgent &b, Cycle since)
{
    const Cycle window = nsToCycles(500);
    for (const auto &sa : a.samples()) {
        if (sa.doneAt < since)
            continue;
        for (const auto &sb : b.samples()) {
            if (sb.doneAt < since)
                continue;
            const Cycle gap = sa.doneAt > sb.doneAt
                                  ? sa.doneAt - sb.doneAt
                                  : sb.doneAt - sa.doneAt;
            if (gap <= window)
                return true;
        }
    }
    return false;
}

/**
 * Count-channel receiver: serially re-activates the shared row
 * (alternating with a private decoy to force conflicts) and watches
 * its own latencies; the activation count at the first RFM spike
 * encodes the sender's symbol.
 */
class CountReceiver : public MemAgent
{
  public:
    CountReceiver(const AddressMapper &mapper,
                  const DramAddress &shared_row,
                  const DramAddress &decoy_row, Cycle spike_threshold)
        : MemAgent(1), sharedAddr_(mapper.compose(shared_row)),
          decoyAddr_(mapper.compose(decoy_row)),
          threshold_(spike_threshold)
    {
    }

    /** Arm a probing burst of at most @p max_acts shared-row ACTs. */
    void
    arm(std::uint32_t max_acts)
    {
        active_ = true;
        spikeSeen_ = false;
        actsDone_ = 0;
        maxActs_ = max_acts;
        nextIsShared_ = true;
        wake();
    }

    void disarm() { active_ = false; }

    bool spikeSeen() const { return spikeSeen_; }
    std::uint32_t actsAtSpike() const { return actsAtSpike_; }

  private:
    std::optional<Addr>
    next(MemoryController &) override
    {
        if (!active_ || spikeSeen_ || actsDone_ >= maxActs_)
            return std::nullopt;
        const bool shared = nextIsShared_;
        nextIsShared_ = !shared;
        return shared ? sharedAddr_ : decoyAddr_;
    }

    void
    onComplete(const Request &done, std::uint64_t) override
    {
        if (done.addr == sharedAddr_)
            ++actsDone_;
        if (!spikeSeen_ && done.latency() >= threshold_) {
            spikeSeen_ = true;
            actsAtSpike_ = actsDone_;
        }
    }

    Addr sharedAddr_;
    Addr decoyAddr_;
    Cycle threshold_;
    bool active_ = false;
    bool nextIsShared_ = true;
    bool spikeSeen_ = false;
    std::uint32_t actsDone_ = 0;
    std::uint32_t actsAtSpike_ = 0;
    std::uint32_t maxActs_ = 0;
};

} // namespace

CovertResult
runActivityCovert(const CovertParams &params,
                  const std::vector<bool> &message)
{
    return runActivityCovertParallel(params, {message})[0];
}

std::vector<CovertResult>
runActivityCovertParallel(const CovertParams &params,
                          const std::vector<std::vector<bool>> &messages)
{
    const AttackSetup setup = covertSetup(params);
    const DramSpec &spec = setup.spec;
    const auto channels = static_cast<std::uint32_t>(messages.size());
    AttackHarness harness(spec, setup.controller, channels);

    // One sender/receiver pair per channel.  The receiver's two
    // detector probes (rfmSince()) read the first bank of rank 0 and
    // of rank 1; the sender hammers a private bank (flat bank 18 =
    // rank 0, bg 4, bank 2, with decoys at rows 0x200..0x203), far
    // from its channel's detector rows.
    AttackerConfig sender_config;
    sender_config.poolSize = 4;
    sender_config.burstSpacing = 0x100;
    sender_config.targetBank = 18;
    sender_config.targetRow = 0x100;
    std::vector<std::unique_ptr<ProbeAgent>> detectors; // two per channel
    std::vector<std::unique_ptr<HammerAgent>> senders;
    for (std::uint32_t c = 0; c < channels; ++c) {
        MemoryController &mem = harness.mem(c);
        for (const std::uint32_t bank : {0u, spec.org.banksPerRank()}) {
            detectors.push_back(std::make_unique<ProbeAgent>(
                mem, detectorRow(bank), false));
            harness.add(detectors.back().get(), c);
        }
        senders.push_back(
            std::make_unique<HammerAgent>(mem, sender_config));
        harness.add(senders.back().get(), c);
    }

    // Settle caches/row state and the first refresh rounds.
    harness.run(spec.timing.tREFI * 4);

    // A Bit-1 window must fit NBO target activations.  Each target
    // activation costs one target and one decoy row cycle; with the
    // PRAC-extended tRP the bank pipeline is tRP+tRCD+tRTP per cycle.
    // 15% headroom absorbs refresh stalls.
    const Cycle row_cycle =
        spec.timing.tRP + spec.timing.tRCD + spec.timing.tRTP;
    const Cycle window =
        row_cycle * 2 * params.nbo * 115 / 100 +
        spec.timing.tRFMab * spec.prac.nmit + nsToCycles(3000);

    std::vector<CovertResult> results(channels);
    std::size_t max_bits = 0;
    for (const auto &message : messages)
        max_bits = std::max(max_bits, message.size());

    for (std::size_t i = 0; i < max_bits; ++i) {
        const Cycle start = harness.now();
        for (std::uint32_t c = 0; c < channels; ++c) {
            if (i >= messages[c].size())
                continue;
            detectors[2 * c]->clearSamples();
            detectors[2 * c + 1]->clearSamples();
            if (messages[c][i])
                senders[c]->startHammer(params.nbo +
                                        spec.prac.aboAct + 4);
        }
        harness.run(window);
        for (std::uint32_t c = 0; c < channels; ++c) {
            senders[c]->stop();
            if (i >= messages[c].size())
                continue;
            const bool bit = messages[c][i];
            const bool decoded =
                rfmSince(*detectors[2 * c], *detectors[2 * c + 1], start);
            CovertResult &result = results[c];
            result.sent.push_back(bit ? 1 : 0);
            result.decoded.push_back(decoded ? 1 : 0);
            if (decoded != bit)
                ++result.symbolErrors;
            ++result.symbolsSent;
            result.totalCycles += harness.now() - start;
        }
    }

    for (CovertResult &result : results)
        result.bitsPerSymbol = 1.0;
    return results;
}

CovertResult
runCountCovert(const CovertParams &params,
               const std::vector<std::uint32_t> &symbols)
{
    const AttackSetup setup = covertSetup(params);
    const DramSpec &spec = setup.spec;
    AttackHarness harness(spec, setup.controller);
    const AddressMapper &mapper = harness.mem().mapper();

    // Sender and receiver share one physical row (different columns),
    // which MOP mapping makes possible across page boundaries: row
    // 0x500 of flat bank 9 = rank 0, bg 2, bank 1.  The sender's
    // decoys sit at rows 0x600..0x603.
    AttackerConfig sender_config;
    sender_config.poolSize = 4;
    sender_config.burstSpacing = 0x100;
    sender_config.targetBank = 9;
    sender_config.targetRow = 0x500;
    const DramAddress shared_rx{0, 2, 1, 0x500, 64};
    const DramAddress rx_decoy{0, 2, 1, 0x700, 0};

    HammerAgent sender(harness.mem(), sender_config);
    const Cycle spike_threshold =
        VisibleBusModel::fromSpec(spec).rfmSpikeThreshold();
    CountReceiver receiver(mapper, shared_rx, rx_decoy, spike_threshold);

    harness.add(&sender);
    harness.add(&receiver);
    harness.run(spec.timing.tREFI * 4);

    // Counts are spaced kSpacing apart so spike-attribution jitter
    // never crosses a symbol boundary.  The jitter comes from the
    // receiver's in-flight pipeline plus refresh-induced
    // re-activations, and the latter grows with the (NBO-proportional)
    // phase length -- hence the adaptive spacing.  Counts stay below
    // nbo/2 so the sender alone can never assert the Alert.
    const std::uint32_t kSpacing = params.nbo <= 256 ? 8 : 16;
    const std::uint32_t max_count = params.nbo / 2;
    const std::uint32_t max_symbol = max_count / kSpacing;
    // Sender keeps two reads in flight (one bank row-cycle per read);
    // the receiver is serialized, so each of its activations also pays
    // the read round trip.  15% headroom absorbs refresh stalls.
    const Cycle row_cycle =
        spec.timing.tRP + spec.timing.tRCD + spec.timing.tRTP;
    const Cycle rx_read =
        row_cycle + spec.timing.readLatency() + spec.timing.tRTP;
    const Cycle send_phase =
        row_cycle * 2 * max_count * 115 / 100 + nsToCycles(2000);
    const Cycle recv_phase = rx_read * 2 * params.nbo * 115 / 100 +
                             spec.timing.tRFMab * spec.prac.nmit +
                             nsToCycles(3000);

    // The receiver's in-flight pipeline means the spike is observed a
    // fixed number of activations after the true NBO crossing; a
    // known preamble symbol calibrates that offset.
    const std::uint32_t preamble = max_count / 2;

    CovertResult result;
    result.bitsPerSymbol =
        std::log2(static_cast<double>(max_symbol));

    std::int64_t offset = 0;
    bool calibrated = false;
    const Cycle t0 = harness.now();

    auto transmit = [&](std::uint32_t k) -> std::int64_t {
        // Sender phase: k activations of the shared row.
        if (k > 0)
            sender.startHammer(k);
        harness.run(send_phase);
        sender.stop();

        // Receiver phase: activate until the RFM spike.
        receiver.arm(params.nbo + 16);
        const Cycle deadline = harness.now() + recv_phase;
        harness.runUntil([&] { return receiver.spikeSeen(); },
                         recv_phase);
        receiver.disarm();
        // Keep windows fixed-length for a clockable channel.
        if (harness.now() < deadline)
            harness.run(deadline - harness.now());

        if (!receiver.spikeSeen())
            return -1;
        return static_cast<std::int64_t>(params.nbo) -
               static_cast<std::int64_t>(receiver.actsAtSpike());
    };

    // Preamble (not scored).
    const std::int64_t pre_raw = transmit(preamble);
    if (pre_raw >= 0) {
        offset = static_cast<std::int64_t>(preamble) - pre_raw;
        calibrated = true;
    } else {
        warn("count covert channel: preamble produced no spike");
    }

    for (const std::uint32_t symbol : symbols) {
        const std::uint32_t clamped = std::min(symbol, max_symbol - 1);
        const std::uint32_t k = kSpacing * clamped + kSpacing / 2;
        const std::int64_t raw = transmit(k);
        std::int64_t decoded_symbol = -1;
        std::int64_t k_cal = -1;
        if (raw >= 0) {
            k_cal = raw + (calibrated ? offset : 0);
            decoded_symbol = k_cal / kSpacing; // grid cell (k+-3 safe)
        }
        result.rawCounts.push_back(k_cal);
        result.sent.push_back(clamped);
        result.decoded.push_back(
            decoded_symbol < 0
                ? 0
                : static_cast<std::uint32_t>(decoded_symbol));
        if (decoded_symbol != static_cast<std::int64_t>(clamped))
            ++result.symbolErrors;
        ++result.symbolsSent;
    }

    result.totalCycles = harness.now() - t0;
    return result;
}

} // namespace pracleak
