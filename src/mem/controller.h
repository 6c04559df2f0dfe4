/**
 * @file
 * DDR5 memory controller with FR-FCFS scheduling, open-page policy,
 * auto-refresh, and a pluggable RowHammer defense (see
 * src/mitigation/): the controller owns the command engine -- Alert
 * service, maintenance drains, refresh -- and delegates every
 * defense-specific decision (when to issue a proactive RFM, which
 * bank, at what deadline) to a Mitigation instance resolved from the
 * string-keyed registry.
 *
 * The legacy MitigationMode enum remains the convenient configuration
 * surface for the paper's modes and maps 1:1 onto registry keys:
 *
 *  - NoMitigation ("none") : PRAC timings, no ABO, no RFMs (the
 *    paper's normalization baseline).
 *  - AboOnly ("abo-only")  : DRAM asserts Alert at NBO; controller
 *    services it with Nmit RFMab commands (insecure: ABO-RFMs leak).
 *  - AboAcb ("abo+acb-rfm"): AboOnly plus proactive Activation-Based
 *    RFMs at the Bank Activation Threshold (insecure: ACB-RFMs leak).
 *  - Tprac ("tprac")       : Timing-Based RFMs at a fixed TB-Window,
 *    ABO kept armed only as a safety net.
 *  - Obfuscation           : ABO plus random RFMab injection
 *    (Section 7.1 ablation).
 *
 * New-generation defenses (PARA, Graphene, PB-RFM) have no enum
 * value; select them via ControllerConfig::mitigation.
 *
 * The controller issues at most one command per cycle, with priority
 * maintenance-over-demand: an in-flight RFM sequence first, then due
 * refreshes, then demand requests.
 */

#ifndef PRACLEAK_MEM_CONTROLLER_H
#define PRACLEAK_MEM_CONTROLLER_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/dram.h"
#include "mem/address_mapper.h"
#include "mem/request.h"
#include "mitigation/configs.h"
#include "mitigation/mitigation.h"
#include "prac/prac_engine.h"
#include "tprac/tb_rfm.h"

namespace pracleak {

namespace telemetry {
class BusObserver;
}

/** Legacy top-level mitigation strategy selector. */
enum class MitigationMode : std::uint8_t
{
    NoMitigation,
    AboOnly,
    AboAcb,
    Tprac,

    /**
     * Section 7.1 alternative: ABO stays armed, and the controller
     * additionally injects RFMabs at random (Bernoulli draw once per
     * tREFI) to obfuscate the timing channel.  Does NOT eliminate
     * ABO-RFMs -- provided for the leakage-vs-cost ablation.
     */
    Obfuscation,
};

const char *mitigationModeName(MitigationMode mode);

/**
 * Observer of the controller's enqueue boundary.  The trace subsystem
 * (src/trace/) installs one per channel to serialize the accepted
 * request stream; the hook fires only for requests that were actually
 * admitted, so a recorded trace replays 1:1 against a fresh
 * controller.  Taps must not mutate controller state.
 */
class RequestTap
{
  public:
    virtual ~RequestTap() = default;

    /** @p request was accepted at controller cycle @p now. */
    virtual void onEnqueue(const Request &request, Cycle now) = 0;
};

/** Controller configuration. */
struct ControllerConfig
{
    MappingScheme mapping = MappingScheme::Mop4;

    /**
     * System-level channel striping.  Each controller owns one
     * channel; the mapper strips the selector bits so per-channel
     * coordinates are dense.  channels == 1 is the classic
     * single-channel configuration, bit-identical to the pre-
     * multi-channel code.
     */
    ChannelInterleave interleave{};
    std::size_t queueCapacity = 64;     //!< outstanding requests
    std::uint32_t frfcfsCap = 4;        //!< row-hit streak cap
    bool refreshEnabled = true;

    MitigationMode mode = MitigationMode::NoMitigation;

    /**
     * String-keyed defense selection (mitigation/registry.h).  When
     * non-empty it takes precedence over `mode`; the legacy enum maps
     * onto the keys "none", "abo-only", "abo+acb-rfm", "tprac", and
     * "obfuscation".
     */
    std::string mitigation;

    /**
     * Index of this controller's channel within the system; selects
     * the per-channel RNG stream of stochastic defenses (PARA).
     */
    std::uint32_t channelIndex = 0;

    PracEngineConfig prac{};
    std::uint32_t bat = 0;              //!< ACB threshold (AboAcb mode)
    TbRfmConfig tbRfm{};                //!< TPRAC window (Tprac mode)
    ParaConfig para{};                  //!< "para" defense
    GrapheneConfig graphene{};          //!< "graphene" defense
    PbRfmConfig pbRfm{};                //!< "pb-rfm" defense

    /** Obfuscation mode: P(inject one RFM) per tREFI. */
    double randomRfmPerTrefi = 0.5;
    std::uint64_t obfuscationSeed = 0xDEC0'D5ULL;
};

/**
 * Scheduler-efficiency counters: where the event-driven scheduler's
 * speedup comes from, per channel.  Plain always-on integers bumped
 * on the tick/advance paths (a StatSet map lookup per tick would
 * cost more than the tick); System::run publishes measure-window
 * deltas into the StatSet and RunResult.
 */
struct SchedCounters
{
    std::uint64_t ticksFired = 0;   //!< tick() invocations
    std::uint64_t cyclesJumped = 0; //!< cycles advanced without a tick
    std::uint64_t nextWorkCacheHits = 0; //!< nextWorkAt() cache hits
    std::uint64_t nextWorkRebuilds = 0;  //!< full computeNextWorkAt()
    std::uint64_t nextWorkHintRebuilds = 0; //!< cheap from tick hints
};

/** One-channel memory controller. */
class MemoryController
{
  public:
    MemoryController(const DramSpec &spec, const ControllerConfig &config,
                     StatSet *stats = nullptr);

    /** Whether the request queue can take another entry. */
    bool canAccept() const { return !freeSlots_.empty(); }

    /** Enqueue a request; returns false when the queue is full. */
    bool enqueue(Request request);

    /** Advance one cycle: issue at most one DRAM command. */
    void tick();

    /** Advance @p cycles cycles, ticking every one (pure lockstep). */
    void run(Cycle cycles);

    /**
     * Event-driven stepping: advance the clock to @p target, ticking
     * only on cycles where tick() could have an effect and jumping
     * over the provably-dead cycles in between (nextWorkAt()).
     * Behaviour and statistics are bit-identical to calling tick()
     * target-now() times; the bound is cached between calls and
     * invalidated by the only two state-mutating entry points --
     * tick() and a successful enqueue() -- so a quiescent channel
     * advances in O(1) per call instead of O(queue) per cycle.
     */
    void advanceTo(Cycle target);

    /**
     * Earliest cycle >= now() at which tick() could have any effect:
     * the first cycle a queued request's CAS/PRE/ACT becomes legal
     * under the DRAM timing state, an in-flight completion, a refresh
     * deadline, the defense's next maintenance deadline, the tREFW
     * counter reset, or -- during an active RFM/REF drain -- the
     * first cycle the drain's next PRE/RFM/REF command itself becomes
     * legal (plus demand on the banks a per-rank/per-bank drain
     * leaves schedulable).  Cycles strictly before the returned value
     * are provably dead and may be skipped; exactness (never later
     * than the first effective tick) is the contract the event-driven
     * scheduler rests on -- see src/mem/DESIGN.md.
     */
    Cycle nextWorkAt() const;

    /**
     * Jump the clock forward to @p target without ticking.  The
     * caller must guarantee nextWorkAt() >= target (idle-cycle
     * fast-forward); targets at or before now() are ignored.
     */
    void skipTo(Cycle target);

    Cycle now() const { return now_; }
    std::size_t queueDepth() const
    {
        return pool_.size() - freeSlots_.size();
    }

    DramDevice &dram() { return dram_; }
    const DramDevice &dram() const { return dram_; }
    PracEngine &prac() { return *prac_; }
    const PracEngine &prac() const { return *prac_; }
    const AddressMapper &mapper() const { return mapper_; }
    const ControllerConfig &config() const { return config_; }

    /** The active defense (never null). */
    const Mitigation &mitigation() const { return *mitigation_; }

    /** Defense-specific mitigation events (telemetry shortcut). */
    std::uint64_t mitigationEvents() const
    {
        return mitigation_->eventsTriggered();
    }

    /** TB-RFM scheduler when the defense owns one, else nullptr. */
    const TbRfmScheduler *tbScheduler() const
    {
        return mitigation_->tbScheduler();
    }

    /** RFM count by reason. */
    std::uint64_t rfmCount(RfmReason reason) const
    {
        return rfmCounts_[static_cast<std::size_t>(reason)];
    }

    /** Install (or clear, with nullptr) the enqueue-boundary tap. */
    void setRequestTap(RequestTap *tap) { tap_ = tap; }

    /**
     * Install (or clear) the windowed bus-series observer
     * (telemetry/timeseries.h).  The constructor already installs
     * one automatically when a SeriesCapture is armed; this setter
     * exists for experiments that record a series without the
     * process-global capture.  Not owned.  Null costs one pointer
     * test per hook site -- the same zero-cost-when-off idiom as
     * TraceSession.
     */
    void setBusObserver(telemetry::BusObserver *bus) { bus_ = bus; }
    telemetry::BusObserver *busObserver() const { return bus_; }

    /** Scheduler-efficiency telemetry since construction. */
    const SchedCounters &schedCounters() const { return sched_; }

  private:
    /** End of a bank's request list. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** The bank's candidates must be rebuilt before their next use. */
    static constexpr std::uint64_t kRebuild = ~std::uint64_t{0};

    /**
     * Scheduling key of the request in one pool slot, linked into its
     * bank's age-ordered list.
     */
    struct Pending
    {
        std::uint64_t seq;      //!< global age for FCFS ordering
        std::uint32_t row;
        std::uint32_t next;     //!< next-younger slot of the bank
        bool isRead;
    };

    /**
     * A command one bank's queued requests need next, the oldest
     * request it serves, and its cached earliestIssue() bound.
     */
    struct Candidate
    {
        CmdType type = CmdType::ACT;
        std::uint32_t slot = 0;   //!< the request it serves
        std::uint64_t seq = 0;    //!< that request's age
        Cycle at = kNeverCycle;   //!< exact when fresh, else a lower bound
    };

    /**
     * One flat bank's queued requests, oldest first, and its FR-FCFS
     * candidates: the oldest eligible RD hit, the oldest eligible WR
     * hit, and one PRE or ACT.  All queued requests of a bank need
     * the same next command with the same legality, so these (at
     * most three) stand for the whole list.  The candidate cache is
     * a memo that the const bound functions refresh in place.
     */
    struct BankQueue
    {
        std::uint32_t head = kNoSlot;   //!< oldest request's slot
        std::uint32_t tail = kNoSlot;
        std::uint32_t hitStreak = 0;    //!< CAS since the last ACT/PRE
        std::uint32_t rank = 0;
        std::uint32_t bankGroup = 0;
        std::uint32_t bank = 0;

        mutable std::array<Candidate, 3> cands{};
        mutable std::uint32_t count = 0;

        /** issued_ when the bounds were queried, or kRebuild. */
        mutable std::uint64_t stamp = kRebuild;

        /** Smallest cached bound; 0 while a rebuild is pending. */
        mutable Cycle bound = 0;

        /** Closed bank: the ACT is the only candidate. */
        mutable bool actOnly = false;

        /** Drop the candidates: the bank's next commands may differ. */
        void
        invalidate()
        {
            stamp = kRebuild;
            bound = 0;
            actOnly = false;
        }

        /**
         * Smallest cached bound over the candidates demand may use (an
         * Alert's spent ACT budget removes the ACT).
         */
        Cycle
        lowerBound(bool acts_blocked) const
        {
            return acts_blocked && actOnly ? kNeverCycle : bound;
        }
    };

    /** The FR-FCFS choice: candidate @p index of flat bank @p bank. */
    struct DemandPick
    {
        std::uint32_t bank = 0;
        std::uint32_t index = 0;
    };

    /** Multi-cycle maintenance sequence (precharge-all then RFM/REF). */
    struct Maintenance
    {
        bool active = false;
        bool isRfm = false;     //!< else refresh
        bool perBank = false;   //!< RFMpb instead of RFMab
        RfmReason reason = RfmReason::Abo;
        std::uint32_t rank = 0; //!< refresh target
        std::uint32_t flatBank = 0; //!< RFMpb target
        std::uint32_t rfmsRemaining = 0;
    };

    void startAboServiceIfNeeded();
    void startProactiveRfmIfNeeded();
    void startRefreshIfNeeded();
    bool tickMaintenance();
    bool tickDemand();

    /**
     * The single FR-FCFS candidate scan behind both tickDemand() and
     * nextWorkAt().  Returns now() when a demand command is legal
     * this cycle -- choosing it into @p pick, when given -- and
     * otherwise the exact first cycle one becomes legal (kNeverCycle
     * when none can).  The refresh-drain, RFMpb-drain and ABOACT
     * blocks are filters inside this scan.
     */
    Cycle nextDemandIssueAt(DemandPick *pick = nullptr) const;

    /** Re-query bank @p flat's bounds, rebuilding stale candidates. */
    void refreshBank(std::uint32_t flat) const;
    void rebuildCandidates(const BankQueue &q) const;
    Command candidateCommand(const BankQueue &q,
                             const Candidate &c) const;

    /**
     * Exact event bounds backing nextWorkAt().  Each returns the
     * first cycle the corresponding tick path could issue a command,
     * so the scheduler and its bound cannot drift (the fast-forward
     * exactness invariant, src/mem/DESIGN.md).
     */
    Cycle nextMaintenanceIssueAt() const;
    Cycle computeNextWorkAt() const;
    Cycle composeNextWorkAt(Cycle demand_at, Cycle maint_at) const;

    /**
     * The one issue choke point: every command goes to the DRAM
     * here, which stales every bank's cached bounds and drops the
     * candidates of a bank it addresses.
     */
    void issue(const Command &cmd);
    bool issueOrTrack(const Command &cmd, Cycle &hint);
    void countRfm(RfmReason reason, bool per_bank);

    DramSpec spec_;
    ControllerConfig config_;
    StatSet *stats_;
    RequestTap *tap_ = nullptr;
    telemetry::BusObserver *bus_ = nullptr;

    /**
     * Delta-poll marks for the end-of-tick bus-observer hooks: ABO
     * assertions and defense mitigation events are counted by their
     * owners; the observer sees per-tick deltas, which pins the
     * series to cycles that tick in both clock modes.
     */
    std::uint64_t busAboMark_ = 0;
    std::uint64_t busMitMark_ = 0;

    DramDevice dram_;
    AddressMapper mapper_;
    std::unique_ptr<PracEngine> prac_;
    std::unique_ptr<Mitigation> mitigation_;

    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;

    /** Commands issued so far: the freshness stamp of cached bounds. */
    std::uint64_t issued_ = 0;

    /** queueCapacity request slots; the free ones are in freeSlots_. */
    std::vector<Request> pool_;
    std::vector<Pending> pending_;
    std::vector<std::uint32_t> freeSlots_;

    /** Indexed by flat bank, with one bit per non-empty bank. */
    std::vector<BankQueue> banks_;
    std::vector<std::uint64_t> queuedBanks_;

    /** Work list reused by nextDemandIssueAt(): (stale bound, bank). */
    mutable std::vector<std::pair<Cycle, std::uint32_t>> stale_;

    /** Completed-in-future requests waiting for their done time. */
    struct InFlight
    {
        Request req;
        Cycle doneAt;
    };
    std::vector<InFlight> inFlight_;

    std::vector<Cycle> nextRefreshAt_;
    Maintenance maint_;

    /**
     * Memoized nextWorkAt().  Every bound is an absolute cycle valid
     * while the controller state is frozen, so the cache survives
     * skipTo() and is dropped only by tick() and enqueue().
     */
    mutable Cycle nextWorkCache_ = 0;
    mutable bool nextWorkCacheValid_ = false;

    /**
     * Exact next-issue bounds a tick that issued nothing leaves
     * behind: they rebuild the next-work cache without a second scan.
     */
    Cycle demandHint_ = kNeverCycle;
    Cycle maintHint_ = kNeverCycle;

    /** mutable: nextWorkAt() is const but counts hits/rebuilds. */
    mutable SchedCounters sched_;

    /**
     * Hot StatSet entries resolved once at construction (null without
     * a StatSet): the enqueue, issue and delivery paths are too hot
     * for a per-call map lookup.
     */
    Histogram *queueOccupancy_ = nullptr;
    Histogram *readLatency_ = nullptr;
    std::uint64_t *reads_ = nullptr;
    std::uint64_t *writes_ = nullptr;
    std::uint64_t *rowHits_ = nullptr;
    std::uint64_t *rowConflicts_ = nullptr;
    std::uint64_t *rowMisses_ = nullptr;

    std::array<std::uint64_t, kRfmReasonCount> rfmCounts_{};
};

} // namespace pracleak

#endif // PRACLEAK_MEM_CONTROLLER_H
