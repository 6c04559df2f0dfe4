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
 * ControllerConfig::mitigation selects the defense by registry key
 * (mitigationCatalog() is authoritative):
 *
 *  - "none"        : PRAC timings, no ABO, no RFMs (the paper's
 *    normalization baseline).
 *  - "abo-only"    : DRAM asserts Alert at NBO; controller services it
 *    with Nmit RFMab commands (insecure: ABO-RFMs leak).
 *  - "abo+acb-rfm" : abo-only plus proactive Activation-Based RFMs at
 *    the Bank Activation Threshold (insecure: ACB-RFMs leak).
 *  - "tprac"       : Timing-Based RFMs at a fixed TB-Window, ABO kept
 *    armed only as a safety net.
 *  - "obfuscation" : ABO plus random RFMab injection (Section 7.1
 *    ablation).
 *  - "para", "graphene", "pb-rfm" : the new-generation defenses.
 *
 * configureDefense() (mitigation/registry.h) derives each defense's
 * parameters from the spec.
 *
 * The controller issues at most one command per cycle, with priority
 * maintenance-over-demand: an active drain first (Alert service, a
 * defense's RFMs or a due refresh), then demand on the banks the
 * drain leaves free.
 */

#ifndef PRACLEAK_MEM_CONTROLLER_H
#define PRACLEAK_MEM_CONTROLLER_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
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

    /** Defense registry key (mitigation/registry.h). */
    std::string mitigation = "none";

    /**
     * Index of this controller's channel within the system; selects
     * the per-channel RNG stream of stochastic defenses (PARA).
     */
    std::uint32_t channelIndex = 0;

    PracEngineConfig prac{};
    std::uint32_t bat = 0;              //!< "abo+acb-rfm" threshold
    TbRfmConfig tbRfm{};                //!< "tprac" window
    ParaConfig para{};                  //!< "para" defense
    GrapheneConfig graphene{};          //!< "graphene" defense
    PbRfmConfig pbRfm{};                //!< "pb-rfm" defense

    /** "obfuscation": P(inject one RFM) per tREFI. */
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

    SchedCounters &
    operator+=(const SchedCounters &other)
    {
        ticksFired += other.ticksFired;
        cyclesJumped += other.cyclesJumped;
        nextWorkCacheHits += other.nextWorkCacheHits;
        nextWorkRebuilds += other.nextWorkRebuilds;
        nextWorkHintRebuilds += other.nextWorkHintRebuilds;
        return *this;
    }

    /** The work done since @p start (an earlier reading). */
    SchedCounters
    operator-(const SchedCounters &start) const
    {
        return {ticksFired - start.ticksFired,
                cyclesJumped - start.cyclesJumped,
                nextWorkCacheHits - start.nextWorkCacheHits,
                nextWorkRebuilds - start.nextWorkRebuilds,
                nextWorkHintRebuilds - start.nextWorkHintRebuilds};
    }
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
    void
    advanceTo(Cycle target)
    {
        // Inline for the common attack-harness call: the cached bound
        // already covers the whole span.
        if (nextWorkCacheValid_ && nextWorkCache_ >= target &&
            target > now_) {
            sched_.cyclesJumped += target - now_;
            now_ = target;
            return;
        }
        advanceBySteps(target);
    }

    /**
     * Earliest cycle >= now() at which tick() could have any effect:
     * the first cycle a queued request's CAS/PRE/ACT becomes legal
     * under the DRAM timing state, an in-flight completion, a refresh
     * deadline, the defense's next maintenance deadline, the tREFW
     * counter reset, or -- during an active drain -- the first cycle
     * the drain's next PRE/RFM/REF command becomes legal (plus demand
     * on the banks the drain does not hold).  Cycles strictly before
     * the returned value are provably dead and may be skipped;
     * exactness (never later than the first effective tick) is the
     * contract the event-driven scheduler rests on -- see
     * src/mem/DESIGN.md.
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

    /** Requests that have left the queue so far (never decreases). */
    std::uint64_t dequeued() const { return nextSeq_ - queueDepth(); }

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

    /** Bit of flat bank @p flat in a per-bank mask word. */
    static constexpr std::uint64_t
    bankBit(std::uint32_t flat)
    {
        return std::uint64_t{1} << (flat % 64);
    }

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
     * A command one bank's queued requests need next and the oldest
     * request it serves.  It is listed by its bank part
     * (DramDevice::bankReadyAt), which stays exact until a command
     * addresses the bank, and that drops the bank's candidates.
     */
    struct Candidate
    {
        CmdType type = CmdType::ACT;
        std::uint32_t slot = 0;   //!< the request it serves
        std::uint64_t seq = 0;    //!< that request's age
    };

    /**
     * One flat bank's queued requests, oldest first, and its FR-FCFS
     * candidates: the oldest eligible RD hit, the oldest eligible WR
     * hit, and one PRE or ACT (a closed bank's ACT is its only
     * candidate).  All queued requests of a bank need the same next
     * command with the same legality, so these (at most three) stand
     * for the whole list.  The candidates are a memo that the const
     * demand scan rebuilds in place.
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
    };

    /** The three ready lists: one per command class. */
    enum ReadyClass : std::uint8_t { kCas, kPre, kAct, kClasses };

    /**
     * One listed candidate: in its class's ready list, ordered by
     * @c key = its seq, or in the heap, ordered by @c key = its bank
     * part.  Live while @c ticket equals its bank's ticket; dropping a
     * bank's candidates bumps the ticket, and the dead entries stay
     * behind until a walk or the heap's top reaches them (lazy
     * deletion).
     */
    struct Listed
    {
        std::uint64_t key;
        std::uint32_t ticket;
        std::uint16_t bank;
        CmdType type;
        std::uint8_t index;     //!< into the bank's candidates

        /** Ordered by key alone (std::greater makes a min-heap). */
        friend bool
        operator>(const Listed &a, const Listed &b)
        {
            return a.key > b.key;
        }
    };

    /** The FR-FCFS choice: candidate @p index of flat bank @p bank. */
    struct DemandPick
    {
        std::uint32_t bank = 0;
        std::uint32_t index = 0;
    };

    /**
     * A maintenance drain: precharge the flat banks [first, end), then
     * issue the terminal command @c remaining times; it is active while
     * any are left.  An Alert service or a defense's RFMab drain holds
     * every bank, an RFMpb drain its one bank, a refresh drain (REFab)
     * the banks of its rank.
     */
    struct Drain
    {
        CmdType terminal = CmdType::RFMab;  //!< REFab, RFMab or RFMpb
        std::uint32_t first = 0;
        std::uint32_t end = 0;
        std::uint32_t remaining = 0;        //!< terminal commands left
        RfmReason reason = RfmReason::Abo;  //!< booked for each RFM

        bool active() const { return remaining != 0; }
    };

    /** A drain's next command and the first cycle it is legal. */
    struct DrainStep
    {
        Command cmd{};
        Cycle at = kNeverCycle;
    };

    /** advanceTo() past its inline fast path: jump or tick per span. */
    void advanceBySteps(Cycle target);

    /**
     * Start the drain that is due at now(), if any: Alert service
     * first, then the defense's maintenanceCommands(), then the most
     * overdue rank's refresh.
     */
    void startDrainIfDue();

    /**
     * The one drain walk behind both tick() and nextWorkAt(): the
     * first held open bank (in flat order) whose PRE is legal now,
     * else the earliest of their PREs, and once every held bank is
     * closed the terminal command.
     */
    DrainStep nextDrainStep() const;

    /** Issue a drain step's command and book a terminal one. */
    void issueDrainStep(const Command &cmd);

    bool tickDemand();

    /** An Alert is asserted and its ABOACT budget is spent. */
    bool
    actsHeld() const
    {
        return prac_->alertAsserted() &&
               prac_->actsSinceAlert() >= spec_.prac.aboAct;
    }

    /**
     * The cycle Alert service is due: now() once actsHeld(), else the
     * end of the tABOACT window (demand burns the budget until then),
     * and kNeverCycle without an Alert.
     */
    Cycle
    aboServiceAt() const
    {
        if (!prac_->alertAsserted())
            return kNeverCycle;
        return actsHeld() ? now_
                          : prac_->alertAssertedAt() + spec_.timing.tABOACT;
    }

    /** The rank whose refresh is due first (the lowest on a tie). */
    std::uint32_t
    firstDueRank() const
    {
        return static_cast<std::uint32_t>(
            std::min_element(nextRefreshAt_.begin(), nextRefreshAt_.end()) -
            nextRefreshAt_.begin());
    }

    /**
     * The single FR-FCFS candidate scan behind both tickDemand() and
     * nextWorkAt().  Returns now() when a demand command is legal
     * this cycle -- choosing it into @p pick, when given -- and
     * otherwise the exact first cycle one becomes legal (kNeverCycle
     * when none can).  It walks the age-ordered ready lists, whose
     * candidates' bank parts are <= now, gating each with the live
     * shared part, and stops at the first legal candidate; only when
     * none is legal does it read the heap for the bound
     * (src/mem/DESIGN.md, "Cached bank parts").  The drain and ABOACT
     * holds are filters inside this scan; a drain over every bank
     * returns kNeverCycle before it.
     */
    Cycle nextDemandIssueAt(DemandPick *pick = nullptr) const;

    /**
     * Drop bank @p flat's candidates (its next commands may differ):
     * the next scan rebuilds and lists them.
     */
    void invalidate(std::uint32_t flat);

    /** Rebuild bank @p flat's candidates and list each by bank part. */
    void listBank(std::uint32_t flat) const;

    /** Insert @p entry into its class's ready list, by seq. */
    void insertReady(const Listed &entry) const;

    /**
     * Lower @p bound to the gated cycle of every live, unheld entry of
     * the heap subtree at @p index keyed below it.
     */
    void boundParked(std::size_t index, Cycle &bound,
                     bool acts_blocked) const;

    /** Whether an active drain holds back demand on @p entry's bank. */
    bool
    drained(const Listed &entry) const
    {
        return drain_.active() && entry.bank >= drain_.first &&
               entry.bank < drain_.end;
    }

    /** @p entry's shared gate (DramDevice::sharedReadyAt). */
    Cycle sharedReadyAt(const Listed &entry) const;

    void rebuildCandidates(const BankQueue &q) const;
    Command candidateCommand(const BankQueue &q,
                             const Candidate &c) const;

    /**
     * nextWorkAt() from the demand scan and the drain walk, the two
     * scans tick() runs, so the scheduler and its bound cannot drift
     * (the fast-forward exactness invariant, src/mem/DESIGN.md).
     */
    Cycle computeNextWorkAt() const;
    Cycle composeNextWorkAt(Cycle demand_at, Cycle drain_at) const;

    /**
     * The one issue choke point: every command goes to the DRAM here,
     * which drops the candidates of a bank it addresses (ACT, PRE,
     * RD, WR, RFMpb): only those move a bank part.
     */
    void issue(const Command &cmd);
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

    /** queueCapacity request slots; the free ones are in freeSlots_. */
    std::vector<Request> pool_;
    std::vector<Pending> pending_;
    std::vector<std::uint32_t> freeSlots_;

    /** Indexed by flat bank, with one bit per non-empty bank. */
    std::vector<BankQueue> banks_;
    std::vector<std::uint64_t> queuedBanks_;

    /**
     * Every live candidate of a queued bank is listed once: in its
     * class's ready list (CAS, PRE, ACT), ordered by seq, once its
     * bank part is <= now, else in parked_, a binary min-heap on the
     * bank part.  A bank whose candidates were dropped is in
     * staleBanks_ (one bit per bank) until the next scan lists them.
     */
    mutable std::vector<std::uint64_t> staleBanks_;
    mutable std::array<std::vector<Listed>, kClasses> ready_;
    mutable std::vector<Listed> parked_;
    std::vector<std::uint32_t> tickets_;

    /**
     * No demand command is legal before this cycle: the bound of the
     * last scan that found none legal.  Exact until a command, an
     * enqueue or the start of a drain, each of which resets it to 0,
     * so a tick that changed nothing does not walk the lists again.
     */
    mutable Cycle demandIdleUntil_ = 0;

    /** Completed-in-future requests waiting for their done time. */
    struct InFlight
    {
        Request req;
        Cycle doneAt;
    };
    std::vector<InFlight> inFlight_;

    std::vector<Cycle> nextRefreshAt_;
    Drain drain_;

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
    Cycle drainHint_ = kNeverCycle;

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
