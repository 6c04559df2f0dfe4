#include "mem/controller.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/log.h"
#include "mem/channel_stats.h"
#include "mitigation/registry.h"
#include "telemetry/timeseries.h"

namespace pracleak {

MemoryController::MemoryController(const DramSpec &spec,
                                   const ControllerConfig &config,
                                   StatSet *stats)
    : spec_(spec), config_(config), stats_(stats), dram_(spec),
      mapper_(spec.org, config.mapping, config.interleave)
{
    // Alert service is nmit RFMabs; PRAC levels are 1, 2 and 4.
    if (spec.prac.nmit == 0)
        throw std::invalid_argument(
            "nmit must be at least 1: an Alert is serviced with nmit "
            "RFMs");

    const MitigationInfo *info = findMitigation(config_.mitigation);
    if (!info)
        fatal("unknown mitigation '" + config_.mitigation + "'");

    PracEngineConfig prac_config = config.prac;
    if (!info->usesAbo)
        prac_config.aboEnabled = false;

    prac_ = std::make_unique<PracEngine>(spec, prac_config, stats);
    dram_.addListener(prac_.get());

    MitigationContext ctx;
    ctx.spec = &spec_;
    ctx.config = &config_;
    ctx.prac = prac_.get();
    ctx.stats = stats_;
    mitigation_ = makeMitigation(config_.mitigation, ctx);

    nextRefreshAt_.resize(spec.org.ranks);
    for (std::uint32_t r = 0; r < spec.org.ranks; ++r) {
        // Stagger per-rank refreshes evenly across a tREFI.
        nextRefreshAt_[r] =
            spec.timing.tREFI * (r + 1) / spec.org.ranks;
    }

    pool_.resize(config_.queueCapacity);
    pending_.resize(config_.queueCapacity);
    freeSlots_.reserve(config_.queueCapacity);
    for (std::size_t slot = config_.queueCapacity; slot-- > 0;)
        freeSlots_.push_back(static_cast<std::uint32_t>(slot));

    const DramOrg &org = spec.org;
    if (org.totalBanks() > 0x10000)
        fatal("a channel of more than 65536 banks does not fit the "
              "scheduler's 16-bit bank index");
    banks_.resize(org.totalBanks());
    for (std::uint32_t flat = 0; flat < org.totalBanks(); ++flat) {
        const std::uint32_t in_rank = flat % org.banksPerRank();
        banks_[flat].rank = flat / org.banksPerRank();
        banks_[flat].bankGroup = in_rank / org.banksPerGroup;
        banks_[flat].bank = in_rank % org.banksPerGroup;
    }
    queuedBanks_.assign((org.totalBanks() + 63) / 64, 0);
    staleBanks_.assign(queuedBanks_.size(), 0);
    tickets_.assign(org.totalBanks(), 0);

    // Resolve the hot stats once.  Queue occupancy is in requests, one
    // bucket per slot.  Shared across channels of one System (one
    // StatSet): the histogram profiles system-wide queue pressure.
    if (stats_) {
        queueOccupancy_ = &stats_->histogram(
            "mem.queue_occupancy", 1.0, config_.queueCapacity + 1);
        readLatency_ = &stats_->histogram("mem.read_latency_ns");
        reads_ = &stats_->counter("mem.reads");
        writes_ = &stats_->counter("mem.writes");
        rowHits_ = &stats_->counter("mem.row_hits");
        rowConflicts_ = &stats_->counter("mem.row_conflicts");
        rowMisses_ = &stats_->counter("mem.row_misses");
    }

    // Single attach choke point for the `--series-out` surfaces:
    // when a SeriesCapture is armed, every controller -- System,
    // AttackHarness, trace replay, tests -- gets its channel's bus
    // observer here, keyed by channelIndex.  Null when disarmed.
    bus_ = telemetry::SeriesCapture::attach(
        spec_, config_.channelIndex, config_.mitigation);
}

bool
MemoryController::enqueue(Request request)
{
    if (!canAccept())
        return false;
    request.arrival = now_;
    request.daddr = mapper_.map(request.addr);
    if (tap_)
        tap_->onEnqueue(request, now_);

    // Requests carry this controller's channel (the caller routes by
    // it), so the flat bank alone identifies a DRAM bank here.
    const std::uint32_t flat = mapper_.flatBank(request.daddr);
    const bool is_read = request.type == ReqType::Read;
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    BankQueue &q = banks_[flat];
    pending_[slot] = Pending{nextSeq_++, request.daddr.row, kNoSlot, is_read};
    (q.tail == kNoSlot ? q.head : pending_[q.tail].next) = slot;
    q.tail = slot;
    queuedBanks_[flat / 64] |= bankBit(flat);
    invalidate(flat);
    demandIdleUntil_ = 0;
    pool_[slot] = std::move(request);

    nextWorkCacheValid_ = false;
    if (stats_)
        ++*(is_read ? reads_ : writes_);
    if (queueOccupancy_)
        queueOccupancy_->sample(static_cast<double>(queueDepth()));
    if (bus_)
        bus_->onQueueDepth(queueDepth(), now_);
    return true;
}

void
MemoryController::startDrainIfDue()
{
    const std::uint32_t banks = spec_.org.totalBanks();
    if (aboServiceAt() <= now_) {
        // Alert service is always Nmit channel-wide RFMabs.
        drain_ = {CmdType::RFMab, 0, banks, spec_.prac.nmit,
                  RfmReason::Abo};
    } else if (const MaintenanceRequest req =
                   mitigation_->maintenanceCommands(now_);
               req.wanted) {
        // An RFMpb drain issues one RFMpb, whatever req.rfms says.
        drain_ = req.perBank ? Drain{CmdType::RFMpb, req.flatBank,
                                     req.flatBank + 1, 1, req.reason}
                             : Drain{CmdType::RFMab, 0, banks, req.rfms,
                                     req.reason};
    } else if (config_.refreshEnabled &&
               nextRefreshAt_[firstDueRank()] <= now_) {
        const std::uint32_t rank = firstDueRank();
        const std::uint32_t per_rank = spec_.org.banksPerRank();
        drain_ = {CmdType::REFab, rank * per_rank, (rank + 1) * per_rank,
                  1};
    } else {
        return;
    }
    // A new drain holds banks back from demand.
    demandIdleUntil_ = 0;
}

void
MemoryController::issue(const Command &cmd)
{
    dram_.issue(cmd, now_);
    demandIdleUntil_ = 0;
    // Only a command to a bank moves its bank part; a REFab or RFMab
    // raises bank parts no further than the shared gate they also
    // raise (DramDevice::bankReadyAt).
    if (cmd.type == CmdType::ACT || cmd.type == CmdType::PRE ||
        cmd.type == CmdType::RD || cmd.type == CmdType::WR ||
        cmd.type == CmdType::RFMpb)
        invalidate(spec_.org.flatBank(
            cmd.rank, cmd.bankGroup * spec_.org.banksPerGroup + cmd.bank));
    if (bus_)
        bus_->onCommand(cmd, now_);
}

void
MemoryController::invalidate(std::uint32_t flat)
{
    staleBanks_[flat / 64] |= queuedBanks_[flat / 64] & bankBit(flat);
    ++tickets_[flat];
}

void
MemoryController::countRfm(RfmReason reason, bool per_bank)
{
    ++rfmCounts_[static_cast<std::size_t>(reason)];
    if (stats_) {
        static const std::string tb_per_bank = "mem.tb_rfms_pb";
        ++stats_->counter(per_bank && reason == RfmReason::TimingBased
                              ? tb_per_bank
                              : rfmStatKey(reason));
    }
    mitigation_->onRfmIssued(reason, per_bank, now_);
}

MemoryController::DrainStep
MemoryController::nextDrainStep() const
{
    // Held open banks close in flat order (rank, bank group, bank):
    // the first whose PRE is legal now, else the earliest PRE, the
    // first of equals, which is the one tick() issues then (timing
    // state is frozen between commands).  An open bank's PRE is never
    // kNeverCycle.  The terminal command waits for every held bank.
    DrainStep pre;
    for (std::uint32_t flat = drain_.first; flat < drain_.end; ++flat) {
        const BankQueue &q = banks_[flat];
        if (!dram_.isOpen(q.rank, q.bankGroup, q.bank))
            continue;
        const Command cmd{CmdType::PRE, q.rank, q.bankGroup, q.bank, 0, 0};
        const Cycle at = dram_.earliestIssue(cmd);
        if (at <= now_)
            return {cmd, at};
        if (at < pre.at)
            pre = {cmd, at};
    }
    if (pre.at != kNeverCycle)
        return pre;
    const BankQueue &q = banks_[drain_.first];
    const Command cmd{drain_.terminal, q.rank, q.bankGroup, q.bank, 0, 0};
    return {cmd, dram_.earliestIssue(cmd)};
}

void
MemoryController::issueDrainStep(const Command &cmd)
{
    issue(cmd);
    if (cmd.type == CmdType::PRE)
        return;
    if (cmd.type == CmdType::REFab) {
        nextRefreshAt_[cmd.rank] += spec_.timing.tREFI;
        if (stats_)
            ++stats_->counter("mem.refreshes");
        mitigation_->onRefresh(cmd.rank, now_);
    } else {
        countRfm(drain_.reason, cmd.type == CmdType::RFMpb);
    }
    --drain_.remaining;
}

void
MemoryController::rebuildCandidates(const BankQueue &q) const
{
    q.count = 0;
    auto add = [&](CmdType type, std::uint32_t slot) {
        q.cands[q.count++] = Candidate{type, slot, pending_[slot].seq};
    };
    if (!dram_.isOpen(q.rank, q.bankGroup, q.bank)) {
        // Every request needs this ACT; the oldest opens its row.
        add(CmdType::ACT, q.head);
        return;
    }

    // A row hit may bypass older requests unless the streak cap is
    // reached, when hits younger than the oldest conflict wait for it
    // (the FR-FCFS starvation case the cap exists for).  Open-page
    // policy holds the conflict's PRE while any request still hits
    // the open row below the cap.
    const std::uint32_t open_row =
        dram_.openRow(q.rank, q.bankGroup, q.bank);
    const bool capped = q.hitStreak >= config_.frfcfsCap;
    std::uint32_t rd = kNoSlot;
    std::uint32_t wr = kNoSlot;
    std::uint32_t conflict = kNoSlot;
    for (std::uint32_t slot = q.head; slot != kNoSlot;
         slot = pending_[slot].next) {
        const Pending &p = pending_[slot];
        std::uint32_t &oldest = p.row != open_row ? conflict
                                : p.isRead        ? rd
                                                  : wr;
        if (oldest == kNoSlot)
            oldest = slot;
        if (conflict != kNoSlot && capped)
            break;
    }
    if (rd != kNoSlot)
        add(CmdType::RD, rd);
    if (wr != kNoSlot)
        add(CmdType::WR, wr);
    if (conflict != kNoSlot &&
        (capped || (rd == kNoSlot && wr == kNoSlot)))
        add(CmdType::PRE, conflict);
}

Command
MemoryController::candidateCommand(const BankQueue &q,
                                   const Candidate &c) const
{
    Command cmd{c.type, q.rank, q.bankGroup, q.bank, 0, 0};
    if (c.type != CmdType::PRE)
        cmd.row = pending_[c.slot].row;
    if (c.type == CmdType::RD || c.type == CmdType::WR)
        cmd.col = pool_[c.slot].daddr.col;
    return cmd;
}

void
MemoryController::listBank(std::uint32_t flat) const
{
    const BankQueue &q = banks_[flat];
    rebuildCandidates(q);
    for (std::uint32_t i = 0; i < q.count; ++i) {
        const Candidate &c = q.cands[i];
        // The bank part reads no column: candidateCommand() without
        // the pool lookup.
        const Cycle at = dram_.bankReadyAt(Command{
            c.type, q.rank, q.bankGroup, q.bank, pending_[c.slot].row, 0});
        Listed entry{c.seq, tickets_[flat],
                     static_cast<std::uint16_t>(flat), c.type,
                     static_cast<std::uint8_t>(i)};
        if (at <= now_) {
            insertReady(entry);
        } else if (at != kNeverCycle) {
            entry.key = at;
            parked_.push_back(entry);
            std::push_heap(parked_.begin(), parked_.end(),
                           std::greater<>());
        }
    }
}

void
MemoryController::insertReady(const Listed &entry) const
{
    std::vector<Listed> &list =
        ready_[entry.type == CmdType::ACT   ? kAct
               : entry.type == CmdType::PRE ? kPre
                                            : kCas];
    // Most entries are the youngest: a new request's candidate.
    if (list.empty() || list.back().key < entry.key) {
        list.push_back(entry);
        return;
    }
    list.insert(std::upper_bound(list.begin(), list.end(), entry.key,
                                 [](std::uint64_t key, const Listed &e) {
                                     return key < e.key;
                                 }),
                entry);
}

Cycle
MemoryController::sharedReadyAt(const Listed &entry) const
{
    const BankQueue &q = banks_[entry.bank];
    return dram_.sharedReadyAt(entry.type, q.rank, q.bankGroup);
}

void
MemoryController::boundParked(std::size_t index, Cycle &bound,
                              bool acts_blocked) const
{
    // Every key in a subtree is >= its root's, and a gated cycle is
    // >= its key, so only subtrees keyed below the bound can lower it.
    if (index >= parked_.size() || parked_[index].key >= bound)
        return;
    const Listed &e = parked_[index];
    if (e.ticket == tickets_[e.bank] && !drained(e) &&
        !(acts_blocked && e.type == CmdType::ACT))
        bound = std::min(bound, std::max(e.key, sharedReadyAt(e)));
    boundParked(2 * index + 1, bound, acts_blocked);
    boundParked(2 * index + 2, bound, acts_blocked);
}

Cycle
MemoryController::nextDemandIssueAt(DemandPick *pick) const
{
    // A drain over every bank leaves demand nothing to issue; the
    // listing below waits for its end.
    if (drain_.active() &&
        drain_.end - drain_.first == spec_.org.totalBanks())
        return kNeverCycle;
    if (now_ < demandIdleUntil_)
        return demandIdleUntil_;

    // List the candidates of every bank a command or an enqueue
    // touched, then move the heap entries whose bank part has come due
    // to their ready lists.
    for (std::size_t w = 0; w < staleBanks_.size(); ++w) {
        for (std::uint64_t bits = staleBanks_[w]; bits != 0;
             bits &= bits - 1)
            listBank(static_cast<std::uint32_t>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        staleBanks_[w] = 0;
    }
    while (!parked_.empty() && parked_.front().key <= now_) {
        Listed entry = parked_.front();
        std::pop_heap(parked_.begin(), parked_.end(), std::greater<>());
        parked_.pop_back();
        if (entry.ticket != tickets_[entry.bank])
            continue;
        entry.key = banks_[entry.bank].cands[entry.index].seq;
        insertReady(entry);
    }

    // A ready candidate's bank part is <= now, so it is legal once its
    // shared gate is, and otherwise becomes legal exactly there.  Each
    // walk goes oldest first, drops the dead entries it passes, and
    // ends at its first legal candidate, or, for the bound, once the
    // running minimum reaches a floor no candidate of the list can
    // undercut.
    Cycle bound = kNeverCycle;
    auto walk = [&](std::vector<Listed> &list, auto floor_of,
                    std::uint64_t older_than) -> const Listed * {
        if (list.empty())
            return nullptr;
        // The floor is read at the first illegal candidate; until then
        // 0 stands for it, which ends no walk: every bound lies past
        // now.
        Cycle floor = 0;
        const Listed *legal = nullptr;
        std::size_t keep = 0;
        std::size_t i = 0;
        for (; i < list.size() && list[i].key < older_than && bound > floor;
             ++i) {
            const Listed &e = list[i];
            if (e.ticket != tickets_[e.bank])
                continue;
            if (keep != i)
                list[keep] = e;
            ++keep;
            if (drained(e))
                continue;
            const Cycle at = sharedReadyAt(e);
            if (at <= now_) {
                legal = &list[keep - 1];
                ++i;
                break;
            }
            bound = std::min(bound, at);
            if (floor == 0)
                floor = floor_of();
        }
        if (keep != i)
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(keep),
                       list.begin() + static_cast<std::ptrdiff_t>(i));
        return legal;
    };
    auto choose = [&](const Listed *e) {
        if (pick)
            *pick = DemandPick{e->bank, e->index};
        return now_;
    };

    // FR-FCFS: the oldest legal CAS, else the older of the oldest legal
    // PRE and the oldest legal ACT.  A spent ABOACT budget holds every
    // ACT.  Each floor is the least shared gate of its class.
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    const Listed *cas = walk(
        ready_[kCas],
        [&] {
            return std::min(dram_.casChannelReadyAt(true),
                            dram_.casChannelReadyAt(false));
        },
        kAll);
    if (cas)
        return choose(cas);
    const Listed *pre = walk(
        ready_[kPre], [&] { return dram_.channelBlockedUntil(); }, kAll);
    const bool acts_blocked = actsHeld();
    if (!acts_blocked) {
        const Listed *act = walk(
            ready_[kAct],
            [&] {
                Cycle floor = kNeverCycle;
                for (std::uint32_t r = 0; r < spec_.org.ranks; ++r)
                    floor = std::min(floor, dram_.actRankReadyAt(r));
                return floor;
            },
            pre ? pre->key : kAll);
        if (act)
            return choose(act);
    }
    if (pre)
        return choose(pre);

    // Nothing is legal: a parked candidate's gated cycle is the max of
    // its key and its shared gate.
    if (!parked_.empty())
        boundParked(0, bound, acts_blocked);
    demandIdleUntil_ = bound;
    return bound;
}

bool
MemoryController::tickDemand()
{
    DemandPick pick;
    demandHint_ = nextDemandIssueAt(&pick);
    if (demandHint_ > now_)
        return false;

    BankQueue &q = banks_[pick.bank];
    const Candidate c = q.cands[pick.index];
    const Command cmd = candidateCommand(q, c);
    issue(cmd);
    switch (c.type) {
      case CmdType::RD:
      case CmdType::WR: {
        ++q.hitStreak;
        if (stats_)
            ++*rowHits_;
        const Cycle done = c.type == CmdType::RD
                               ? now_ + spec_.timing.readLatency()
                               : now_ + spec_.timing.writeLatency();
        pool_[c.slot].completed = done;
        inFlight_.push_back(InFlight{std::move(pool_[c.slot]), done});
        freeSlots_.push_back(c.slot);

        // Unlink the slot from its bank's list.
        std::uint32_t prev = kNoSlot;
        for (std::uint32_t at = q.head; at != c.slot;
             at = pending_[at].next)
            prev = at;
        (prev == kNoSlot ? q.head : pending_[prev].next) =
            pending_[c.slot].next;
        if (q.tail == c.slot)
            q.tail = prev;
        if (q.head == kNoSlot) {
            queuedBanks_[pick.bank / 64] &= ~bankBit(pick.bank);
            staleBanks_[pick.bank / 64] &= ~bankBit(pick.bank);
        }
        break;
      }
      case CmdType::PRE:
        // Row conflict: the open row had no hit left below the cap.
        q.hitStreak = 0;
        if (stats_)
            ++*rowConflicts_;
        break;
      default:
        q.hitStreak = 0;
        mitigation_->onActivate(pick.bank, cmd.row, now_);
        if (stats_)
            ++*rowMisses_;
        break;
    }
    return true;
}

void
MemoryController::tick()
{
    ++sched_.ticksFired;
    prac_->maybePeriodicReset(now_);
    demandHint_ = kNeverCycle;
    drainHint_ = kNeverCycle;

    // Deliver finished requests.
    for (std::size_t i = 0; i < inFlight_.size();) {
        if (inFlight_[i].doneAt <= now_) {
            Request req = std::move(inFlight_[i].req);
            inFlight_[i] = std::move(inFlight_.back());
            inFlight_.pop_back();
            if (readLatency_ && req.type == ReqType::Read)
                readLatency_->sample(cyclesToNs(req.latency()));
            if (req.onComplete)
                req.onComplete(req);
        } else {
            ++i;
        }
    }

    if (!drain_.active())
        startDrainIfDue();

    bool issued = false;
    if (drain_.active()) {
        const DrainStep step = nextDrainStep();
        issued = step.at <= now_;
        if (issued)
            issueDrainStep(step.cmd);
        else
            drainHint_ = step.at;
    }

    // Demand runs on the banks the drain leaves free.
    const bool demand_issued = !issued && tickDemand();

    if (bus_) {
        // Delta-poll ABO assertions and defense mitigation events at
        // end of tick: both mutate only inside tick() (via DRAM
        // listeners and the mitigation hooks above), and the set of
        // ticked cycles is identical between the lockstep and
        // event-driven clocks, so the series cannot depend on the
        // scheduling mode.
        const std::uint64_t alerts = prac_->alerts();
        if (alerts != busAboMark_) {
            bus_->onAboAlert(alerts - busAboMark_, now_);
            busAboMark_ = alerts;
        }
        const std::uint64_t events = mitigation_->eventsTriggered();
        if (events != busMitMark_) {
            bus_->onMitigationEvents(events - busMitMark_, now_);
            busMitMark_ = events;
        }
    }

    ++now_;
    if (issued || demand_issued) {
        nextWorkCacheValid_ = false;
    } else {
        // A tick that issued nothing already scanned every candidate
        // the bound functions would scan: the declined commands'
        // earliest-issue hints rebuild the cache with only O(inflight
        // + ranks) glue instead of a second queue sweep.  The hints
        // are absolute legality instants, so they remain exact at the
        // incremented clock.
        nextWorkCache_ = composeNextWorkAt(demandHint_, drainHint_);
        nextWorkCacheValid_ = true;
        ++sched_.nextWorkHintRebuilds;
    }
}

void
MemoryController::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    while (now_ < end)
        tick();
}

Cycle
MemoryController::nextWorkAt() const
{
    if (!nextWorkCacheValid_) {
        nextWorkCache_ = computeNextWorkAt();
        nextWorkCacheValid_ = true;
        ++sched_.nextWorkRebuilds;
    } else {
        ++sched_.nextWorkCacheHits;
    }
    // A valid cached bound can sit behind the clock only when the
    // caller skipped to it and is about to tick; clamping keeps the
    // contract (>= now()) without recomputing.
    return std::max(nextWorkCache_, now_);
}

Cycle
MemoryController::computeNextWorkAt() const
{
    return composeNextWorkAt(nextDemandIssueAt(),
                             drain_.active() ? nextDrainStep().at
                                             : kNeverCycle);
}

Cycle
MemoryController::composeNextWorkAt(Cycle demand_at,
                                    Cycle drain_at) const
{
    Cycle next = std::min(demand_at, drain_at);

    // Deliveries and the tREFW counter reset are absolute deadlines,
    // live in every controller state.  A delivery is an effect only
    // when someone can observe it -- a stats sink (latency histogram)
    // or a completion callback; the queue slot was already freed when
    // the CAS issued, so an unobserved flight (trace replay) needs no
    // wake-up and is collected lazily by a later tick.
    for (const InFlight &flight : inFlight_)
        if (stats_ || flight.req.onComplete)
            next = std::min(next, flight.doneAt);
    next = std::min(next, prac_->nextCounterResetAt());

    // An active drain owns the command engine until its last terminal
    // command, itself a tick, after which the bound is recomputed:
    // until then the drain triggers are not polled.
    if (!drain_.active()) {
        next = std::min({next, aboServiceAt(),
                         mitigation_->nextMaintenanceAt(now_)});
        if (config_.refreshEnabled)
            next = std::min(next, nextRefreshAt_[firstDueRank()]);
    }
    return std::max(next, now_);
}

void
MemoryController::skipTo(Cycle target)
{
    if (target > now_) {
        sched_.cyclesJumped += target - now_;
        now_ = target;
    }
}

void
MemoryController::advanceBySteps(Cycle target)
{
    // Skip only on a cached bound.  When the cache is invalid (the
    // last tick issued, or a request arrived), tick immediately
    // rather than paying a full bound recomputation: ticking is
    // always behaviour-identical (lockstep is nothing but ticks), a
    // busy channel most likely has work next cycle anyway, and the
    // first tick that issues nothing rebuilds the cache as a free
    // by-product of its own scans -- so the full computeNextWorkAt()
    // sweep never runs on this path at all.
    while (now_ < target) {
        if (nextWorkCacheValid_) {
            const Cycle at = std::max(nextWorkCache_, now_);
            if (at > now_) {
                const Cycle to = std::min(at, target);
                sched_.cyclesJumped += to - now_;
                now_ = to;
                continue;
            }
        }
        tick();
    }
}

} // namespace pracleak
