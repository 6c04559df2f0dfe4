#include "mem/controller.h"

#include <algorithm>
#include <bit>

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
MemoryController::startAboServiceIfNeeded()
{
    if (!prac_->alertAsserted())
        return;
    const bool act_budget_spent =
        prac_->actsSinceAlert() >= spec_.prac.aboAct;
    const bool window_elapsed =
        now_ >= prac_->alertAssertedAt() + spec_.timing.tABOACT;
    if (!act_budget_spent && !window_elapsed)
        return;

    maint_.active = true;
    maint_.isRfm = true;
    // Alert service is always Nmit channel-wide RFMabs: clear any
    // per-bank targeting left over from a prior RFMpb, or the drain
    // would service the Alert with one RFMpb to a stale bank.
    maint_.perBank = false;
    maint_.reason = RfmReason::Abo;
    maint_.rfmsRemaining = spec_.prac.nmit;
}

void
MemoryController::startProactiveRfmIfNeeded()
{
    const MaintenanceRequest req =
        mitigation_->maintenanceCommands(now_);
    if (!req.wanted)
        return;
    maint_.active = true;
    maint_.isRfm = true;
    maint_.perBank = req.perBank;
    maint_.reason = req.reason;
    maint_.flatBank = req.flatBank;
    maint_.rfmsRemaining = req.rfms;
}

void
MemoryController::startRefreshIfNeeded()
{
    if (!config_.refreshEnabled)
        return;
    // Service the most overdue rank first.
    std::uint32_t best_rank = 0;
    bool found = false;
    Cycle best_due = kNeverCycle;
    for (std::uint32_t r = 0; r < spec_.org.ranks; ++r) {
        if (now_ >= nextRefreshAt_[r] && nextRefreshAt_[r] < best_due) {
            best_due = nextRefreshAt_[r];
            best_rank = r;
            found = true;
        }
    }
    if (!found)
        return;
    maint_.active = true;
    maint_.isRfm = false;
    maint_.rank = best_rank;
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

bool
MemoryController::issueOrTrack(const Command &cmd, Cycle &hint)
{
    // A declined command's earliest-legal cycle feeds the next-work
    // hint, so a tick that issues nothing leaves a ready-made
    // nextWorkAt() cache behind (structurally illegal commands report
    // kNeverCycle and drop out of the min).
    const Cycle at = dram_.earliestIssue(cmd);
    if (at > now_) {
        hint = std::min(hint, at);
        return false;
    }
    issue(cmd);
    return true;
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

bool
MemoryController::tickMaintenance()
{
    const DramOrg &org = spec_.org;

    if (maint_.isRfm && maint_.perBank) {
        // RFMpb drain: precharge only the target bank.
        const std::uint32_t rank =
            maint_.flatBank / org.banksPerRank();
        const std::uint32_t in_rank =
            maint_.flatBank % org.banksPerRank();
        const std::uint32_t bg = in_rank / org.banksPerGroup;
        const std::uint32_t bank = in_rank % org.banksPerGroup;

        if (dram_.isOpen(rank, bg, bank)) {
            Command pre{CmdType::PRE, rank, bg, bank, 0, 0};
            return issueOrTrack(pre, maintHint_);
        }
        Command rfm{CmdType::RFMpb, rank, bg, bank, 0, 0};
        if (!issueOrTrack(rfm, maintHint_))
            return false;
        countRfm(maint_.reason, /*per_bank=*/true);
        maint_.active = false;
        return true;
    }

    if (maint_.isRfm) {
        // Drain: precharge every open bank in the channel.
        for (std::uint32_t r = 0; r < org.ranks; ++r) {
            for (std::uint32_t bg = 0; bg < org.bankGroups; ++bg) {
                for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
                    if (!dram_.isOpen(r, bg, b))
                        continue;
                    Command pre{CmdType::PRE, r, bg, b, 0, 0};
                    if (issueOrTrack(pre, maintHint_))
                        return true;
                }
            }
        }
        if (dram_.anyOpen())
            return false; // a precharge is pending but not yet legal

        Command rfm{CmdType::RFMab, 0, 0, 0, 0, 0};
        if (!issueOrTrack(rfm, maintHint_))
            return false;

        countRfm(maint_.reason, /*per_bank=*/false);

        if (--maint_.rfmsRemaining == 0)
            maint_.active = false;
        return true;
    }

    // Refresh drain: precharge open banks of the target rank only.
    for (std::uint32_t bg = 0; bg < org.bankGroups; ++bg) {
        for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
            if (!dram_.isOpen(maint_.rank, bg, b))
                continue;
            Command pre{CmdType::PRE, maint_.rank, bg, b, 0, 0};
            if (issueOrTrack(pre, maintHint_))
                return true;
        }
    }
    if (dram_.anyOpenInRank(maint_.rank))
        return false;

    Command ref{CmdType::REFab, maint_.rank, 0, 0, 0, 0};
    if (!issueOrTrack(ref, maintHint_))
        return false;

    nextRefreshAt_[maint_.rank] += spec_.timing.tREFI;
    maint_.active = false;
    if (stats_)
        ++stats_->counter("mem.refreshes");
    mitigation_->onRefresh(maint_.rank, now_);
    return true;
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

bool
MemoryController::drained(const Listed &entry) const
{
    if (!maint_.active)
        return false;
    if (!maint_.isRfm)
        return banks_[entry.bank].rank == maint_.rank;
    return maint_.perBank && entry.bank == maint_.flatBank;
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
    const bool acts_blocked =
        prac_->alertAsserted() &&
        prac_->actsSinceAlert() >= spec_.prac.aboAct;
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
    maintHint_ = kNeverCycle;

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

    if (!maint_.active) {
        startAboServiceIfNeeded();
        if (!maint_.active)
            startProactiveRfmIfNeeded();
        if (!maint_.active)
            startRefreshIfNeeded();
        // A new drain holds banks back from demand.
        if (maint_.active)
            demandIdleUntil_ = 0;
    }

    bool issued = false;
    if (maint_.active)
        issued = tickMaintenance();

    // Demand may proceed when no maintenance holds the channel, or
    // when only a single-rank refresh / single-bank RFMpb drain is in
    // progress (that's the point of the per-bank extension).
    bool demand_issued = false;
    if (!issued &&
        (!maint_.active || !maint_.isRfm || maint_.perBank))
        demand_issued = tickDemand();

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
        nextWorkCache_ = composeNextWorkAt(demandHint_, maintHint_);
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
MemoryController::nextMaintenanceIssueAt() const
{
    // First cycle tickMaintenance() issues its next command.  Exact
    // because the drain state machine is deterministic and the DRAM
    // timing state is frozen between commands: a per-bank PRE's
    // legality depends only on its own bank's last ACT/CAS, and the
    // terminal RFM/REF becomes legal only once every required bank is
    // precharged -- which is exactly when the drain stops issuing
    // PREs.  tickMaintenance() takes the first *ready* PRE in scan
    // order, so the earliest legality over all open banks is the
    // cycle the next PRE actually fires.
    const DramOrg &org = spec_.org;

    if (maint_.isRfm && maint_.perBank) {
        const std::uint32_t rank =
            maint_.flatBank / org.banksPerRank();
        const std::uint32_t in_rank =
            maint_.flatBank % org.banksPerRank();
        const std::uint32_t bg = in_rank / org.banksPerGroup;
        const std::uint32_t bank = in_rank % org.banksPerGroup;
        if (dram_.isOpen(rank, bg, bank))
            return dram_.earliestIssue(
                Command{CmdType::PRE, rank, bg, bank, 0, 0});
        return dram_.earliestIssue(
            Command{CmdType::RFMpb, rank, bg, bank, 0, 0});
    }

    if (maint_.isRfm) {
        Cycle next = kNeverCycle;
        bool any_open = false;
        for (std::uint32_t r = 0; r < org.ranks; ++r) {
            for (std::uint32_t bg = 0; bg < org.bankGroups; ++bg) {
                for (std::uint32_t b = 0; b < org.banksPerGroup;
                     ++b) {
                    if (!dram_.isOpen(r, bg, b))
                        continue;
                    any_open = true;
                    next = std::min(
                        next, dram_.earliestIssue(Command{
                                  CmdType::PRE, r, bg, b, 0, 0}));
                }
            }
        }
        if (any_open)
            return next;
        return dram_.earliestIssue(
            Command{CmdType::RFMab, 0, 0, 0, 0, 0});
    }

    Cycle next = kNeverCycle;
    bool any_open = false;
    for (std::uint32_t bg = 0; bg < org.bankGroups; ++bg) {
        for (std::uint32_t b = 0; b < org.banksPerGroup; ++b) {
            if (!dram_.isOpen(maint_.rank, bg, b))
                continue;
            any_open = true;
            next = std::min(next,
                            dram_.earliestIssue(Command{
                                CmdType::PRE, maint_.rank, bg, b, 0,
                                0}));
        }
    }
    if (any_open)
        return next;
    return dram_.earliestIssue(
        Command{CmdType::REFab, maint_.rank, 0, 0, 0, 0});
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
                             maint_.active ? nextMaintenanceIssueAt()
                                           : kNeverCycle);
}

Cycle
MemoryController::composeNextWorkAt(Cycle demand_at,
                                    Cycle maint_at) const
{
    Cycle next = kNeverCycle;

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

    if (maint_.active) {
        // An active drain owns the command engine: the next effect
        // is the drain's own next legal command, plus demand on the
        // banks a single-rank refresh / single-bank RFMpb drain
        // leaves schedulable.  Defense deadlines, refresh due times,
        // and Alert-service triggers are NOT polled while a drain is
        // active -- the drain's terminal RFM/REF is itself a tick,
        // after which the bound is recomputed with them back in.
        next = std::min(next, maint_at);
        if (!maint_.isRfm || maint_.perBank)
            next = std::min(next, demand_at);
        return std::max(next, now_);
    }

    if (prac_->alertAsserted()) {
        // Alert service starts the moment the ACT budget is spent;
        // until then the tABOACT window expiry is a hard trigger and
        // demand (which burns the budget) keeps running.
        if (prac_->actsSinceAlert() >= spec_.prac.aboAct)
            return now_;
        next = std::min(next, prac_->alertAssertedAt() +
                                  spec_.timing.tABOACT);
    }

    next = std::min(next, demand_at);
    if (config_.refreshEnabled)
        for (const Cycle due : nextRefreshAt_)
            next = std::min(next, due);
    next = std::min(next, mitigation_->nextMaintenanceAt(now_));
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
