#include "mem/controller.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "mitigation/registry.h"
#include "telemetry/timeseries.h"

namespace pracleak {

const char *
mitigationModeName(MitigationMode mode)
{
    switch (mode) {
      case MitigationMode::NoMitigation: return "no-mitigation";
      case MitigationMode::AboOnly: return "abo-only";
      case MitigationMode::AboAcb: return "abo+acb-rfm";
      case MitigationMode::Tprac: return "tprac";
      case MitigationMode::Obfuscation: return "obfuscation";
    }
    return "?";
}

MemoryController::MemoryController(const DramSpec &spec,
                                   const ControllerConfig &config,
                                   StatSet *stats)
    : spec_(spec), config_(config), stats_(stats), dram_(spec),
      mapper_(spec.org, config.mapping, config.interleave)
{
    const std::string defense = resolveMitigationName(config_);
    const MitigationInfo *info = findMitigation(defense);
    if (!info)
        fatal("unknown mitigation '" + defense + "'");

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
    mitigation_ = makeMitigation(defense, ctx);

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
    banks_.resize(org.totalBanks());
    for (std::uint32_t flat = 0; flat < org.totalBanks(); ++flat) {
        const std::uint32_t in_rank = flat % org.banksPerRank();
        banks_[flat].rank = flat / org.banksPerRank();
        banks_[flat].bankGroup = in_rank / org.banksPerGroup;
        banks_[flat].bank = in_rank % org.banksPerGroup;
    }
    queuedBanks_.assign((org.totalBanks() + 63) / 64, 0);
    stale_.reserve(org.totalBanks());

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
        spec_, config_.channelIndex, defense);
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
    q.invalidate();
    queuedBanks_[flat / 64] |= std::uint64_t{1} << (flat % 64);
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
    // DRAM timing limits only move later as commands issue, so every
    // cached bound stays a lower bound -- except on the addressed
    // bank, whose open row, streak or queue may have changed.
    ++issued_;
    if (cmd.type == CmdType::ACT || cmd.type == CmdType::PRE ||
        cmd.type == CmdType::RD || cmd.type == CmdType::WR)
        banks_[spec_.org.flatBank(cmd.rank,
                                  cmd.bankGroup * spec_.org.banksPerGroup +
                                      cmd.bank)]
            .invalidate();
    if (bus_)
        bus_->onCommand(cmd, now_);
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
        switch (reason) {
          case RfmReason::Abo:
            ++stats_->counter("mem.abo_rfms");
            break;
          case RfmReason::Acb:
            ++stats_->counter("mem.acb_rfms");
            break;
          case RfmReason::TimingBased:
            ++stats_->counter(per_bank ? "mem.tb_rfms_pb"
                                       : "mem.tb_rfms");
            break;
          case RfmReason::Random:
            ++stats_->counter("mem.random_rfms");
            break;
          case RfmReason::Graphene:
            ++stats_->counter("mem.graphene_rfms");
            break;
          case RfmReason::PerBank:
            ++stats_->counter("mem.pb_rfms");
            break;
        }
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
    q.actOnly = !dram_.isOpen(q.rank, q.bankGroup, q.bank);
    if (q.actOnly) {
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
MemoryController::refreshBank(std::uint32_t flat) const
{
    const BankQueue &q = banks_[flat];
    if (q.stamp == kRebuild)
        rebuildCandidates(q);
    q.bound = kNeverCycle;
    for (std::uint32_t i = 0; i < q.count; ++i) {
        Candidate &c = q.cands[i];
        c.at = dram_.earliestIssue(candidateCommand(q, c));
        q.bound = std::min(q.bound, c.at);
    }
    q.stamp = issued_;
}

Cycle
MemoryController::nextDemandIssueAt(DemandPick *pick) const
{
    // A maintenance drain holds back demand on the banks it needs (a
    // refresh drain's rank, an RFMpb drain's bank), and a spent ABOACT
    // budget blocks new activations.
    const bool refresh_drain = maint_.active && !maint_.isRfm;
    const bool rfmpb_drain =
        maint_.active && maint_.isRfm && maint_.perBank;
    const bool acts_blocked =
        prac_->alertAsserted() &&
        prac_->actsSinceAlert() >= spec_.prac.aboAct;

    // Legality: only a bank whose cached bound has come due can hold
    // a legal candidate.  FR-FCFS takes the oldest legal CAS, else the
    // oldest legal PRE/ACT.  The pass also splits the other banks'
    // bounds into fresh (exact) and stale (lower bounds).
    constexpr std::uint64_t kNone = ~std::uint64_t{0};
    std::uint64_t cas_seq = kNone;
    std::uint64_t other_seq = kNone;
    DemandPick cas_pick;
    DemandPick other_pick;
    bool legal = false;
    Cycle fresh_min = kNeverCycle;
    stale_.clear();

    // Once a candidate is legal, a bank whose known candidates cannot
    // beat it (younger CAS, or PRE/ACT against a legal CAS) needs no
    // re-query: with a pick, no bound is asked for.
    auto can_win = [&](const BankQueue &q) {
        for (std::uint32_t i = 0; i < q.count; ++i) {
            const Candidate &c = q.cands[i];
            if (c.type == CmdType::RD || c.type == CmdType::WR
                    ? c.seq < cas_seq
                    : cas_seq == kNone && c.seq < other_seq)
                return true;
        }
        return false;
    };
    for (std::size_t w = 0; w < queuedBanks_.size(); ++w) {
        for (std::uint64_t bits = queuedBanks_[w]; bits != 0;
             bits &= bits - 1) {
            const auto flat = static_cast<std::uint32_t>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
            const BankQueue &q = banks_[flat];
            if ((refresh_drain && q.rank == maint_.rank) ||
                (rfmpb_drain && flat == maint_.flatBank))
                continue;
            if (q.lowerBound(acts_blocked) <= now_) {
                if (q.stamp != issued_) {
                    if (legal && q.stamp != kRebuild && !can_win(q))
                        continue;
                    refreshBank(flat);
                }
                for (std::uint32_t i = 0; i < q.count; ++i) {
                    const Candidate &c = q.cands[i];
                    if (c.at > now_ ||
                        (acts_blocked && c.type == CmdType::ACT))
                        continue;
                    if (!pick)
                        return now_;
                    legal = true;
                    const bool cas =
                        c.type == CmdType::RD || c.type == CmdType::WR;
                    std::uint64_t &best = cas ? cas_seq : other_seq;
                    if (c.seq < best) {
                        best = c.seq;
                        (cas ? cas_pick : other_pick) = DemandPick{flat, i};
                    }
                }
            }
            const Cycle at = q.lowerBound(acts_blocked);
            if (q.stamp == issued_)
                fresh_min = std::min(fresh_min, at);
            else if (at < fresh_min)
                stale_.emplace_back(at, flat);
        }
    }
    if (legal) {
        *pick = cas_seq != kNone ? cas_pick : other_pick;
        return now_;
    }

    // Nothing is legal.  A stale bound is at most its bank's true next
    // issue, so re-query the stale bounds below the fresh minimum,
    // smallest first; once none is left, the minimum is exact.
    for (;;) {
        const auto lowest = std::min_element(stale_.begin(), stale_.end());
        if (lowest == stale_.end() || lowest->first >= fresh_min)
            return fresh_min;
        refreshBank(lowest->second);
        fresh_min = std::min(
            fresh_min, banks_[lowest->second].lowerBound(acts_blocked));
        *lowest = stale_.back();
        stale_.pop_back();
    }
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
        if (q.head == kNoSlot)
            queuedBanks_[pick.bank / 64] &=
                ~(std::uint64_t{1} << (pick.bank % 64));
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

    if (!maint_.active)
        startAboServiceIfNeeded();
    if (!maint_.active)
        startProactiveRfmIfNeeded();
    if (!maint_.active)
        startRefreshIfNeeded();

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
MemoryController::advanceTo(Cycle target)
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
