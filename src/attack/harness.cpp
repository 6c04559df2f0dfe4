#include "attack/harness.h"

#include "mitigation/registry.h"

namespace pracleak {

void
MemAgent::tick(MemoryController &mem, Cycle now)
{
    if (now < wakeAt_)
        return;
    const std::uint32_t depth = depth_;
    while (inFlight_ < depth) {
        if (!mem.canAccept())
            return; // refused: stay due and retry next cycle
        const std::optional<Addr> addr = next(mem);
        if (!addr) {
            wakeAt_ = kNeverCycle;
            return;
        }
        Request req;
        req.addr = *addr;
        req.onComplete = [this, seq = issued_](const Request &done) {
            --inFlight_;
            wake();
            onComplete(done, seq);
        };
        mem.enqueue(std::move(req));
        ++inFlight_;
        ++issued_;
    }
    if (inFlight_ >= depth_)
        wakeAt_ = kNeverCycle;
}

AttackSetup
attackSetup(DramSpec spec, const std::string &defense, std::uint32_t nbo,
            std::uint32_t nmit, bool refresh, ControllerConfig controller)
{
    spec.prac.nbo = nbo;
    spec.prac.nmit = nmit;
    // The paper's attack evaluation runs on UPRAC, whose idealized
    // queue mitigates the true per-bank maximum on every RFM.  (A
    // single-entry queue is empty for the 2nd..4th RFM of an Alert
    // burst -- nothing activates while the channel is blocked -- so
    // decoy rows would accumulate stale counts.)
    controller.prac.queue = QueueKind::Ideal;
    controller.refreshEnabled = refresh;
    configureDefense(controller, defense, spec);
    return {spec, controller};
}

} // namespace pracleak
