#include "attack/visible_bus.h"

namespace pracleak {

VisibleBusModel
VisibleBusModel::fromSpec(const DramSpec &spec)
{
    VisibleBusModel model;
    model.tRfmAb_ = spec.timing.tRFMab;
    model.nmit_ = spec.prac.nmit;
    return model;
}

} // namespace pracleak
