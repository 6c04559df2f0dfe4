/**
 * @file
 * Declarative parameter grids for scenarios.
 *
 * A scenario declares named axes (each a list of scalar values); the
 * sweep runner enumerates the cartesian product and hands each point
 * to the scenario as a ParamSet.  Axes can be overridden from the
 * CLI (`--set axis=v1,v2`) without touching scenario code, which is
 * how quick runs, single-point repros, and extended sweeps are all
 * expressed.
 */

#ifndef PRACLEAK_SIM_PARAM_GRID_H
#define PRACLEAK_SIM_PARAM_GRID_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.h"

namespace pracleak::sim {

/** One axis of the grid: a name plus its swept values. */
struct ParamAxis
{
    std::string name;
    std::vector<JsonValue> values;
};

/** One concrete grid point: axis name -> chosen value. */
class ParamSet
{
  public:
    void add(const std::string &name, JsonValue value);

    bool has(const std::string &name) const;
    /** Lookup; throws std::out_of_range when the axis is missing. */
    const JsonValue &at(const std::string &name) const;

    std::int64_t getInt(const std::string &name) const;

    /**
     * An integer axis that must fit 32 bits; throws
     * std::invalid_argument naming the axis and the value when it does
     * not (a value past 2^32 - 1 would otherwise wrap).
     */
    std::uint32_t getUint32(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;
    std::string getString(const std::string &name) const;

    /** "design=tprac nrh=1024" -- for progress lines and labels. */
    std::string label() const;

    /** The point as a JSON object, axis order preserved. */
    JsonValue toJson() const;

    const std::vector<std::pair<std::string, JsonValue>> &
    entries() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<std::string, JsonValue>> entries_;
};

/** The declared sweep space of a scenario. */
class ParamGrid
{
  public:
    /** Add an axis; returns *this for chaining. */
    ParamGrid &axis(std::string name, std::vector<JsonValue> values);

    /** Convenience single-value axis (a fixed, overridable knob). */
    ParamGrid &constant(std::string name, JsonValue value);

    /** Number of points in the cartesian product (1 when empty). */
    std::size_t size() const;

    /** Materialize point @p index (row-major over declared axes). */
    ParamSet point(std::size_t index) const;

    const std::vector<ParamAxis> &axes() const { return axes_; }
    const ParamAxis *findAxis(const std::string &name) const;

    /**
     * Replace the values of an existing axis; throws
     * std::invalid_argument when no such axis is declared, or when a
     * value does not fit the kind the axis was declared with (a
     * non-negative integer, a number, or true/false; string axes
     * take any value) -- catches CLI typos instead of silently
     * sweeping the wrong thing.
     */
    void overrideAxis(const std::string &name,
                      std::vector<JsonValue> values);

    /** Axis names and values as a JSON object. */
    JsonValue toJson() const;

  private:
    std::vector<ParamAxis> axes_;
};

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_PARAM_GRID_H
