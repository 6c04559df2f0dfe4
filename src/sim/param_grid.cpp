#include "sim/param_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/suggest.h"

namespace pracleak::sim {

namespace {

/**
 * Throw std::invalid_argument unless @p value fits the kind @p axis
 * was declared with: a non-negative integer for an integer axis
 * (every one is a count, a row, a key byte, a seed or a budget), a
 * finite number for a double axis, true/false for a boolean one.
 * The getters would coerce anything else into a wrong sweep
 * (strtoll("abc") is 0, asBool("yes") is false).  String axes keep
 * their scenarios' own checks.
 */
void
checkKind(const ParamAxis &axis, const JsonValue &value)
{
    using Kind = JsonValue::Kind;
    const auto declared = [&axis](bool (*test)(const JsonValue &)) {
        return std::all_of(axis.values.begin(), axis.values.end(), test);
    };
    const char *kind = nullptr;
    bool fits = true;
    if (declared([](const JsonValue &v) { return v.kind() == Kind::Int; })) {
        kind = "a non-negative integer";
        fits = value.kind() == Kind::Int && value.asInt() >= 0;
    } else if (declared([](const JsonValue &v) { return v.isNumber(); })) {
        kind = "a number";
        fits = value.isNumber() && std::isfinite(value.asDouble());
    } else if (declared(
                   [](const JsonValue &v) { return v.kind() == Kind::Bool; })) {
        kind = "true or false";
        fits = value.kind() == Kind::Bool;
    }
    if (!fits)
        throw std::invalid_argument("ParamGrid: axis '" + axis.name +
                                    "' takes " + kind + ", got '" +
                                    value.asString() + "'");
}

} // namespace

void
ParamSet::add(const std::string &name, JsonValue value)
{
    for (auto &entry : entries_) {
        if (entry.first == name) {
            entry.second = std::move(value);
            return;
        }
    }
    entries_.emplace_back(name, std::move(value));
}

bool
ParamSet::has(const std::string &name) const
{
    for (const auto &entry : entries_)
        if (entry.first == name)
            return true;
    return false;
}

const JsonValue &
ParamSet::at(const std::string &name) const
{
    for (const auto &entry : entries_)
        if (entry.first == name)
            return entry.second;
    throw std::out_of_range("ParamSet: no parameter named '" + name +
                            "'");
}

std::int64_t
ParamSet::getInt(const std::string &name) const
{
    return at(name).asInt();
}

std::uint32_t
ParamSet::getUint32(const std::string &name) const
{
    const std::int64_t value = getInt(name);
    if (value < 0 || value > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument(
            "axis '" + name + "' takes an integer in [0, 4294967295], got " +
            std::to_string(value));
    return static_cast<std::uint32_t>(value);
}

double
ParamSet::getDouble(const std::string &name) const
{
    return at(name).asDouble();
}

bool
ParamSet::getBool(const std::string &name) const
{
    return at(name).asBool();
}

std::string
ParamSet::getString(const std::string &name) const
{
    return at(name).asString();
}

std::string
ParamSet::label() const
{
    std::string out;
    for (const auto &[name, value] : entries_) {
        if (!out.empty())
            out += ' ';
        out += name;
        out += '=';
        out += value.asString();
    }
    return out;
}

JsonValue
ParamSet::toJson() const
{
    JsonValue obj = JsonValue::object();
    for (const auto &[name, value] : entries_)
        obj.set(name, value);
    return obj;
}

ParamGrid &
ParamGrid::axis(std::string name, std::vector<JsonValue> values)
{
    if (values.empty())
        throw std::invalid_argument("ParamGrid: axis '" + name +
                                    "' has no values");
    axes_.push_back(ParamAxis{std::move(name), std::move(values)});
    return *this;
}

ParamGrid &
ParamGrid::constant(std::string name, JsonValue value)
{
    return axis(std::move(name), {std::move(value)});
}

std::size_t
ParamGrid::size() const
{
    std::size_t n = 1;
    for (const auto &axis : axes_)
        n *= axis.values.size();
    return n;
}

ParamSet
ParamGrid::point(std::size_t index) const
{
    ParamSet set;
    // Row-major: the last declared axis varies fastest, so output
    // ordering matches nested loops written in declaration order.
    std::size_t stride = size();
    for (const auto &axis : axes_) {
        stride /= axis.values.size();
        const std::size_t pick = (index / stride) % axis.values.size();
        set.add(axis.name, axis.values[pick]);
    }
    return set;
}

const ParamAxis *
ParamGrid::findAxis(const std::string &name) const
{
    for (const auto &axis : axes_)
        if (axis.name == name)
            return &axis;
    return nullptr;
}

void
ParamGrid::overrideAxis(const std::string &name,
                        std::vector<JsonValue> values)
{
    if (values.empty())
        throw std::invalid_argument("ParamGrid: override of '" + name +
                                    "' has no values");
    for (auto &axis : axes_) {
        if (axis.name == name) {
            for (const JsonValue &value : values)
                checkKind(axis, value);
            axis.values = std::move(values);
            return;
        }
    }
    std::string known;
    std::vector<std::string> names;
    for (const auto &axis : axes_) {
        known += (known.empty() ? "" : ", ") + axis.name;
        names.push_back(axis.name);
    }
    const std::string hint = closestTo(name, names);
    throw std::invalid_argument(
        "ParamGrid: unknown axis '" + name + "'" +
        (hint.empty() ? "" : " (did you mean '" + hint + "'?)") +
        " (have: " + known + ")");
}

JsonValue
ParamGrid::toJson() const
{
    JsonValue obj = JsonValue::object();
    for (const auto &axis : axes_) {
        JsonValue values = JsonValue::array();
        for (const auto &value : axis.values)
            values.push(value);
        obj.set(axis.name, std::move(values));
    }
    return obj;
}

} // namespace pracleak::sim
