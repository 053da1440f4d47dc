"""The value rules the manifest's settings declare, as cases for the tests."""

import dataclasses

from heavecast import io

# each manifest section whose keys are a settings class's fields, by the name its refusals give it
SECTIONS = {"": io.RunManifest, "sampler": io.SamplerConfig, "scenario": io.SwellScenario,
            "scenario event": io.SwellEvent, "injection": io.ErrorInjection}
# (section, key, rule) of every rule a settings field declares, in declaration order
SETTING_RULES = [(section, f.name, rule) for section, cls in SECTIONS.items() for f in dataclasses.fields(cls)
                 for rule in f.metadata.get("rules", ())]


def breaking_values(rule: str) -> list:
    """Values that break rule and keep every rule a field declares before it."""
    name, _, arg = rule.partition(":")
    if name == "at_least":
        return [float(arg) - 0.5, float(arg) - 0.001] if "." in arg else [int(arg) - 1]
    nan, inf = float("nan"), float("inf")
    return {"finite": [nan, inf, -inf], "nonnegative": [-0.5, nan, inf], "positive": [0.0, -1.0, nan, inf],
            "persistence": [1.0, -0.1, nan], "fraction": [0.0, 1.0, 1.5, nan, inf], "tp_band": [1.8, 24.3, nan]}[name]


def keeping_values(rule: str) -> list:
    """Values at the edge of rule that keep it and the field's other rules."""
    name, _, arg = rule.partition(":")
    if name == "at_least":
        return [float(arg)] if "." in arg else [int(arg)]
    return {"finite": [10.0], "nonnegative": [0.0], "positive": [1e-3], "persistence": [0.0, 0.999],
            "fraction": [1e-3, 0.999], "tp_band": [float(io._TP_MIN), float(io._TP_MAX)]}[name]


def refusal(rule: str, value) -> str:
    """What a refusal of value says after the key's name: "must be <rule>, found <value>"."""
    name, _, arg = rule.partition(":")
    return f"must be {io._SETTING_RULES[name][0].format(arg)}, found {value!r}"
