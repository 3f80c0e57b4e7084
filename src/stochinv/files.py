"""Instance files and CSV emission.

An instance file is a JSON document:

    {
      "horizon": 4,
      "K": 100.0, "v": 0.0, "h": 1.0, "p": 10.0,
      "B": 65,                    # or "inf"
      "discount": 1.0,            # optional
      "demands": [
        {"values": [6, 7], "probs": [0.95, 0.05]},
        {"family": "poisson", "mean": 40.0},
        {"family": "normal", "mean": 40.0, "cv": 0.25},
        ...
      ]
    }

Unknown keys are rejected so typos fail loudly. Serialisation always
writes explicit values/probs, so parse -> serialize -> parse is an
identity on instances regardless of how demands were first specified.
"""

from __future__ import annotations

import json
import math

from .demand import DemandPMF, pmf_empirical, pmf_parametric
from .policy import ThresholdPolicy
from .sdp import Instance


class InstanceFormatError(ValueError):
    """The document does not describe a valid instance."""


_TOP_KEYS = {"horizon", "K", "v", "h", "p", "B", "discount", "demands"}
_REQUIRED_KEYS = _TOP_KEYS - {"discount"}
_PMF_KEYS = {"values", "probs"}
_FAMILY_KEYS = {"family", "mean", "cv"}


def _parse_demand(spec, index: int) -> DemandPMF:
    if not isinstance(spec, dict):
        raise InstanceFormatError(f"demands[{index}]: expected an object")
    keys = set(spec)
    try:
        if keys <= _PMF_KEYS:
            if not _PMF_KEYS <= keys:
                raise InstanceFormatError(
                    f"demands[{index}]: need both 'values' and 'probs'")
            return pmf_empirical(spec["values"], spec["probs"])
        if keys <= _FAMILY_KEYS:
            if "family" not in keys or "mean" not in keys:
                raise InstanceFormatError(
                    f"demands[{index}]: need 'family' and 'mean'")
            return pmf_parametric(spec["family"], spec["mean"],
                                  cv=spec.get("cv"))
    except InstanceFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"demands[{index}]: {exc}") from exc
    raise InstanceFormatError(
        f"demands[{index}]: unknown keys {sorted(keys - (_PMF_KEYS | _FAMILY_KEYS))}")


def parse_instance(doc) -> Instance:
    """Build an Instance from a parsed document, validating strictly."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InstanceFormatError(f"unknown keys {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise InstanceFormatError(f"missing keys {sorted(missing)}")

    cap = doc["B"]
    if cap == "inf":
        cap = math.inf
    elif isinstance(cap, bool) or not isinstance(cap, (int, float)):
        raise InstanceFormatError('B must be a number or "inf"')

    demands = doc["demands"]
    if not isinstance(demands, list):
        raise InstanceFormatError("demands must be a list")
    pmfs = tuple(_parse_demand(spec, i) for i, spec in enumerate(demands))

    try:
        return Instance(horizon=doc["horizon"], K=doc["K"], v=doc["v"],
                        h=doc["h"], p=doc["p"], B=cap, demands=pmfs,
                        discount=doc.get("discount", 1.0))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def load_instance(path) -> Instance:
    """Read and parse an instance file."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    return parse_instance(doc)


def serialize_instance(instance: Instance) -> dict:
    """Instance as a plain document, demands always as explicit values/probs."""
    return {
        "horizon": instance.horizon,
        "K": instance.K,
        "v": instance.v,
        "h": instance.h,
        "p": instance.p,
        "B": "inf" if instance.B == math.inf else instance.B,
        "discount": instance.discount,
        "demands": [
            {"values": list(d.support), "probs": list(d.probs)}
            for d in instance.demands
        ],
    }


def dump_instance(instance: Instance, path) -> None:
    """Write an instance file that parses back to an equal Instance."""
    with open(path, "w") as handle:
        json.dump(serialize_instance(instance), handle, indent=2)
        handle.write("\n")


def thresholds_csv(policy: ThresholdPolicy) -> str:
    """CSV lines (period,k,s,S) of a policy's bands, skipping the periods
    flagged for the continuous order property."""
    lines = ["period,k,s,S"]
    for period, pairs in enumerate(policy.bands, start=1):
        if period not in policy.cop_violated:
            for k, (s_k, big_k) in enumerate(pairs, start=1):
                lines.append(f"{period},{k},{s_k},{big_k}")
    return "\n".join(lines) + "\n"
