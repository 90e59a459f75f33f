"""Tracing shim and the per-layer metrics computed from its spans.

``Tracer.install`` wraps pcmrank's public functions from outside the
package, so ``src/`` stays untouched.  A function imported with
``from .x import f`` is bound again in every importing module, so the
shim replaces every module attribute that *is* the original function
(``method_rank`` lives in ``weighting``, ``axioms``, ``proofchain``,
``cli`` and the package namespace alike), plus ``PCM.__post_init__`` and
``PCM.from_upper`` on the class, which every module shares.

A span is ``(name, start, end, parent, op, info)``: ``parent`` indexes
the enclosing span (-1 for none), ``op`` is the op index it ran under and
``info`` holds the exception name, ``"fail"`` for a check that found a
violation, or the matrix size for ``method_weights``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict

import numpy as np

import calib
import pcmrank
from pcmrank import axioms, cli, core, proofchain, registry, transforms, weighting

_CHECKS = {a: f"check_{a.lower()}" for a in ("ANO", "AI", "INV", "RSI", "IIC", "RES")}

#: span name -> (defining module, attribute)
TARGETS = {
    "cli.main": (cli, "main"),
    "axioms.falsify": (axioms, "falsify"),
    **{f"axioms.check_{a}": (axioms, f) for a, f in _CHECKS.items()},
    "weighting.method_rank": (weighting, "method_rank"),
    "weighting.method_weights": (weighting, "method_weights"),
    "weighting.em_weights": (weighting, "em_weights"),
    "core.ranking_from_weights": (core, "ranking_from_weights"),
    "core.pair_relation": (core, "pair_relation"),
    "core.pcm_parse": (core, "pcm_parse"),
    "transforms.aggregate": (transforms, "aggregate"),
    "transforms.opposite": (transforms, "opposite"),
    "transforms.power": (transforms, "power"),
    "transforms.permute": (transforms, "permute"),
    "registry.run_all": (registry, "run_all"),
    "proofchain.equalize_pair": (proofchain, "equalize_pair"),
    "proofchain.build_proof_chain": (proofchain, "build_proof_chain"),
    "proofchain.verify_proof_identities": (proofchain, "verify_proof_identities"),
}
MODULES = (pcmrank, core, transforms, weighting, axioms, registry, proofchain, cli)
PCM_SPANS = ("core.PCM", "core.PCM.from_upper")
COUNT_SUFFIXES = (".calls", ".trials", ".attempts", ".accepted", ".noconv")


def _verdict_info(args, kwargs, result):
    return None if result.holds else "fail"


def _size_info(args, kwargs, result):
    a = args[1] if len(args) > 1 else kwargs["a"]
    return a.n


_INFO = {f"axioms.check_{a}": _verdict_info for a in _CHECKS}
_INFO["weighting.method_weights"] = _size_info


class Tracer:
    """Spans are kept column-wise in lists of atoms, not as one container
    per span: hundreds of thousands of tracked containers would make every
    garbage collection, and with it the calibration kernel, slower while
    tracing, and the drift normalization would then hide the overhead."""

    def __init__(self):
        self._columns = ([], [], [], [], [], [])  # name, start, end, parent, op, info
        self.op: int | None = None
        self.recording = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @property
    def spans(self) -> list[tuple]:
        return list(zip(*self._columns))

    def _wrap(self, name, fn):
        names, starts, ends, parents, ops, infos = self._columns
        stack, info = self._stack, _INFO.get(name)
        clock = calib.now

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            infos.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                infos[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if info is not None:
                infos[idx] = info(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, (module, attr) in TARGETS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in MODULES:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
        pcm = core.PCM
        self._replace(pcm, "__post_init__", self._wrap("core.PCM", pcm.__post_init__))
        from_upper = pcm.__dict__["from_upper"].__func__
        self._replace(pcm, "from_upper", classmethod(self._wrap("core.PCM.from_upper", from_upper)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def clear(self) -> None:
        for column in self._columns:
            column.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, clock) -> dict:
    """Per-layer metrics of one pass over the op list.

    ``clock`` maps ``calib.now`` readings to normalized seconds (see
    ``calib.SpeedProbe.clock``).  Counts are exact; ``*.ms`` are totals
    over the pass, ``*.us`` means per call, ``self`` excludes child spans.
    """
    if spans:
        starts = clock(np.array([s[1] for s in spans]))
        ends = clock(np.array([s[2] for s in spans]))
    else:
        starts = ends = np.zeros(0)
    dur = (ends - starts).tolist()
    child = [0.0] * len(spans)
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            kids[s[3]].append(i)
    calls, total, self_t = Counter(), defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[i]
        self_t[s[0]] += dur[i] - child[i]

    def ms(x):
        return 1e3 * x

    def outer_ms(prefixes):
        """Time in spans of these layers not nested in another of them."""
        return ms(sum(
            dur[i] for i, s in enumerate(spans)
            if s[0].startswith(prefixes) and not (s[3] >= 0 and spans[s[3]][0].startswith(prefixes))
        ))

    out = {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": ms(self_t["cli.main"]),
    }

    trials = attempts = accepted = 0
    shrink_s = 0.0
    for i, s in enumerate(spans):
        if s[0] != "axioms.falsify":
            continue
        checks = [k for k in kids[i] if spans[k][0].startswith("axioms.check_")]
        first = next((n for n, k in enumerate(checks) if spans[k][5] == "fail"), None)
        if first is None:
            trials += len(checks)
            continue
        trials += first + 1
        after = checks[first + 1:]
        attempts += len(after)
        accepted += sum(spans[k][5] == "fail" for k in after)
        shrink_s += ends[i] - ends[checks[first]]
    out.update({
        "axioms.trials": trials,
        "axioms.falsify.calls": calls["axioms.falsify"],
    })
    for a in _CHECKS:
        name = f"axioms.check_{a}"
        out[f"{name}.us"] = 1e6 * total[name] / calls[name] if calls[name] else 0.0
    out["axioms.check.self_ms"] = ms(sum(self_t[f"axioms.check_{a}"] for a in _CHECKS))
    out.update({
        "axioms.shrink.attempts": attempts,
        "axioms.shrink.accepted": accepted,
        "axioms.shrink.accept_ratio": accepted / attempts if attempts else 0.0,
        "axioms.shrink.ms": ms(shrink_s),
        "weighting.method_rank.calls": calls["weighting.method_rank"],
        "weighting.method_rank.self_ms": ms(self_t["weighting.method_rank"]),
        "weighting.em_weights.calls": calls["weighting.em_weights"],
        "weighting.em_weights.ms": ms(total["weighting.em_weights"]),
        "weighting.em_weights.noconv": sum(
            s[0] == "weighting.em_weights" and s[5] == "NoConvergence" for s in spans
        ),
    })
    by_n = defaultdict(list)
    for i, s in enumerate(spans):
        if s[0] == "weighting.method_weights":
            by_n[s[5]].append(dur[i])
    for n in (3, 6, 16, 64):
        out[f"weighting.method_weights.us_n{n}"] = (
            1e6 * sum(by_n[n]) / len(by_n[n]) if by_n[n] else 0.0
        )
    transform_names = [n for n in TARGETS if n.startswith("transforms.")]
    out.update({
        "core.pcm_new.calls": calls["core.PCM"],
        "core.pcm_new.ms": outer_ms(PCM_SPANS),
        "core.ranking_from_weights.calls": calls["core.ranking_from_weights"],
        "core.ranking_from_weights.ms": ms(total["core.ranking_from_weights"]),
        "core.pair_relation.calls": calls["core.pair_relation"],
        "core.pcm_parse.calls": calls["core.pcm_parse"],
        "core.pcm_parse.ms": ms(total["core.pcm_parse"]),
        "transforms.calls": sum(calls[n] for n in transform_names),
        "transforms.self_ms": ms(sum(self_t[n] for n in transform_names)),
        "registry.run_all.ms": ms(total["registry.run_all"]),
        "proofchain.ms": outer_ms(("proofchain.",)),
    })
    return out


def layer_units() -> dict:
    """Unit of each per-layer metric, in output order."""
    units = {}
    for name in layer_metrics([], None):
        if name.endswith(COUNT_SUFFIXES):
            units[name] = "count"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("ms"):
            units[name] = "ms"
        else:
            units[name] = "us"
    units["trace.overhead_ratio"] = "ratio"
    return units
