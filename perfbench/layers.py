"""Per-layer metrics of a traced run, from the spans of ``spans.Tracer``.

Layers are the convring modules; a metric is named
``<module>.<function>.<stat>``.  ``calls`` and counts are per round (one
pass over the seed's inputs), so they repeat exactly on one seed.
``self_ms_per_call`` and ``share`` use self time (a span minus its traced
children); the other per-call and per-item times are inclusive.  Times
per call come from the run phase, or from the traced set-up when the
function runs only there (``cli.generate_code`` and ``files.load_code`` on
``stream``), or from the check pass (``decoder.oracle_decode``).  ``share``
is run-phase self time over the wall time of the traced rounds.  A function
a workload never calls reports 0.
"""

from __future__ import annotations

from spans import CHECK, RUN, SETUP

POLYMAT = (
    "invert_unimodular",
    "smith_form",
    "is_left_prime",
    "complete_to_unimodular",
    "lift_unimodular",
    "adjugate",
)
CODES = ("from_generator", "synthesize_parity_check", "is_observable", "preimage")

UNITS = {
    "calls": "count",
    "share": "frac",
    "late_over_early": "ratio",
    "self_ms_per_call": "ms",
    "ms_per_call": "ms",
    "us_per_call": "us",
    "us_per_window": "us",
    "ns_per_candidate": "ns",
    "branches_per_call": "count",
    "folds": "count",
    "fold_free_frac": "frac",
    "restarts": "count",
    "zp_ops": "ops",
    "zp_ops_per_window": "ops",
    "miss_frac": "frac",
    "overhead_frac": "frac",
    "failed_frac": "frac",
}


class _Spans:
    def __init__(self, tracer):
        self.spans = tracer.spans
        self.names = tracer.names
        self.selfs = tracer.self_times()
        self.groups: dict[tuple[str, int], list[int]] = {}
        for idx, span in enumerate(self.spans):
            self.groups.setdefault((self.names[span[0]], span[5]), []).append(idx)

    def run(self, name):
        return self.groups.get((name, RUN), [])

    def any_phase(self, name):
        for phase in (RUN, SETUP, CHECK):
            ids = self.groups.get((name, phase))
            if ids:
                return ids
        return []

    def self_sum(self, ids):
        return sum(self.selfs[i] for i in ids)

    def total_sum(self, ids):
        return sum(self.spans[i][2] - self.spans[i][1] for i in ids)

    def tags(self, ids):
        return [self.spans[i][6] for i in ids]


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer, rounds, run_wall: float, overhead: float, failed_frac: float) -> dict:
    s = _Spans(tracer)
    nr = len(rounds)
    out: dict[str, float] = {}

    def calls(name):
        out[f"{name}.calls"] = len(s.run(name)) / nr

    def share(name):
        out[f"{name}.share"] = s.self_sum(s.run(name)) / run_wall

    def per_call(name, stat, scale):
        ids = s.any_phase(name)
        spent = s.self_sum(ids) if stat.startswith("self_") else s.total_sum(ids)
        out[f"{name}.{stat}"] = spent / len(ids) * scale if ids else 0.0

    bws = "decoder.build_window_system"
    calls(bws)
    per_call(bws, "self_ms_per_call", 1e3)
    share(bws)
    ids = s.run(bws)
    early = [s.selfs[i] for i in ids if s.spans[i][6] < 0.25]
    late = [s.selfs[i] for i in ids if s.spans[i][6] >= 0.75]
    out[f"{bws}.late_over_early"] = _mean(late) / _mean(early) if early and late else 0.0

    calls("codes.parity_coeff")
    per_call("codes.parity_coeff", "us_per_call", 1e6)
    share("codes.parity_coeff")
    share("decoder.project_values")
    out["decoder.sequential_decode.restarts"] = rounds[0].restarts

    ld = "decoder.list_decode"
    calls(ld)
    per_call(ld, "self_ms_per_call", 1e3)
    share(ld)
    tags = s.tags(s.run(ld))
    out[f"{ld}.branches_per_call"] = _mean([b for b, _ in tags])
    out[f"{ld}.folds"] = sum(f for _, f in tags) / nr
    out[f"{ld}.fold_free_frac"] = _mean([f == 0 for _, f in tags])

    calls("linsolve.rref_mod_p")
    per_call("linsolve.rref_mod_p", "us_per_call", 1e6)
    share("linsolve.rref_mod_p")
    windows = rounds[0].windows
    out["linsolve.zp_ops_per_window"] = rounds[0].zp_ops / windows if windows else 0.0
    out["linsolve.zp_ops"] = rounds[0].zp_ops

    ml = "decoder.materialize_list"
    ids = s.any_phase(ml)
    produced = sum(s.tags(ids))
    out[f"{ml}.us_per_window"] = s.total_sum(ids) / produced * 1e6 if produced else 0.0
    share(ml)
    calls("decoder.window_equations_hold")
    per_call("decoder.window_equations_hold", "us_per_call", 1e6)

    for fn in POLYMAT:
        calls(f"polymat.{fn}")
        per_call(f"polymat.{fn}", "ms_per_call", 1e3)
        share(f"polymat.{fn}")
    for fn in CODES:
        per_call(f"codes.{fn}", "ms_per_call", 1e3)
        share(f"codes.{fn}")

    for name in ("metrics.column_distance", "decoder.oracle_decode"):
        ids = s.any_phase(name)
        candidates = sum(s.tags(ids))
        out[f"{name}.ns_per_candidate"] = s.total_sum(ids) / candidates * 1e9 if candidates else 0.0
    per_call("metrics.erasure_capability", "ms_per_call", 1e3)
    share("metrics.erasure_capability")
    share("linsolve.rank_mod_p")

    gen = "cli.generate_code"
    per_call(gen, "ms_per_call", 1e3)
    gen_ids = s.any_phase(gen)
    gen_set = set(gen_ids)
    tries = sum(1 for i in s.any_phase("codes.from_generator") if s.spans[i][3] in gen_set)
    out[f"{gen}.miss_frac"] = 1 - len(gen_ids) / tries if tries else 0.0
    per_call("files.load_code", "ms_per_call", 1e3)

    out["trace.overhead_frac"] = overhead
    out["bench.failed_frac"] = failed_frac
    return {name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[1]]} for name, value in out.items()}
