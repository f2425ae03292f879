"""Outside-in tracing of the curvebif layers for the benchmark's traced runs.

Tracer.install() replaces the functions each layer calls through -- module
attributes, the aliases other modules bound to them at import, and a few
methods -- with timing wrappers; Tracer.restore() puts every original back
and fails loudly if one is missing.  The program's source is not touched.

Spans (name, start, end, self time, parent, op id, notes) stay in memory
until the run ends.  A span's self time is its duration minus the time of
the calls it made to other traced functions.  The hottest leaves, the
nonlinearity f and the weight forms (about two calls per integrator step),
are counted and timed but not kept as spans, so memory stays bounded;
their time is still subtracted from their caller's self time.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TERMINALS = ("reached", "vertical", "u_zero", "cap", "failure")


def _note_march(args, kwargs, path):
    # _march(pb, x_start, u_start, theta_start, x_target, caps, collect, atol=None)
    collect = kwargs["collect"] if "collect" in kwargs else args[6]
    return {"terminal": path.terminal, "nfev": path.nfev, "mesh": len(path.xs) if collect else 0}


def _note_piece(args, kwargs, out):
    # _solve_piece(pb, side, caps, flux_theta_tol=1e-9, n_scan=96, s_hi=None)
    return {"n_scan": kwargs.get("n_scan", args[4] if len(args) > 4 else 96)}


# (curvebif module, class or None, attribute, span name, note(args, kwargs, result))
TARGETS = (
    ("model", "Nonlinearity", "__call__", "model.f", None),
    ("model", "Nonlinearity", "potential", "model.f", None),
    ("model", "ConstantForm", "value", "model.form", None),
    ("model", "PolynomialForm", "value", "model.form", None),
    ("model", "PowerForm", "value", "model.form", None),
    ("model", None, "curvature_residual", "model.residual", None),
    ("model", None, "neumann_balance", "model.residual", None),
    ("shoot", None, "curvature_residual", "model.residual", None),
    ("shoot", None, "neumann_balance", "model.residual", None),
    ("singular", None, "curvature_residual", "model.residual", None),
    ("shoot", None, "solve_ivp", "ivp", lambda a, k, out: {"nfev": out.nfev}),
    ("eigen", None, "solve_ivp", "ivp", lambda a, k, out: {"nfev": out.nfev}),
    ("asymptotics", None, "solve_ivp", "ivp", lambda a, k, out: {"nfev": out.nfev}),
    ("shoot", None, "_march", "shoot.march", _note_march),
    ("singular", None, "_march", "shoot.march", _note_march),
    ("shoot", None, "find_regular", "shoot.find_regular", None),
    ("shoot", None, "_bisect_height", "shoot.bisect", lambda a, k, out: {"root": out is not None}),
    ("shoot", "RegularSolution", "to_dict", "shoot.to_dict", None),
    ("quadrature", None, "criterion_integral", "quadrature.criterion", None),
    ("singular", None, "criterion_integral", "quadrature.criterion", None),
    ("eigen", None, "principal_neumann", "eigen.principal", None),
    ("eigen", None, "_shoot_linear", "eigen.linear_shot", None),
    ("singular", None, "solve_singular", "singular.solve", lambda a, k, out: {"built": hasattr(out, "jump")}),
    ("singular", None, "_solve_piece", "singular.piece", _note_piece),
    ("singular", None, "_flux_quadrature", "singular.flux", None),
    ("singular", None, "classify", "singular.classify", None),
    ("singular", None, "_find_witness", "singular.witness", None),
    ("singular", "SingularSolution", "to_dict", "singular.to_dict", None),
    ("continuation", None, "seed_from_lambda0", "continuation.seed", None),
    ("continuation", None, "solve_lambda_at_height", "continuation.seed_newton", None),
    ("continuation", None, "trace", "continuation.trace", lambda a, k, out: {"points": len(out.points)}),
    ("continuation", None, "_corrector", "continuation.corrector", lambda a, k, out: {"ok": out is not None}),
    ("continuation", None, "_tangent_fd", "continuation.tangent", None),
    ("continuation", None, "_point_diagnostics", "continuation.diag", None),
    ("varmin", None, "minimize_multistart", "varmin.multistart", None),
    ("varmin", None, "minimize", "varmin.minimize", lambda a, k, out: {"iterations": out[2]["iterations"]}),
    ("varmin", None, "functional_value", "varmin.value", None),
    ("varmin", None, "functional_gradient", "varmin.gradient", None),
    ("emit", None, "json_text", "emit.json", lambda a, k, out: {"bytes": len(out)}),
)
LEAVES = ("model.f", "model.form")
REENTRANT = ("emit.json",)  # json_text recurses through its module attribute; only the outer call is a span


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, self_s, parent index, op id, notes)
        self.leaves = {name: [0, 0.0] for name in LEAVES}  # calls, seconds
        self._stack = []  # open frames: [span index, name, start, child seconds]
        self._op = [None]
        self._busy = [False]  # inside a leaf: nested leaf calls are its own work
        self._saved = []

    def install(self):
        for mod_name, cls_name, attr, name, note in TARGETS:
            holder = importlib.import_module(f"curvebif.{mod_name}")
            if cls_name is not None:
                holder = getattr(holder, cls_name)
                original = holder.__dict__[attr]
            else:
                original = getattr(holder, attr)
            self._saved.append((holder, attr, original))
            setattr(holder, attr, self._wrap(original, name, note))

    def restore(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        broken = [
            f"{getattr(h, '__name__', h)}.{a}"
            for h, a, o in self._saved
            if (h.__dict__[a] if isinstance(h, type) else getattr(h, a)) is not o
        ]
        self._saved = []
        if broken:
            raise RuntimeError(f"traced attributes not restored: {broken}")

    @contextmanager
    def op(self, op_id):
        """Root span of one op; wrappers record only inside it."""
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, "op", perf_counter(), 0.0]
        self._stack.append(frame)
        self._op[0] = op_id
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._op[0] = None
            self.spans[idx] = ("op", frame[2], end, end - frame[2] - frame[3], -1, op_id, None)

    def _wrap(self, fn, name, note):
        spans, stack, op, busy = self.spans, self._stack, self._op, self._busy
        reentrant = name in REENTRANT

        if name in LEAVES:
            acc = self.leaves[name]

            def leaf(*args, **kwargs):
                if op[0] is None or busy[0]:
                    return fn(*args, **kwargs)
                busy[0] = True
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    busy[0] = False
                    stack[-1][3] += dt
                    acc[0] += 1
                    acc[1] += dt

            return leaf

        def span(*args, **kwargs):
            if op[0] is None or (reentrant and stack[-1][1] == name):
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            frame = [idx, name, perf_counter(), 0.0]
            stack.append(frame)
            returned, out = False, None
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2]
                parent[3] += dur
                notes = note(args, kwargs, out) if note is not None and returned else None
                spans[idx] = (name, frame[2], end, dur - frame[3], parent[0], op[0], notes)

        return span

    # -- aggregation ---------------------------------------------------------

    def metrics(self, n_ops, overhead_ratio):
        """Per-layer metrics; counts and seconds are per op, ratios are ratios."""
        spans = self.spans
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_by_layer = defaultdict(float)
        for name, start, end, self_s, _, _, _ in spans:
            calls[name] += 1
            incl[name] += end - start
            self_by_layer[name.split(".")[0]] += self_s

        def chain(i):
            names = []
            p = spans[i][4]
            while p >= 0:
                names.append(spans[p][0])
                p = spans[p][4]
            return names

        shots = defaultdict(int)
        terminal = defaultdict(int)
        nfev_shots = mesh = 0
        piece_seen = defaultdict(int)
        for i, (name, _, _, _, _, _, notes) in enumerate(spans):
            if name != "shoot.march" or notes is None:  # no notes: the shot raised
                continue
            shots["all"] += 1
            terminal[notes["terminal"]] += 1
            nfev_shots += notes["nfev"]
            mesh += notes["mesh"]
            up = chain(i)
            if "continuation.trace" in up:
                shots["trace"] += 1
            if "continuation.corrector" in up:
                shots["newton"] += 1
            ctx = next((n for n in up if n in ("shoot.bisect", "singular.piece", "shoot.find_regular")), None)
            if ctx == "shoot.bisect":
                shots["refine"] += 1
            elif ctx == "shoot.find_regular" and notes["mesh"] == 0:
                shots["scan"] += 1
            elif ctx == "singular.piece":
                # _solve_piece scans all n_scan heights before it bisects
                piece = spans[i][4]
                while spans[piece][0] != "singular.piece":
                    piece = spans[piece][4]
                piece_seen[piece] += 1
                role = "scan" if piece_seen[piece] <= spans[piece][6]["n_scan"] else "refine"
                shots[role] += 1
                shots["piece_" + role] += 1

        def notes_of(name):
            return [s[6] for s in spans if s[0] == name and s[6] is not None]

        def ratio(a, b):
            return a / b if b else 0.0

        per = 1.0 / n_ops
        brackets = notes_of("shoot.bisect")
        built = notes_of("singular.solve")
        corrector = notes_of("continuation.corrector")
        iterations = sum(n["iterations"] for n in notes_of("varmin.minimize"))
        points = sum(n["points"] for n in notes_of("continuation.trace"))
        ivp_nfev = sum(n["nfev"] for n in notes_of("ivp"))
        out = {
            "model.f_calls": self.leaves["model.f"][0] * per,
            "model.f_self_s": self.leaves["model.f"][1] * per,
            "model.form_calls": self.leaves["model.form"][0] * per,
            "model.form_self_s": self.leaves["model.form"][1] * per,
            "model.residual_s": incl["model.residual"] * per,
            "ivp.calls": calls["ivp"] * per,
            "ivp.nfev": ivp_nfev * per,
            "ivp.us_per_fev": 1e6 * ratio(incl["ivp"], ivp_nfev),
            "ivp.self_s": self_by_layer["ivp"] * per,
            "shoot.shots": shots["all"] * per,
            "shoot.fev_per_shot": ratio(nfev_shots, shots["all"]),
            "shoot.scan_shots": shots["scan"] * per,
            "shoot.refine_shots": shots["refine"] * per,
            "shoot.brackets": len(brackets) * per,
            "shoot.root_ratio": ratio(sum(n["root"] for n in brackets), len(brackets)),
        }
        for t in TERMINALS:
            out[f"shoot.terminal.{t}"] = terminal[t] * per
        out.update(
            {
                "shoot.mesh_points": mesh * per,
                "shoot.self_s": self_by_layer["shoot"] * per,
                "singular.scan_shots": shots["piece_scan"] * per,
                "singular.refine_shots": shots["piece_refine"] * per,
                "singular.construct_s": incl["singular.solve"] * per,
                "singular.witness_s": incl["singular.witness"] * per,
                "singular.flux_s": incl["singular.flux"] * per,
                "singular.built_ratio": ratio(sum(n["built"] for n in built), len(built)),
                "continuation.points": points * per,
                "continuation.corrector_calls": len(corrector) * per,
                "continuation.corrector_fail_ratio": ratio(sum(not n["ok"] for n in corrector), len(corrector)),
                "continuation.newton_shots": shots["newton"] * per,
                "continuation.shots_per_point": ratio(shots["trace"], points),
                "continuation.diag_s": incl["continuation.diag"] * per,
                "eigen.calls": calls["eigen.principal"] * per,
                "eigen.linear_shots": calls["eigen.linear_shot"] * per,
                "eigen.self_s": self_by_layer["eigen"] * per,
                "quadrature.criterion_calls": calls["quadrature.criterion"] * per,
                "quadrature.self_s": self_by_layer["quadrature"] * per,
                "varmin.iterations": iterations * per,
                "varmin.fvals": calls["varmin.value"] * per,
                "varmin.grads": calls["varmin.gradient"] * per,
                "varmin.fvals_per_iter": ratio(calls["varmin.value"], iterations),
                "varmin.self_s": self_by_layer["varmin"] * per,
                "emit.bytes": sum(n["bytes"] for n in notes_of("emit.json")) * per,
                "emit.self_s": self_by_layer["emit"] * per,
                "trace.overhead_ratio": overhead_ratio,
            }
        )
        return out

    def dump(self, path):
        """Write every span, one JSON array per line, and the leaf totals."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "self_s", "parent", "op", "notes"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"leaves": self.leaves}) + "\n")
