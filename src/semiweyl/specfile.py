"""Declarative verification-spec files.

A spec file is a plain text tree of ``[section]`` headers and ``key = value``
lines (``#`` starts a comment; a key appears at most once in a section,
except the repeated ``add`` lines of ``[connection]``).  It
describes a chart, a metric / one-form / connection structure, an optional
transformation, optional submanifold / lightlike / affine blocks, a run
configuration, and the list of named checks to execute with their expected
outcomes.

Sections and keys
-----------------
``[manifold]``
    ``coords = x, y``            coordinate names
    ``domain = 0.2 .. 1.0, -1 .. 1``   one ``lo .. hi`` range per coordinate
``[metric]``
    one of: ``type = euclidean``; ``diag = e1, e2, ...``;
    entries ``g_i_j = expr`` (1-based, symmetric fill, missing entries 0)
``[eta]``
    ``components = e1, e2, ...`` (optional section; defaults to 0)
``[transform]``
    ``phi = expr`` and ``psi = expr``
``[connection]``
    ``base = levi_civita | flat | expressions``
    with ``base = expressions``: entries ``gamma_k_i_j = expr`` (1-based)
    repeated ``add = ...`` lines, each one of
    ``eta_tensor_I`` (uses the ``[eta]`` one-form),
    ``I_tensor_dphi(expr)``, ``g_tensor_gradient(expr)``
``[submanifold]`` / ``[lightlike]``
    ``coords``, ``domain`` (as in ``[manifold]``, one dimension lower),
    ``map = c1, c2, ...`` (one expression per ambient coordinate)
``[affine]``
    ``coords``, ``domain``, then either ``immersion = c1, ..., c_{n+1}``
    or ``omega_row_i = e1, ..., en`` entries; ``xi = c1, ..., c_{n+1}``;
    optional ``psi = expr`` for the transversal-rescaling checks
``[run]``
    ``samples``, ``seed``, ``tol``, ``min_valid_points``
``[checks]``
    ``name = pass | fail | skip`` (bare ``name`` means ``pass``)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expressions import ExpressionSyntaxError, UnknownSymbolError
from .fields import (
    Chart,
    ConnectionField,
    MetricField,
    OneFormField,
    ScalarField,
    eta_tensor_id,
    g_tensor_vector,
    id_tensor_eta,
    sum_tensors,
)
from .sampling import PRIMES
from .structures import Structure
from .tensor import gradient, levi_civita
from .verdicts import RunConfig

__all__ = ["SpecError", "VerificationSpec", "load_spec", "parse_sections"]


class SpecError(Exception):
    """Validation failure carrying *all* collected problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class _Entry:
    key: str
    value: str
    line: int


def parse_sections(text):
    """Parse the raw key-value tree: ``{section: [_Entry, ...]}``.

    Raises :class:`SpecError` on malformed lines, reporting every one.
    """
    sections = {}
    errors = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                errors.append(f"line {lineno}: malformed section header {raw.strip()!r}")
                current = None
                continue
            name = line[1:-1].strip().lower()
            current = sections.setdefault(name, [])
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any [section]: {raw.strip()!r}")
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            current.append(_Entry(key.strip(), value.strip(), lineno))
        else:
            current.append(_Entry(line.strip(), "", lineno))
    if errors:
        raise SpecError(errors)
    return sections


# the sections that need a [manifold], and every section
_AMBIENT_SECTIONS = ("metric", "eta", "connection", "transform", "submanifold", "lightlike")
_KNOWN_SECTIONS = {"manifold", *_AMBIENT_SECTIONS, "affine", "run", "checks"}

_EXPECTATIONS = ("pass", "fail", "skip")


@dataclass
class VerificationSpec:
    """A fully validated verification problem."""

    path: str
    chart: Chart
    structure: Structure
    transform: object | None
    embedding: object | None  # non-degenerate submanifold
    lightlike_embedding: object | None
    affine: object | None
    affine_psi: ScalarField | None
    config: RunConfig
    blocks: frozenset  # the blocks it declares, by their names in registry.BLOCKS
    checks: list = field(default_factory=list)  # [(name, expectation)]


class _Collector:
    def __init__(self):
        self.errors = []

    def err(self, entry, msg):
        self.errors.append(msg if entry is None else f"line {entry.line}: {msg}")


def _single(entries, key):
    return next((e for e in entries if e.key == key), None)


def _check_repeats(sections, col):
    """Every key but ``add`` at most once per section, and so every check
    at most once in ``[checks]``."""
    for name, entries in sections.items():
        first = {}
        for e in entries:
            if e.key != "add" and first.setdefault(e.key, e) is not e:
                what = f"check {e.key!r} is listed" if name == "checks" else f"key {e.key!r} appears"
                col.err(e, f"{what} more than once in [{name}], on lines {first[e.key].line} and {e.line}")


def _split_list(value):
    return [part.strip() for part in value.split(",")] if value.strip() else []


def _parse_domain(entry, names, col):
    lo, hi = [], []
    parts = _split_list(entry.value)
    if len(parts) != len(names):
        col.err(entry, f"domain needs one 'lo .. hi' range per coordinate ({len(names)} expected)")
        return None
    for part in parts:
        if ".." not in part:
            col.err(entry, f"range {part!r} must look like 'lo .. hi'")
            return None
        a, _, b = part.partition("..")
        try:
            a, b = float(a), float(b)
        except ValueError:
            col.err(entry, f"range {part!r} has non-numeric endpoints")
            return None
        if not a < b:
            col.err(entry, f"range {part!r} is empty")
            return None
        lo.append(a)
        hi.append(b)
    return tuple(lo), tuple(hi)


def _parse_chart(entries, col, section):
    ce = _single(entries, "coords")
    de = _single(entries, "domain")
    if ce is None or de is None:
        col.err(None, f"[{section}] needs both 'coords' and 'domain'")
        return None
    names = tuple(_split_list(ce.value))
    if not names or any(not n.isidentifier() for n in names):
        col.err(ce, "coords must be comma-separated identifiers")
        return None
    if len(set(names)) != len(names):
        col.err(ce, "coordinate names must be distinct")
        return None
    if len(names) > len(PRIMES):
        col.err(ce, f"a chart has at most {len(PRIMES)} coordinates to sample, got {len(names)}")
        return None
    box = _parse_domain(de, names, col)
    return None if box is None else Chart(names, *box)


def _parse_expr(chart, entry, col, label):
    try:
        return chart.parse(entry.value)
    except (ExpressionSyntaxError, UnknownSymbolError) as exc:
        col.err(entry, f"{label}: {exc}")
        return None


def _parse_expr_list(chart, entry, col, label, count):
    parts = _split_list(entry.value)
    if len(parts) != count:
        col.err(entry, f"{label} needs {count} comma-separated expressions, got {len(parts)}")
        return None
    out = [_parse_expr(chart, _Entry(entry.key, part, entry.line), col, f"{label}[{i}]") for i, part in enumerate(parts)]
    return None if None in out else out


def _parse_indexed(entries, prefix, rank, n, col):
    """Collect ``prefix_i_j`` / ``prefix_k_i_j`` entries into an index map."""
    out = {}
    for e in entries:
        if not e.key.startswith(prefix + "_"):
            continue
        parts = e.key[len(prefix) + 1 :].split("_")
        if len(parts) != rank or not all(p.isdigit() for p in parts):
            col.err(e, f"expected {rank} 1-based indices after '{prefix}_'")
            continue
        idx = tuple(int(p) - 1 for p in parts)
        if any(i < 0 or i >= n for i in idx):
            col.err(e, f"index out of range 1..{n} in {e.key!r}")
            continue
        out[idx] = e
    return out


def _build_metric(chart, entries, col):
    n = chart.dim
    te = _single(entries, "type")
    de = _single(entries, "diag")
    grid_entries = _parse_indexed(entries, "g", 2, n, col)
    picked = sum(x is not None and x for x in (te is not None, de is not None, bool(grid_entries)))
    if picked != 1:
        col.err(te or de, "[metric] needs exactly one of 'type = euclidean', 'diag = ...', or 'g_i_j = ...' entries")
        return None
    if te is not None:
        if te.value != "euclidean":
            col.err(te, f"unknown metric type {te.value!r} (only 'euclidean')")
            return None
        return MetricField.euclidean(chart)
    if de is not None:
        es = _parse_expr_list(chart, de, col, "metric diag", n)
        return None if es is None else MetricField.from_diagonal(chart, es)
    grid = [["0"] * n for _ in range(n)]
    seen = {}
    ok = True
    for (i, j), e in grid_entries.items():
        if _parse_expr(chart, e, col, f"g_{i + 1}_{j + 1}") is None:
            ok = False
        elif seen.get((j, i), e.value) != e.value:
            col.err(e, f"g_{i + 1}_{j + 1} conflicts with g_{j + 1}_{i + 1}; the metric must be symmetric")
            ok = False
        else:
            seen[(i, j)] = grid[i][j] = grid[j][i] = e.value
    return MetricField.from_expressions(chart, grid) if ok else None


def _build_eta(chart, entries, col):
    if not entries:
        return OneFormField.from_expressions(chart, ["0"] * chart.dim)
    ce = _single(entries, "components")
    if ce is None:
        col.err(None, "[eta] needs 'components = e1, ..., en'")
        return None
    es = _parse_expr_list(chart, ce, col, "eta components", chart.dim)
    return None if es is None else OneFormField.from_expressions(chart, es)


def _build_connection(chart, entries, g, eta, col):
    n = chart.dim
    be = _single(entries, "base")
    base_name = be.value if be is not None else "levi_civita"
    if base_name == "levi_civita":
        if g is None:
            return None
        conn = levi_civita(g)
    elif base_name == "flat":
        conn = ConnectionField.flat(chart)
    elif base_name == "expressions":
        grid_entries = _parse_indexed(entries, "gamma", 3, n, col)
        grid = [[["0"] * n for _ in range(n)] for _ in range(n)]
        for (k, i, j), e in grid_entries.items():
            grid[k][i][j] = _parse_expr(chart, e, col, f"gamma_{k + 1}_{i + 1}_{j + 1}")
        if any(None in row for plane in grid for row in plane):
            return None
        conn = ConnectionField.from_expressions(chart, grid)
    else:
        col.err(be, f"unknown connection base {base_name!r} (levi_civita | flat | expressions)")
        return None

    tensors = []
    for e in entries:
        if e.key != "add":
            continue
        spec = e.value
        if spec == "eta_tensor_I":
            if eta is None:
                col.err(e, "eta_tensor_I requires an [eta] section")
                continue
            tensors.append(eta_tensor_id(chart, eta))
        elif spec.startswith("I_tensor_dphi(") and spec.endswith(")"):
            inner = spec[len("I_tensor_dphi(") : -1]
            expr = _parse_expr(chart, _Entry(e.key, inner, e.line), col, "I_tensor_dphi argument")
            if expr is not None:
                tensors.append(id_tensor_eta(chart, OneFormField.d(chart, ScalarField.from_expression(chart, expr))))
        elif spec.startswith("g_tensor_gradient(") and spec.endswith(")"):
            inner = spec[len("g_tensor_gradient(") : -1]
            expr = _parse_expr(chart, _Entry(e.key, inner, e.line), col, "g_tensor_gradient argument")
            if expr is not None and g is not None:
                tensors.append(g_tensor_vector(g, gradient(g, ScalarField.from_expression(chart, expr))))
        else:
            col.err(e, f"unknown connection modifier {spec!r}")
    if tensors:
        conn = conn.add_tensor(sum_tensors(*tensors) if len(tensors) > 1 else tensors[0])
    return conn


def _build_embedding(chart, entries, col, section):
    from .hypersurfaces import EmbeddingMap

    sub = _parse_chart(entries, col, section)
    if sub is None:
        return None
    if sub.dim != chart.dim - 1:
        col.err(None, f"[{section}] must have dimension {chart.dim - 1} (one below the ambient)")
        return None
    me = _single(entries, "map")
    if me is None:
        col.err(None, f"[{section}] needs 'map = c1, ..., c{chart.dim}'")
        return None
    es = _parse_expr_list(sub, me, col, f"{section} map", chart.dim)
    return None if es is None else EmbeddingMap(sub, chart, es)


def _build_affine(entries, col):
    from .affine import AffineDistribution

    sub = _parse_chart(entries, col, "affine")
    if sub is None:
        return None, None
    n = sub.dim
    ie = _single(entries, "immersion")
    xe = _single(entries, "xi")
    if xe is None:
        col.err(None, "[affine] needs 'xi = c1, ..., c_{n+1}'")
        return None, None
    xi = _parse_expr_list(sub, xe, col, "affine xi", n + 1)
    dist = None
    if ie is not None:
        comps = _parse_expr_list(sub, ie, col, "affine immersion", n + 1)
        if comps is not None and xi is not None:
            dist = AffineDistribution.from_immersion(sub, comps, xi)
    else:
        rows = _parse_indexed(entries, "omega_row", 1, n + 1, col)
        if len(rows) != n + 1:
            col.err(None, f"[affine] needs either 'immersion' or all omega_row_1..omega_row_{n + 1} entries")
            return None, None
        omega = [None] * (n + 1)
        for (i,), e in rows.items():
            omega[i] = _parse_expr_list(sub, e, col, f"omega_row_{i + 1}", n)
        if xi is not None and None not in omega:
            dist = AffineDistribution.from_expressions(sub, omega, xi)
    pe = _single(entries, "psi")
    psi = None if pe is None else _parse_expr(sub, pe, col, "affine psi")
    return dist, None if psi is None else ScalarField.from_expression(sub, psi)


_RUN_FIELDS = {
    "samples": int,
    "seed": int,
    "tol": float,
    "min_valid_points": int,
}


def _build_config(entries, col):
    kw = {}
    for e in entries:
        caster = _RUN_FIELDS.get(e.key)
        if caster is None:
            col.err(e, f"unknown run option {e.key!r}")
            continue
        try:
            kw[e.key] = caster(e.value)
        except ValueError:
            col.err(e, f"run option {e.key!r} needs a {caster.__name__} value, got {e.value!r}")
    try:
        return RunConfig(**kw)
    except ValueError as exc:
        col.err(None, f"[run] {exc}")
        return RunConfig()


def _build_checks(entries, col):
    from .registry import REGISTRY

    out = []
    for e in entries:
        name = e.key
        expectation = e.value or "pass"
        if name not in REGISTRY:
            col.err(e, f"unknown check {name!r}; known checks: {', '.join(sorted(REGISTRY))}")
            continue
        if expectation not in _EXPECTATIONS:
            col.err(e, f"expectation for {name!r} must be one of {_EXPECTATIONS}, got {expectation!r}")
            continue
        out.append((name, expectation))
    if not out and not col.errors:
        col.err(None, "[checks] lists no checks")
    return out


def load_spec(path):
    """Load and fully validate a spec file.

    Raises :class:`SpecError` carrying every problem found (parse problems,
    bad expressions, unknown checks, and checks whose required blocks are
    missing) rather than stopping at the first.
    """
    from .conformal import TransformData
    from .registry import BLOCKS, REGISTRY

    with open(path, encoding="utf-8") as fh:
        sections = parse_sections(fh.read())
    col = _Collector()
    for name in sections:
        if name not in _KNOWN_SECTIONS:
            col.err(None, f"unknown section [{name}]")
    _check_repeats(sections, col)

    chart = None
    needs_manifold = any(name in sections for name in _AMBIENT_SECTIONS)
    if "manifold" not in sections:
        if needs_manifold or "affine" not in sections:
            col.err(None, "a [manifold] section is required")
    else:
        chart = _parse_chart(sections["manifold"], col, "manifold")

    structure = transform = embedding = lightlike_embedding = affine = affine_psi = None
    if chart is not None:
        if "metric" not in sections:
            col.err(None, "a [metric] section is required")
            g = None
        else:
            g = _build_metric(chart, sections["metric"], col)
        eta = _build_eta(chart, sections.get("eta", []), col)
        conn = _build_connection(chart, sections.get("connection", []), g, eta, col)
        if g is not None and eta is not None and conn is not None:
            structure = Structure(chart, g, eta, conn)
        if "transform" in sections:
            pe = _single(sections["transform"], "phi")
            se = _single(sections["transform"], "psi")
            if pe is None or se is None:
                col.err(None, "[transform] needs both 'phi' and 'psi'")
            else:
                phi = _parse_expr(chart, pe, col, "transform phi")
                psi = _parse_expr(chart, se, col, "transform psi")
                if phi is not None and psi is not None:
                    transform = TransformData(ScalarField.from_expression(chart, phi), ScalarField.from_expression(chart, psi))
        if "submanifold" in sections:
            embedding = _build_embedding(chart, sections["submanifold"], col, "submanifold")
        if "lightlike" in sections:
            lightlike_embedding = _build_embedding(chart, sections["lightlike"], col, "lightlike")
    if "affine" in sections:
        affine, affine_psi = _build_affine(sections["affine"], col)

    config = _build_config(sections.get("run", []), col)
    checks = _build_checks(sections.get("checks", []), col)

    blocks = {
        # a chart or metric that fails to parse has its own error
        "structure": "manifold" in sections and "metric" in sections,
        "transform": "transform" in sections,
        "submanifold": "submanifold" in sections,
        "lightlike": "lightlike" in sections,
        "affine": "affine" in sections,
        "affine_psi": affine_psi is not None,
    }
    for name, _expectation in checks:
        for need in REGISTRY[name].requires:
            if not blocks.get(need, False):
                col.err(None, f"check {name!r} requires a {BLOCKS[need]} block")

    if col.errors:
        raise SpecError(col.errors)

    return VerificationSpec(
        path=str(path),
        chart=chart,
        structure=structure,
        transform=transform,
        embedding=embedding,
        lightlike_embedding=lightlike_embedding,
        affine=affine,
        affine_psi=affine_psi,
        config=config,
        blocks=frozenset(name for name, declared in blocks.items() if declared),
        checks=checks,
    )
