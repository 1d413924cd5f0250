"""Loading and saving workflow sets and resource catalogs.

Two on-disk formats are supported:

* the native JSON format (round-trip safe, used by the experiment runner),
* a subset of the Pegasus DAX 2.x/3.x XML dialect, enough for the classic
  benchmark workflows: job elements with a runtime attribute become tasks,
  child/parent elements become edges, and transfer sizes are aggregated per
  (parent, child) pair from the file sizes the parent writes and the child
  reads.

Schema problems raise FormatError naming the offending field or element.
Every JSON file the package reads goes through `read_json`, and every one
it writes through `write_json`.
"""

from __future__ import annotations

import json
import math
import sys
import xml.etree.ElementTree as ET
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .model import Edge, Resource, ResourceCatalog, Task, Workflow, WorkflowSet, validate

DEFAULT_CPU_CAPACITIES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_BANDWIDTH = 10.0
PRICE_EXPONENT = 1.2


class FormatError(Exception):
    """A file does not conform to the expected schema."""


def _require(mapping, key, where, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise FormatError(f"{where}: missing field {key!r}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise FormatError(f"{where}.{key}: expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _number(mapping, key, where, minimum=None, strict=False):
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}.{key}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise FormatError(f"{where}.{key}: must be finite, got {value}")
    if minimum is not None:
        if strict and not value > minimum:
            raise FormatError(f"{where}.{key}: must be > {minimum}, got {value}")
        if not strict and value < minimum:
            raise FormatError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


# ---------------------------------------------------------------------------
# JSON text


def write_json(path, doc) -> None:
    """Write `doc` to `path` as the bytes of `json.dumps(doc, indent=2)` and a
    newline.

    Before Python 3.13, json encodes indented text in pure Python, one
    generator step per value. `_indented` formats values of exact type str,
    int, finite float, list and str-keyed dict itself, and the result
    tree's two bulk shapes a whole list at a time; json encodes everything
    else, and its text is indented deeper by replacing its line breaks,
    which is exact because json escapes every line break inside a string.
    From 3.13 on, json's C encoder takes `indent` and is the faster of the
    two, so it is used there. `_indented` goes when `requires-python`
    reaches 3.13.
    """
    text = json.dumps(doc, indent=2) if sys.version_info >= (3, 13) else _indented(doc)
    Path(path).write_text(text + "\n")


def read_json(path, error: type[Exception] = FormatError):
    """The document in the JSON file at `path`. Text that is not JSON, or
    bytes that do not decode, raise `error` naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


_INDENT = "  "
_NUMBERS = frozenset((int, float))


def _indented(x, level: int = 0, markers: set | None = None) -> str:
    """The text of `json.dumps(x, indent=2)` nested `level` indents deep, with
    json's errors: TypeError for a value or key it cannot encode, ValueError
    for a container that holds itself.

    Dispatch is on the exact type. Strings, ints and finite floats are
    formatted here; a non-empty list or a dict with str keys is recursed
    into, with rows of numbers (`_matrix`) and flat dicts with equal keys
    (`_table`) formatted a list at a time. json encodes any other value
    (bools, None, nan and the infinities, subclasses, tuples, other keys,
    empty containers, what it refuses) at level 0, and each of its line
    breaks gets the deeper indent. That is its text at this level, because
    json escapes every line break inside a string, so each raw one comes
    right before an indent."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return int.__repr__(x)
    if kind is float and math.isfinite(x):
        return float.__repr__(x)
    if not ((kind is list and x) or (kind is dict and set(map(type, x)) == {str})):
        return json.dumps(x, indent=2).replace("\n", "\n" + _INDENT * level)
    inner = "\n" + _INDENT * (level + 1)
    closing = "\n" + _INDENT * level + ("]" if kind is list else "}")
    if kind is list:
        kinds = set(map(type, x))
        body = _matrix(x, inner) if kinds == {list} else _table(x, inner) if kinds == {dict} else None
        if body is not None:
            return "[" + inner + body + closing
    markers = set() if markers is None else markers
    if id(x) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(x))
    if kind is dict:
        parts = [encode_basestring_ascii(k) + ": " + _indented(v, level + 1, markers) for k, v in x.items()]
    else:
        parts = [_indented(v, level + 1, markers) for v in x]
    markers.remove(id(x))
    return ("[" if kind is list else "{") + inner + ("," + inner).join(parts) + closing


def _matrix(rows: list, inner: str) -> str | None:
    """Non-empty rows of numbers through one format; None otherwise."""
    if not all(rows):
        return None
    flat = tuple(chain.from_iterable(rows))
    if not set(map(type, flat)) <= _NUMBERS:
        return None
    inner2 = inner + _INDENT
    shapes = {n: "[" + inner2 + ("," + inner2).join(["%r"] * n) + inner + "]" for n in set(map(len, rows))}
    text = ("," + inner).join(map(shapes.__getitem__, map(len, rows))) % flat
    return text if "n" not in text else None


def _table(dicts: list, inner: str) -> str | None:
    """Dicts with the same str keys in the same order, each key's values
    all ints, all finite floats or all strings, through one format; None
    otherwise. A dict holds no key twice, so keys
    that chain into the first dict's keys repeated are each dict's keys."""
    keys = list(dicts[0])
    if not keys or set(map(type, keys)) != {str} or list(chain.from_iterable(dicts)) != keys * len(dicts):
        return None
    values = list(chain.from_iterable(map(dict.values, dicts)))
    inner2 = inner + _INDENT
    fields = []
    for j, key in enumerate(keys):
        column = values[j :: len(keys)]
        types = set(map(type, column))
        if types == {int} or (types == {float} and math.isfinite(sum(column))):
            spec = "%r"
        elif types == {str}:
            spec = "%s"
            values[j :: len(keys)] = map(encode_basestring_ascii, column)
        else:
            return None
        fields.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + spec)
    row = "{" + inner2 + ("," + inner2).join(fields) + inner + "}"
    return ("," + inner).join([row] * len(dicts)) % tuple(values)


# ---------------------------------------------------------------------------
# native JSON workflow format


def workflow_set_to_dict(ws: WorkflowSet) -> dict:
    return {
        "workflows": [
            {
                "id": w.id,
                "tasks": [{"id": t.id, "workload": t.workload} for t in w.tasks],
                "edges": [{"src": e.src, "dst": e.dst, "data_size": e.data_size} for e in w.edges],
            }
            for w in ws.workflows
        ]
    }


def workflow_set_from_dict(doc: dict, where: str = "document") -> WorkflowSet:
    entries = _require(doc, "workflows", where, list)
    workflows = []
    for wi, wdoc in enumerate(entries):
        wwhere = f"{where}.workflows[{wi}]"
        wid = _require(wdoc, "id", wwhere, str)
        task_ids = set()
        tasks = []
        for ti, tdoc in enumerate(_require(wdoc, "tasks", wwhere, list)):
            twhere = f"{wwhere}.tasks[{ti}]"
            tid = _require(tdoc, "id", twhere, str)
            workload = _number(tdoc, "workload", twhere, minimum=0.0)
            tasks.append(Task(tid, wid, workload))
            task_ids.add(tid)
        edges = []
        for ei, edoc in enumerate(_require(wdoc, "edges", wwhere, list)):
            ewhere = f"{wwhere}.edges[{ei}]"
            src = _require(edoc, "src", ewhere, str)
            dst = _require(edoc, "dst", ewhere, str)
            for endpoint, key in ((src, "src"), (dst, "dst")):
                if endpoint not in task_ids:
                    raise FormatError(
                        f"{ewhere}.{key}: task {endpoint!r} is not defined in workflow {wid!r} "
                        "(cross-workflow or unknown endpoint)"
                    )
            edges.append(Edge(src, dst, _number(edoc, "data_size", ewhere, minimum=0.0)))
        workflows.append(Workflow(wid, tasks, edges))
    ws = WorkflowSet(workflows)
    violations = validate(ws)
    if violations:
        raise FormatError(f"{where}: " + "; ".join(violations))
    return ws


def save_native(ws: WorkflowSet, path) -> None:
    write_json(path, workflow_set_to_dict(ws))


def load_native(path) -> WorkflowSet:
    path = Path(path)
    return workflow_set_from_dict(read_json(path), where=str(path))


# ---------------------------------------------------------------------------
# resource catalogs


def resources_to_dict(catalog: ResourceCatalog) -> dict:
    return {
        "resources": [
            {
                "id": r.id,
                "cpu": r.cpu_capacity,
                "bandwidth": r.bandwidth,
                "cost_per_interval": r.cost_per_interval,
                "billing_interval": r.billing_interval,
            }
            for r in catalog
        ]
    }


def resources_from_dict(doc: dict, where: str = "document") -> ResourceCatalog:
    entries = _require(doc, "resources", where, list)
    resources = []
    for ri, rdoc in enumerate(entries):
        rwhere = f"{where}.resources[{ri}]"
        resources.append(
            Resource(
                id=_require(rdoc, "id", rwhere, str),
                cpu_capacity=_number(rdoc, "cpu", rwhere, minimum=0.0, strict=True),
                bandwidth=_number(rdoc, "bandwidth", rwhere, minimum=0.0, strict=True),
                cost_per_interval=_number(rdoc, "cost_per_interval", rwhere, minimum=0.0, strict=True),
                billing_interval=_number(rdoc, "billing_interval", rwhere, minimum=0.0, strict=True),
            )
        )
    try:
        return ResourceCatalog(tuple(resources))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def save_resources(catalog: ResourceCatalog, path) -> None:
    write_json(path, resources_to_dict(catalog))


def load_resources(path) -> ResourceCatalog:
    path = Path(path)
    return resources_from_dict(read_json(path), where=str(path))


def default_catalog() -> ResourceCatalog:
    """Six machine types doubling in capacity, price growing slightly
    superlinearly (capacity^1.2), uniform bandwidth, unit billing interval."""
    resources = tuple(
        Resource(
            id=f"r{i}",
            cpu_capacity=cu,
            bandwidth=DEFAULT_BANDWIDTH,
            cost_per_interval=cu**PRICE_EXPONENT,
            billing_interval=1.0,
        )
        for i, cu in enumerate(DEFAULT_CPU_CAPACITIES)
    )
    return ResourceCatalog(resources)


# ---------------------------------------------------------------------------
# DAX


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _dax_number(text: str, what: str, path: Path, jid: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{path}: job {jid!r} has {what} {text!r}, not a finite number")
    return value


def load_dax(path, id_prefix: str = "") -> Workflow:
    """Read one workflow from a Pegasus DAX file.

    Task workload comes from the job's runtime attribute (required). Edge
    data size is the summed size of files the parent declares as output and
    the child declares as input; a child/parent pair without shared files
    still yields an edge with data size 0. id_prefix is prepended to every
    job id, which keeps ids unique when several DAX files are combined into
    one workflow set.
    """
    path = Path(path)
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise FormatError(f"{path}: malformed XML: {exc}") from exc
    root = tree.getroot()
    wid = root.attrib.get("name") or path.stem

    runtimes: dict[str, float] = {}
    outputs: dict[str, dict[str, float]] = {}
    inputs: dict[str, dict[str, float]] = {}
    order: list[str] = []
    for job in root:
        if _local(job.tag) != "job":
            continue
        jid = job.attrib.get("id")
        if not jid:
            raise FormatError(f"{path}: job element without id")
        jid = id_prefix + jid
        if jid in runtimes:
            raise FormatError(f"{path}: duplicate job id {jid!r}")
        runtime = job.attrib.get("runtime")
        if runtime is None:
            raise FormatError(f"{path}: job {jid!r} has no runtime attribute")
        runtimes[jid] = _dax_number(runtime, "runtime", path, jid)
        order.append(jid)
        outputs[jid] = {}
        inputs[jid] = {}
        for uses in job:
            if _local(uses.tag) != "uses":
                continue
            fname = uses.attrib.get("file") or uses.attrib.get("name")
            if not fname:
                continue
            size = _dax_number(uses.attrib.get("size", "0"), "file size", path, jid)
            link = uses.attrib.get("link")
            if link == "output":
                outputs[jid][fname] = outputs[jid].get(fname, 0.0) + size
            elif link == "input":
                inputs[jid][fname] = inputs[jid].get(fname, 0.0) + size

    edges: list[Edge] = []
    for child in root:
        if _local(child.tag) != "child":
            continue
        cref = id_prefix + child.attrib.get("ref", "")
        if cref not in runtimes:
            raise FormatError(f"{path}: child element references unknown job {child.attrib.get('ref')!r}")
        for parent in child:
            if _local(parent.tag) != "parent":
                continue
            pref = id_prefix + parent.attrib.get("ref", "")
            if pref not in runtimes:
                raise FormatError(f"{path}: parent element references unknown job {parent.attrib.get('ref')!r}")
            size = sum(s for f, s in outputs[pref].items() if f in inputs[cref])
            edges.append(Edge(pref, cref, size))

    tasks = [Task(jid, wid, runtimes[jid]) for jid in order]
    w = Workflow(wid, tasks, edges)
    violations = validate(WorkflowSet([w]))
    if violations:
        raise FormatError(f"{path}: " + "; ".join(violations))
    return w
