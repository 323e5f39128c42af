#!/usr/bin/env python3
"""Re-prove `epea_tool check --json` certificates from their own facts.

Two passes per document:

 1. Shape — validate against schemas/certificate.schema.json with the
    stdlib JSON-Schema subset in schema_subset.py (same directory).

 2. Semantics — rebuild the serialized signal graph and independently
    re-derive every claim the prover made:
      - cut certificates: each per-output reach set contains the output,
        holds no error site, and is closed under reverse edges through
        non-cut vertices (that closure IS the separation proof);
      - witness paths: start at a declared error site, end at a system
        output, follow real graph edges, and avoid every placement EA;
      - unwitnessed EAs: no predecessor of the EA is (reflexively)
        reachable from the error sites — and every placement EA with
        that property is listed (no silent omissions);
      - output dominators: removal BFS — deleting a listed dominator
        disconnects the output from every error-free entry, deleting any
        unlisted signal does not (exactness in both directions).

A certificate that passes this script is sound no matter what the C++
prover did: the checks only use the facts inside the document.

Usage: validate_certificate.py CERT.json [CERT.json ...]
                               [--schema SCHEMA.json]
Exit 0 when every document proves out; 1 with one line per violation.
"""

import json
import sys
from collections import deque
from pathlib import Path

from schema_subset import validate


class Graph:
    """The serialized signal graph, rebuilt for independent reachability."""

    def __init__(self, doc):
        g = doc["graph"]
        self.signals = set(g["signals"])
        self.sites = set(g["sites"])
        self.outputs = set(g["outputs"])
        self.succ = {s: set() for s in self.signals}
        self.pred = {s: set() for s in self.signals}
        for u, t in g["edges"]:
            self.succ[u].add(t)
            self.pred[t].add(u)

    def reach_from(self, seeds, blocked=frozenset()):
        """Reflexive forward reachability, blocked vertices removed."""
        seen = set()
        queue = deque(s for s in seeds if s not in blocked)
        seen.update(queue)
        while queue:
            u = queue.popleft()
            for t in self.succ[u]:
                if t not in seen and t not in blocked:
                    seen.add(t)
                    queue.append(t)
        return seen

    def reach_to(self, seeds, blocked=frozenset()):
        seen = set()
        queue = deque(s for s in seeds if s not in blocked)
        seen.update(queue)
        while queue:
            t = queue.popleft()
            for u in self.pred[t]:
                if u not in seen and u not in blocked:
                    seen.add(u)
                    queue.append(u)
        return seen


def check_cut(doc, graph, errors):
    cut = doc["cut"]
    placement = set(doc["placement"])
    for ea in doc["placement"]:
        if ea not in graph.signals:
            errors.append(f"placement EA {ea!r} is not a graph signal")

    if cut["is_cut"]:
        if "witness" in cut:
            errors.append("cut claims is_cut yet carries a witness")
        separations = cut.get("outputs", [])
        if {s["output"] for s in separations} != graph.outputs:
            errors.append("cut certificate does not cover every output")
        for sep in separations:
            o = sep["output"]
            if sep["in_cut"]:
                if o not in placement:
                    errors.append(f"{o}: in_cut claimed but not in placement")
                continue
            reach = set(sep["reach"])
            if o not in reach:
                errors.append(f"{o}: reach set omits the output itself")
            hit = reach & graph.sites
            if hit:
                errors.append(f"{o}: error site(s) {sorted(hit)} reach the output")
            # Closure under reverse edges through non-cut vertices: this
            # is what makes the reach set a proof rather than a claim.
            for t in reach:
                for u in graph.pred[t]:
                    if u not in placement and u not in reach:
                        errors.append(f"{o}: reach set not closed at {u} -> {t}")
            # And the set must be the true reverse reach, not an
            # overapproximation smuggling sites out of view.
            if reach != graph.reach_to([o], blocked=placement - {o}):
                errors.append(f"{o}: reach set is not the exact reverse reach")
    else:
        witness = cut.get("witness")
        if witness is None:
            errors.append("cut claims !is_cut yet carries no witness")
            return
        path = witness["path"]
        if not path:
            errors.append("witness path is empty")
            return
        if witness["site"] != path[0]:
            errors.append("witness site disagrees with the path head")
        if path[0] not in graph.sites:
            errors.append(f"witness path starts at non-site {path[0]!r}")
        if path[-1] not in graph.outputs:
            errors.append(f"witness path ends at non-output {path[-1]!r}")
        for v in path:
            if v in placement:
                errors.append(f"witness path crosses placement EA {v!r}")
        for u, t in zip(path, path[1:]):
            if t not in graph.succ.get(u, ()):
                errors.append(f"witness path uses phantom edge {u} -> {t}")


def check_unwitnessed(doc, graph, errors):
    from_sites = graph.reach_from(graph.sites)
    listed = set(doc["unwitnessed"])
    for ea in doc["placement"]:
        witnessed = any(p in from_sites for p in graph.pred.get(ea, ()))
        if witnessed and ea in listed:
            errors.append(f"unwitnessed lists {ea!r} but an error reaches it")
        if not witnessed and ea not in listed:
            errors.append(f"{ea!r} is provably unwitnessed but not listed")
    for ea in listed - set(doc["placement"]):
        errors.append(f"unwitnessed lists {ea!r} outside the placement")


def check_dominators(doc, graph, errors):
    # Dominators root at the system inputs regardless of site model:
    # v strictly dominates output o exactly when deleting v disconnects
    # o from every input (removal BFS), so the listed chain is checkable
    # — and refutable — one vertex at a time.
    entries = set(doc["graph"]["inputs"])
    for output, doms in doc["output_dominators"].items():
        if output not in graph.outputs:
            errors.append(f"output_dominators names non-output {output!r}")
            continue
        if output not in graph.reach_from(entries):
            if doms:
                errors.append(f"{output}: unreachable yet has dominators listed")
            continue
        listed = set(doms)
        for v in graph.signals - {output}:
            cuts_off = output not in graph.reach_from(entries - {v}, blocked={v})
            if cuts_off and v not in listed:
                errors.append(f"{output}: {v} is a dominator but unlisted")
            if not cuts_off and v in listed:
                errors.append(f"{output}: {v} listed but its removal leaves a path")


def semantic_errors(doc):
    errors = []
    graph = Graph(doc)
    check_cut(doc, graph, errors)
    check_unwitnessed(doc, graph, errors)
    check_dominators(doc, graph, errors)
    return errors


def main(argv):
    args = [a for a in argv if not a.startswith("--schema")]
    schema_path = Path(__file__).resolve().parent.parent / "schemas" / "certificate.schema.json"
    for a in argv:
        if a.startswith("--schema="):
            schema_path = Path(a.split("=", 1)[1])
    if not args:
        print("usage: validate_certificate.py CERT.json [...]", file=sys.stderr)
        return 1
    schema = json.loads(schema_path.read_text())

    failures = 0
    for name in args:
        try:
            doc = json.loads(Path(name).read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"{name}: unreadable: {e}", file=sys.stderr)
            failures += 1
            continue
        errors = []
        validate(doc, schema, "$", errors)
        if not errors:
            errors = semantic_errors(doc)
        for e in errors:
            print(f"{name}: {e}", file=sys.stderr)
            failures += 1
        if not errors:
            verdict = "cut" if doc["cut"]["is_cut"] else "witness"
            print(f"{name}: ok ({verdict})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
