#!/usr/bin/env python3
"""Static layering check: includes must follow the declared layer graph.

The architecture is the layer ordering in src/CMakeLists.txt: support and
the wire-size layer at the base, the DES kernel on support, the simulation core
composing them, and the application layers (lu, jacobi, malleable, sched,
svc, experiments) on top.  Each layer declares what it may use via
`dps_add_layer(<name> DEPS <layers...>)`, but the compiler only enforces
that for *linked* symbols — a header-only upward include (say sched/
reaching into svc/) compiles fine and silently inverts the architecture.

This script closes that hole:

1. parses every src/*/CMakeLists.txt `dps_add_layer` declaration into a
   dependency graph and rejects cycles (the graph must topologically
   sort, i.e. the DEPS edges must agree with *some* linear layer order);
2. scans every src/<layer>/*.{hpp,cpp} for quoted layer-qualified
   includes (`#include "other/file.hpp"`) and fails when the included
   layer is not the including layer itself and not in the transitive
   closure of its declared DEPS — catching upward includes
   (malleable -> sched -> svc -> experiments all point strictly down)
   and undeclared sideways ones alike.

Usage:
    check_layering.py [--root REPO_ROOT] [--verbose]

Exits non-zero with one line per violation, so CI can run it next to the
format check without a build tree.
"""

import argparse
import os
import re
import sys

ADD_LAYER_RE = re.compile(
    r"dps_add_layer\(\s*(?P<name>[a-z_]+)(?P<body>[^)]*)\)", re.S)
DEPS_RE = re.compile(r"\bDEPS\s+(?P<deps>[a-z_\s]+?)(?:\bSOURCES\b|\bEXCLUDE\b|$)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(?P<path>[^"]+)"')


def parse_layers(src_dir):
    """{layer: set(declared DEPS)} from every src/*/CMakeLists.txt."""
    layers = {}
    for entry in sorted(os.listdir(src_dir)):
        cml = os.path.join(src_dir, entry, "CMakeLists.txt")
        if not os.path.isfile(cml):
            continue
        with open(cml) as f:
            text = f.read()
        for m in ADD_LAYER_RE.finditer(text):
            deps = set()
            dm = DEPS_RE.search(m.group("body"))
            if dm:
                deps = set(dm.group("deps").split())
            layers[m.group("name")] = deps
    return layers


def transitive_closure(layers):
    """{layer: every layer reachable through declared DEPS}."""
    closure = {}

    def reach(name, stack):
        if name in closure:
            return closure[name]
        if name in stack:
            order = " -> ".join(list(stack) + [name])
            raise ValueError(f"dependency cycle in dps_add_layer DEPS: {order}")
        out = set()
        for dep in layers.get(name, ()):
            out.add(dep)
            out |= reach(dep, stack + [name])
        closure[name] = out
        return out

    for name in layers:
        reach(name, [])
    return closure


def check_includes(src_dir, layers, closure, verbose):
    violations = []
    scanned = 0
    for layer in sorted(layers):
        layer_dir = os.path.join(src_dir, layer)
        if not os.path.isdir(layer_dir):
            continue
        allowed = {layer} | closure[layer]
        for fname in sorted(os.listdir(layer_dir)):
            if not fname.endswith((".hpp", ".cpp")):
                continue
            path = os.path.join(layer_dir, fname)
            scanned += 1
            with open(path) as f:
                for lineno, line in enumerate(f, 1):
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    target = m.group("path").split("/")[0]
                    if target not in layers:
                        continue  # common/ headers, same-dir includes
                    if target not in allowed:
                        rel = os.path.relpath(path, os.path.dirname(src_dir))
                        violations.append(
                            f"{rel}:{lineno}: layer '{layer}' includes "
                            f"'{m.group('path')}' but does not declare DEPS "
                            f"on '{target}' (declared: "
                            f"{' '.join(sorted(layers[layer])) or '(none)'})")
    if verbose:
        print(f"scanned {scanned} files across {len(layers)} layers")
    return violations


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the checkout containing this script)")
    ap.add_argument("--verbose", action="store_true",
                    help="print the parsed layer graph and scan stats")
    args = ap.parse_args()

    src_dir = os.path.join(args.root, "src")
    if not os.path.isdir(src_dir):
        print(f"error: {src_dir} is not a directory", file=sys.stderr)
        return 2
    layers = parse_layers(src_dir)
    if not layers:
        print("error: no dps_add_layer declarations found", file=sys.stderr)
        return 2
    try:
        closure = transitive_closure(layers)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.verbose:
        for name in sorted(layers):
            print(f"{name}: deps {sorted(layers[name])} "
                  f"closure {sorted(closure[name])}")

    violations = check_includes(src_dir, layers, closure, args.verbose)
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print(f"layering OK: {len(layers)} layers, acyclic DEPS graph, "
          "no undeclared cross-layer includes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
