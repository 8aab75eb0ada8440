#!/usr/bin/env python3
"""The BENCHMARK.json command: build `biscuit-perf` without the registry, then run it.

    python3 crates/biscuit-perf/bench.py --workload W --seed N --seconds S --trace 0|1

`cargo` cannot resolve `parking_lot`, `crossbeam` and `rand` where the
registry is unreachable, so this builds the crates `biscuit-perf` depends on
with plain `rustc -C opt-level=3`, in dependency order read from their
`Cargo.toml`s, against the std-backed stand-ins in `offline/`. Parent and
change are therefore always built the same way, with the same `rand`.

Objects go to `$CARGO_TARGET_DIR/biscuit-perf-offline` (default
`.bench_build/`), each keyed by a hash of its inputs, so only the first run in
a checkout builds. Every argument is passed on to `biscuit-perf run`; the
process is replaced by it, so its last stdout line and exit code are ours.
"""

import hashlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUSTC_FLAGS = ["-C", "opt-level=3", "-C", "debuginfo=0", "--cap-lints", "allow"]


def fail(msg):
    print(f"bench.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        return tomllib.loads(path.read_text())
    except OSError as e:
        fail(f"cannot read {path}: {e}")


class Unit:
    """One rustc invocation: a workspace crate, an offline stand-in, or the binary."""

    def __init__(self, name, entry, edition, sources, deps, kind="rlib"):
        self.name, self.entry, self.edition = name, entry, edition
        self.sources, self.deps, self.kind = sources, deps, kind


def plan():
    """Units in build order, walked from biscuit-perf's own manifest."""
    root = load(ROOT / "Cargo.toml")
    ws = root.get("workspace", {})
    ws_deps = ws.get("dependencies", {})
    ws_edition = ws.get("package", {}).get("edition", "2021")
    order, seen = [], {}

    def visit(crate_dir, kind="rlib"):
        manifest = load(crate_dir / "Cargo.toml")
        pkg = manifest["package"]
        name = pkg["name"].replace("-", "_")
        if name in seen:
            return name
        seen[name] = True
        if (crate_dir / "build.rs").exists():
            fail(f"{crate_dir} has a build script, which the offline build does not run")
        edition = pkg.get("edition", ws_edition)
        if isinstance(edition, dict):
            edition = ws_edition
        deps = []
        for dep, spec in manifest.get("dependencies", {}).items():
            base = crate_dir
            if isinstance(spec, dict) and spec.get("workspace"):
                if dep not in ws_deps:
                    fail(f"{crate_dir}: `{dep}` is not in [workspace.dependencies]")
                spec, base = ws_deps[dep], ROOT
            if isinstance(spec, dict) and "path" in spec:
                deps.append(visit((base / spec["path"]).resolve()))
                continue
            standin = HERE / "offline" / f"{dep}.rs"
            if not standin.exists():
                fail(f"no offline stand-in for external crate `{dep}` (wanted {standin})")
            ext = dep.replace("-", "_")
            if ext not in seen:
                seen[ext] = True
                order.append(Unit(ext, standin, "2021", [standin], []))
            deps.append(ext)
        entry = crate_dir / "src" / ("main.rs" if kind == "bin" else "lib.rs")
        sources = sorted((crate_dir / "src").rglob("*.rs")) + [crate_dir / "Cargo.toml"]
        order.append(Unit(name, entry, edition, sources, deps, kind))
        return name

    visit(HERE, kind="bin")
    return order


def fingerprint(unit, dep_prints, rustc_version):
    h = hashlib.sha256()
    h.update(rustc_version.encode())
    h.update(" ".join(RUSTC_FLAGS).encode())
    h.update(f"\0{unit.name}\0{unit.kind}\0{unit.edition}".encode())
    for d in unit.deps:
        h.update(dep_prints[d].encode())
    for src in unit.sources:
        h.update(str(src.relative_to(ROOT)).encode())
        h.update(src.read_bytes())
    return h.hexdigest()


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = (target if target.is_absolute() else ROOT / target) / "biscuit-perf-offline"
    units = plan()
    try:
        version = subprocess.run(
            ["rustc", "-vV"], check=True, capture_output=True, text=True
        ).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"rustc is not runnable: {e}")
    out.mkdir(parents=True, exist_ok=True)
    prints = {}
    for u in units:
        # A unit is rebuilt when its sources, its flags or any crate below it changed.
        prints[u.name] = want = fingerprint(u, prints, version)
        artifact = out / ("biscuit-perf" if u.kind == "bin" else f"lib{u.name}.rlib")
        stamp = out / f"{u.name}.fingerprint"
        if artifact.exists() and stamp.exists() and stamp.read_text() == want:
            continue
        stamp.unlink(missing_ok=True)
        cmd = ["rustc", "--edition", str(u.edition), "--crate-name", u.name]
        cmd += ["--crate-type", u.kind, *RUSTC_FLAGS, "-L", f"dependency={out}"]
        for d in u.deps:
            cmd += ["--extern", f"{d}={out / f'lib{d}.rlib'}"]
        cmd += ["-o", str(artifact), str(u.entry)]
        print(f"bench.py: rustc {u.name}", file=sys.stderr)
        if subprocess.run(cmd, cwd=ROOT).returncode != 0:
            fail(f"building {u.name} failed")
        stamp.write_text(want)
    return out / "biscuit-perf"


def main():
    binary = build()
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [str(binary), "run", *sys.argv[1:]])


if __name__ == "__main__":
    main()
