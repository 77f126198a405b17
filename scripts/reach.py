#!/usr/bin/env python3
"""Reachability report: how much of the library code no program reaches.

    python3 scripts/reach.py [--source DIR] [--build-dir DIR] [--jobs N]

Builds the examples, every bench/ binary and perfbench's load generator at
-O0 with -ffunction-sections -fdata-sections and links them with
-Wl,--gc-sections, so each binary keeps only the functions something in it
calls. It then diffs the gs:: text symbols defined in the src/ static
libraries against the symbols kept in any of those binaries. The tests are
not among the programs: code only they reach counts as unreached.

--source is the checkout to measure (default: the one holding this
script). --build-dir (default: <source>/build-reach) is the only place the
script writes; the main project builds there and perfbench in its
perfbench/ subdirectory.

Prints the unreached KB and percentage of the library text, once with and
once without the bench/ binaries, then the unreached symbols grouped by
src/ directory.
"""
import argparse
import collections
import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLAGS = "-O0 -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
TEXT_TYPES = set("TtWw")
# Mangled names of functions in namespace gs: members and free functions
# (_ZN2gs, _ZNK2gs, ...), lambdas and other local entities of gs functions
# (_ZZN2gs) and virtual thunks into gs classes (_ZThn.._N2gs). A demangled
# prefix test would also take std templates whose return type is a gs type.
GS_FUNCTION = re.compile(r"^_Z(?:T[hv][n0-9_]*)?Z?N[KVRO]*2gs")


def run(command, log):
    result = subprocess.run(command, stdout=log, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        sys.exit(f"failed: {' '.join(command)} (see {log.name})")


def configure_and_build(source, build, targets, jobs, log):
    run(["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=None",
         f"-DCMAKE_CXX_FLAGS={FLAGS}", f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"],
        log)
    run(["cmake", "--build", build, "-j", str(jobs), "--target", *targets], log)


def stems(pattern):
    return sorted(os.path.splitext(os.path.basename(p))[0]
                  for p in glob.glob(pattern))


def text_symbols(path):
    """{mangled name: size} of the text symbols `path` defines."""
    out = subprocess.run(["nm", "--defined-only", "-S", path],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    symbols = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) != 4 or fields[2] not in TEXT_TYPES:
            continue
        size = int(fields[1], 16)
        symbols[fields[3]] = max(size, symbols.get(fields[3], 0))
    return symbols


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return dict(zip(names, out.splitlines()))


def report(title, unreached, total):
    size = sum(row[1] for row in unreached)
    print(f"{title}: {size / 1024:.0f} KB of {total / 1024:.0f} KB unreached "
          f"({100 * size / total:.1f}%), {len(unreached)} symbols")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", default=ROOT)
    parser.add_argument("--build-dir")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    source = os.path.abspath(args.source)
    build = os.path.abspath(args.build_dir or os.path.join(source, "build-reach"))
    os.makedirs(build, exist_ok=True)

    examples = ["example_" + s for s in stems(os.path.join(source, "examples", "*.cpp"))]
    benches = stems(os.path.join(source, "bench", "bench_*.cpp"))
    with open(os.path.join(build, "reach-build.log"), "w") as log:
        configure_and_build(source, build, examples + benches, args.jobs, log)
        configure_and_build(os.path.join(source, "perfbench"),
                            os.path.join(build, "perfbench"),
                            ["perfbench_loadgen"], args.jobs, log)

    # Library text, keyed by symbol; the directory is the library's src/ dir.
    library = {}
    for archive in sorted(glob.glob(os.path.join(build, "src", "*", "libgs_*.a"))):
        directory = "src/" + os.path.basename(os.path.dirname(archive))
        for name, size in text_symbols(archive).items():
            library.setdefault(name, (size, directory))
    library = {n: v for n, v in library.items() if GS_FUNCTION.match(n)}
    readable = demangle(sorted(library))
    total = sum(size for size, _ in library.values())

    programs = [os.path.join(build, "examples", e) for e in examples]
    programs.append(os.path.join(build, "perfbench", "perfbench_loadgen"))
    bench_programs = [os.path.join(build, "bench", b) for b in benches]
    kept_without_bench = set()
    for program in programs:
        kept_without_bench |= text_symbols(program).keys()
    kept = set(kept_without_bench)
    for program in bench_programs:
        kept |= text_symbols(program).keys()

    def unreached(reached):
        return sorted(((readable[n], size, directory)
                       for n, (size, directory) in library.items()
                       if n not in reached),
                      key=lambda row: (row[2], -row[1], row[0]))

    rows = unreached(kept)
    report("examples + bench + perfbench", rows, total)
    report("examples + perfbench (no bench/)", unreached(kept_without_bench),
           total)

    by_directory = collections.defaultdict(list)
    for row in rows:
        by_directory[row[2]].append(row)
    print("\nunreached by src/ directory (examples + bench + perfbench):")
    for directory, group in sorted(by_directory.items(),
                                   key=lambda item: -sum(r[1] for r in item[1])):
        print(f"  {directory:16} {sum(r[1] for r in group) / 1024:7.1f} KB"
              f"  {len(group):4} symbols")
    for directory, group in sorted(by_directory.items()):
        print(f"\n{directory}")
        for name, size, _ in group:
            print(f"  {size:7} {name}")


if __name__ == "__main__":
    main()
