#!/usr/bin/env bash
# Sample where a command spends its CPU time, without `perf`.
#
#   scripts/wallprof.sh [-o DIR] [-n TOP] [-l FN] -- COMMAND [ARGS...]
#   scripts/wallprof.sh -r DIR [-n TOP] [-l FN]   # re-aggregate an earlier run
#
# A small sampler shim is built with the host C compiler and preloaded into
# COMMAND (and every process it execs). It arms ITIMER_PROF; each SIGPROF
# records the interrupted instruction pointer and up to 15 return addresses
# (glibc `backtrace`) into a preallocated buffer, and at exit the shim
# writes `<pid>.maps` (a copy of /proc/self/maps) and `<pid>.pcs` into
# DIR. The timer runs on the process's CPU time and fires at most once per
# kernel tick (4 ms at CONFIG_HZ=250), so 30 s of CPU gives about 7,500
# samples.
#
# The samples are resolved with `addr2line -f -i -C` (release builds carry
# `debug = true`) and counted by the interrupted instruction three ways:
# by crate and by source file (the innermost frame of its inline chain
# that is workspace code under `crates/`, else std or the shared object),
# and by outermost function (the function the instruction was compiled
# into). `-l FN` adds a fourth table: the source lines of the samples
# whose outermost function contains FN. A sample with perfbench's calibration kernel
# (`HostClock::calibrate`) anywhere on its stack is dropped, so a perfbench
# run reports the workload alone: the kernel's sort is a function of its
# own, which the interrupted instruction alone would not tell apart.
#
# Example (release perfbench, one workload):
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
#   scripts/wallprof.sh -o /tmp/prof -- perfbench/target/release/domino-perfbench \
#       --workload udp_slots --seed 1 --seconds 30
set -euo pipefail
cd "$(dirname "$0")/.."

DIR=""
TOP=20
REUSE=""
LINES=""
while [ $# -gt 0 ]; do
    case "$1" in
        -o) DIR="$2"; shift 2 ;;
        -n) TOP="$2"; shift 2 ;;
        -r) REUSE="$2"; shift 2 ;;
        -l) LINES="$2"; shift 2 ;;
        --) shift; break ;;
        *) echo "usage: $0 [-o DIR] [-n TOP] [-l FN] -- COMMAND [ARGS...] | $0 -r DIR [-n TOP] [-l FN]" >&2; exit 2 ;;
    esac
done

if [ -n "$REUSE" ]; then
    DIR="$REUSE"
else
    [ $# -gt 0 ] || { echo "wallprof: no command given" >&2; exit 2; }
    DIR="${DIR:-$(mktemp -d)}"
    mkdir -p "$DIR"
    cat > "$DIR/shim.c" <<'SHIM'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1u << 18)
#define DEPTH 16
static void *stacks[CAP][DEPTH]; /* [0]: interrupted pc, then return addresses */
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig; (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= CAP) return;
    void *pc = (void *)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP], *raw[DEPTH + 3];
    int n = backtrace(raw, DEPTH + 3), at = 0;
    while (at < n && raw[at] != pc) at++; /* skip the handler and the signal trampoline */
    stacks[i][0] = pc;
    for (int k = 1; k < DEPTH && at + k < n; k++) stacks[i][k] = raw[at + k];
}

__attribute__((constructor)) static void wallprof_start(void) {
    void *warm[1];
    backtrace(warm, 1); /* load the unwinder here, not inside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void wallprof_dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *dir = getenv("WALLPROF_DIR");
    char path[4096], buf[4096];
    size_t k;
    snprintf(path, sizeof path, "%s/%d.maps", dir ? dir : ".", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    while (out && maps && (k = fread(buf, 1, sizeof buf, maps)) > 0) fwrite(buf, 1, k, out);
    if (maps) fclose(maps);
    if (out) fclose(out);
    snprintf(path, sizeof path, "%s/%d.pcs", dir ? dir : ".", (int)getpid());
    unsigned long n = taken < CAP ? taken : CAP;
    if (!(out = fopen(path, "w"))) return;
    for (unsigned long i = 0; i < n; i++) {
        for (int d = 0; d < DEPTH && stacks[i][d]; d++)
            fprintf(out, d ? " %lx" : "%lx", (unsigned long)stacks[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
SHIM
    cc -O2 -shared -fPIC -o "$DIR/wallprof.so" "$DIR/shim.c"
    status=0
    WALLPROF_DIR="$DIR" LD_PRELOAD="$DIR/wallprof.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?
    [ "$status" -eq 0 ] || echo "wallprof: command exited with status $status" >&2
fi

python3 - "$DIR" "$TOP" "$LINES" <<'AGGREGATE'
import bisect, collections, glob, os, struct, subprocess, sys

out_dir, top, lines_of = sys.argv[1], int(sys.argv[2]), sys.argv[3]
CALIBRATION = "HostClock::calibrate"
UNKNOWN = [("??", "??")]


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) of an ELF64 file, to turn file offsets into addresses."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


# Each sample is a list of (module, file offset): the interrupted
# instruction, then its callers. A return address is moved back one byte
# so it resolves to the call instruction, inlined frames included.
samples = []
for pcs_path in sorted(glob.glob(os.path.join(out_dir, "*.pcs"))):
    maps = []
    with open(pcs_path[:-4] + ".maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and "x" in parts[1]:
                lo, hi = (int(v, 16) for v in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
    maps.sort()
    starts = [m[0] for m in maps]

    def locate(pc):
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            return ("[unmapped]", 0)
        lo, _, off, path = maps[i]
        return (path, pc - lo + off)

    with open(pcs_path) as f:
        for line in f:
            pcs = [int(v, 16) for v in line.split()]
            if pcs:
                samples.append([locate(pc - (d > 0)) for d, pc in enumerate(pcs)])

resolved = {}  # (module, file offset) -> [(function, file:line)], innermost first
for module in sorted({m for s in samples for m, _ in s}):
    offsets = sorted({o for s in samples for m, o in s if m == module})
    if not os.path.isfile(module):
        continue
    segs = load_segments(module)
    addrs = [next((v + o - s for s, v, n in segs if s <= o < s + n), o) for o in offsets]
    text = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", module],
                          input="\n".join("%x" % a for a in addrs), capture_output=True,
                          text=True).stdout.splitlines()
    records, i = [], 0
    while i < len(text):
        i += 1  # the 0x... address line
        frames = []
        while i + 1 < len(text) and not text[i].startswith("0x"):
            frames.append((text[i], text[i + 1].split(" (discriminator")[0]))
            i += 2
        records.append(frames or UNKNOWN)
    resolved.update(((module, o), frames) for o, frames in zip(offsets, records))


def where(frames, module):
    """(crate, file:line) of the innermost frame, paths from `crates/` on."""
    path, _, line = frames[0][1].rpartition(":")
    if path in ("", "??"):
        name = os.path.basename(module)
        return name, name
    if "/library/" in path:
        return "std", "std:%s:%s" % (path.split("/library/", 1)[1], line)
    if "crates/" in path:
        path = "crates/" + path.split("crates/", 1)[1]
    parts = path.split("/")
    crate = "/".join(parts[:2]) if parts[0] == "crates" else parts[0]
    return crate, "%s:%s" % (path, line)


by_crate, by_file, by_fn, by_line = (collections.Counter() for _ in range(4))
dropped = 0
for stack in samples:
    chains = [resolved.get(at, UNKNOWN) for at in stack]
    if any(CALIBRATION in fn for frames in chains for fn, _ in frames):
        dropped += 1
        continue
    module, frames = stack[0][0], chains[0]
    own = next((f for f in frames if "crates/" in f[1]), frames[0])
    crate, at = where([own], module)
    outer = frames[-1][0]
    by_crate[crate] += 1
    by_file[at.rpartition(":")[0] or at] += 1
    if lines_of and lines_of in outer:
        by_line[at] += 1
    by_fn[outer if not frames[0][1].startswith("??") else "%s [%s]" % (outer, os.path.basename(module))] += 1

kept = sum(by_crate.values())
print("wallprof: %d samples in %s (%d in the calibration kernel dropped)" % (kept, out_dir, dropped))
tables = [("crate", by_crate), ("file", by_file), ("outermost function", by_fn)]
if lines_of:
    tables.append(("line, in outermost functions matching %r" % lines_of, by_line))
for title, counts in tables:
    print("\n%7s %6s  by %s" % ("samples", "share", title))
    for name, n in counts.most_common(top):
        print("%7d %5.1f%%  %s" % (n, 100.0 * n / max(kept, 1), name))
AGGREGATE
