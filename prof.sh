#!/usr/bin/env bash
# Where the host time of one repo-benchmark workload goes: a sampling
# profile with leaf and inclusive tables, for hosts without `perf`.
#
#   prof.sh <workload> [seconds=10] [seed=1]
#
# Builds `drtm-benchmark` with frame pointers into target/prof (its own
# target dir, so the ordinary release build is untouched), preloads a
# small SIGPROF sampler built with gcc, runs the workload once
# (`--dir benchmark --workload W --seed S --seconds N --trace 0`) and
# resolves every sampled frame with addr2line.
#
# The sampler (written to target/prof/sampler.c) arms ITIMER_PROF at
# 1 kHz of process CPU time. Each SIGPROF records RIP, the word at RSP
# and the RBP chain, each frame read with process_vm_readv so a stray
# frame pointer ends the walk instead of faulting. At exit it writes the
# samples to <file>.<pid> and a copy of /proc/self/maps to
# <file>.<pid>.maps with plain file I/O: it starts no process, since a
# preloaded destructor that ran `system("cp ...")` would run again in
# that child, and in its child, without end.
#
# The resolver maps each address to its module through those maps and
# subtracts the module's load base (its mapping at file offset 0). A leaf
# outside the benchmark binary (libc has no frame pointers) takes the
# word at RSP as its caller. libc is stripped: addr2line names a libc
# leaf by the nearest exported symbol before it, so `memcpy` shows as
# `__nss_database_lookup` and `calloc`/`malloc` internals as a nearby
# allocator export. Return addresses are resolved one byte back, inside
# their call. Leaf: the function the sample was in. Inclusive: every
# function on the sampled stack, once per sample.
#
# bash, gcc, awk and binutils only; about a minute at the default length.
set -euo pipefail
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: prof.sh <workload> [seconds=10] [seed=1]" >&2
    exit 2
fi
workload=$1
seconds=${2:-10}
seed=${3:-1}
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/target/prof"
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
    cargo build -q --release --offline --manifest-path "$here/benchmark/Cargo.toml"
bin="$out/release/drtm-benchmark"

cat > "$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES 400000
#define DEPTH 48 /* words per sample: RIP, *(RSP), then the RBP chain */

static uintptr_t *samples;
static long taken;
static const char *path;

/* Copies n bytes at addr from this process; 0 if they cannot be read. */
static int peek(uintptr_t addr, void *to, size_t n) {
    struct iovec local = {to, n}, remote = {(void *)addr, n};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == (ssize_t)n;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    uintptr_t *s = samples + i * DEPTH;
    mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    uintptr_t rsp = m->gregs[REG_RSP], rbp = m->gregs[REG_RBP];
    s[0] = m->gregs[REG_RIP];
    if (!peek(rsp, &s[1], 8))
        s[1] = 0;
    for (int d = 2; d < DEPTH; d++) {
        uintptr_t frame[2]; /* saved RBP, return address */
        if (rbp < rsp || rbp - rsp > (64u << 20) || (rbp & 7) || !peek(rbp, frame, 16))
            break;
        s[d] = frame[1];
        if (frame[0] <= rbp)
            break;
        rbp = frame[0];
    }
}

/* Copies /proc/self/maps into `to`, with plain file I/O. */
static void copy_maps(const char *to) {
    int in = open("/proc/self/maps", O_RDONLY), o = open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    char buf[65536];
    ssize_t n;
    while (in >= 0 && o >= 0 && (n = read(in, buf, sizeof buf)) > 0)
        if (write(o, buf, n) != n)
            break;
    if (in >= 0)
        close(in);
    if (o >= 0)
        close(o);
}

__attribute__((constructor)) static void start(void) {
    path = getenv("PROF_OUT");
    if (!path)
        return;
    samples = mmap(0, sizeof(uintptr_t) * DEPTH * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, 0);
}

__attribute__((destructor)) static void stop(void) {
    if (!path || samples == MAP_FAILED || !samples)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    char file[4096];
    snprintf(file, sizeof file, "%s.%d.maps", path, (int)getpid());
    copy_maps(file);
    snprintf(file, sizeof file, "%s.%d", path, (int)getpid());
    FILE *f = fopen(file, "w");
    if (!f)
        return;
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++) {
        uintptr_t *s = samples + i * DEPTH;
        for (int d = 0; d < DEPTH && (d < 2 || s[d]); d++)
            fprintf(f, d ? " %lx" : "%lx", (unsigned long)s[d]);
        fputc('\n', f);
    }
    fclose(f);
}
EOF
gcc -O2 -shared -fPIC -o "$out/libsampler.so" "$out/sampler.c"

rm -f "$out"/samples.*
(cd "$here" && PROF_OUT="$out/samples" LD_PRELOAD="$out/libsampler.so" "$bin" \
    --dir benchmark --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    > "$out/run.log")
tail -n 1 "$out/run.log"
data=$(ls "$out"/samples.* | grep -v '\.maps$' | head -n 1)
maps="$data.maps"

# Pass 1: every frame as "module vaddr" (leaf as is, callers one byte
# back), per sample; the word at RSP only when the leaf is outside the
# benchmark binary.
awk -v exe="$(readlink -f "$bin")" '
    function hex(s,   v, i, c) {
        v = 0
        for (i = 1; i <= length(s); i++) {
            c = index("0123456789abcdef", substr(s, i, 1)) - 1
            v = v * 16 + c
        }
        return v
    }
    function find(a,   i) {
        for (i = 1; i <= nmod; i++)
            if (a >= lo[i] && a < hi[i]) return i
        return 0
    }
    FNR == NR {
        split($1, r, "-")
        # A module is loaded at the start of its mapping at offset 0.
        if ($3 ~ /^0+$/ && $6 != "" && !($6 in base)) base[$6] = hex(r[1])
        # A file-backed executable mapping; [vdso] has no file to read.
        if ($2 ~ /x/ && $6 ~ /^\//) {
            nmod++
            lo[nmod] = hex(r[1]); hi[nmod] = hex(r[2]); mod[nmod] = $6
        }
        next
    }
    {
        printf "S"
        for (d = 1; d <= NF; d++) {
            if (d == 2) {
                m = find(hex($1))
                if ($2 == "0" || (m && mod[m] == exe)) continue
            }
            a = hex($d)
            if (d > 1) a -= 1
            m = find(a)
            if (!m) { printf " ?"; continue }
            printf " %s:%x", mod[m], a - base[mod[m]]
        }
        printf "\n"
    }
' "$maps" "$data" > "$out/frames"

# Pass 2: one addr2line call per module.
: > "$out/names"
for m in $(tr ' ' '\n' < "$out/frames" | grep ':' | cut -d: -f1 | sort -u); do
    tr ' ' '\n' < "$out/frames" | grep -F "$m:" | sort -u > "$out/addrs"
    cut -d: -f2 "$out/addrs" | sed 's/^/0x/' | addr2line -f -C -e "$m" \
        | awk 'NR % 2 == 1' | paste -d' ' "$out/addrs" - >> "$out/names"
done

# Pass 3: the two tables.
awk -v top=30 '
    FNR == NR {
        key = $1; $1 = ""; name[key] = substr($0, 2); next
    }
    {
        n++
        split("", seen)
        for (d = 2; d <= NF; d++) {
            f = ($d in name) ? name[$d] : "??"
            sub(/::h[0-9a-f]+$/, "", f)
            if (d == 2) leaf[f]++
            if (!(f in seen)) { seen[f] = 1; incl[f]++ }
        }
    }
    function table(title, c,   k, i, j, t, keys, m) {
        m = 0
        for (k in c) keys[++m] = k
        for (i = 2; i <= m; i++) {
            t = keys[i]
            for (j = i - 1; j >= 1 && c[keys[j]] < c[t]; j--) keys[j + 1] = keys[j]
            keys[j + 1] = t
        }
        printf "\n%s (%d samples)\n", title, n
        for (i = 1; i <= m && i <= top; i++)
            printf "%6.2f%%  %7d  %s\n", 100 * c[keys[i]] / n, c[keys[i]], substr(keys[i], 1, 110)
    }
    END {
        table("leaf", leaf)
        table("inclusive", incl)
    }
' "$out/names" "$out/frames"
