/*
 * A stack-sampling profiler to LD_PRELOAD into a program built with frame
 * pointers (see README.md in this directory).
 *
 * Every millisecond of processor time the program uses (ITIMER_PROF), the
 * SIGPROF handler records the interrupted instruction and the return
 * addresses found by walking the frame-pointer chain, into a buffer mapped
 * once at start-up: nothing is allocated, locked or written out while the
 * program runs. At exit the samples go to `$VPROF_OUT.<pid>` (default
 * `vprof.<pid>`), one line per sample of hexadecimal addresses, innermost
 * first, after a header line giving the load address of the executable —
 * what `symbolize.py` needs to turn them into function names.
 *
 * Environment: VPROF_OUT (output prefix), VPROF_HZ (samples per second of
 * processor time, default 1000), VPROF_WORDS (buffer size in addresses,
 * default 4 Mi).
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 128

/* Sample `i` is buf[at] = depth, then `depth` addresses. */
static uintptr_t *buf;
static size_t cap, used;
static unsigned long samples, dropped;
/* The main thread's stack: a frame pointer outside it ends the walk. */
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig;
    (void)si;
    const ucontext_t *uc = ctx;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    if (used + MAX_DEPTH + 1 > cap) {
        dropped++;
        return;
    }
    size_t at = used, n = at + 1;
    buf[n++] = pc;
    uintptr_t lo = sp > stack_lo ? sp : stack_lo;
    while (n - at - 1 < MAX_DEPTH && fp >= lo && fp + 16 <= stack_hi && (fp & 7) == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t next = frame[0], ret = frame[1];
        if (ret == 0) {
            break;
        }
        buf[n++] = ret;
        if (next <= fp) {
            break;
        }
        fp = next;
    }
    buf[at] = n - at - 1;
    used = n;
    samples++;
}

/* The `[stack]` mapping of /proc/self/maps. */
static void find_stack(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) {
        if (strstr(line, "[stack]")) {
            unsigned long lo, hi;
            if (sscanf(line, "%lx-%lx", &lo, &hi) == 2) {
                stack_lo = lo;
                stack_hi = hi;
            }
        }
    }
    if (maps) {
        fclose(maps);
    }
}

static unsigned long env_or(const char *name, unsigned long fallback) {
    const char *v = getenv(name);
    return v && *v ? strtoul(v, NULL, 10) : fallback;
}

__attribute__((constructor)) static void vprof_start(void) {
    cap = env_or("VPROF_WORDS", 4ul << 20);
    buf = mmap(NULL, cap * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        perror("vprof: mmap");
        return;
    }
    find_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    unsigned long hz = env_or("VPROF_HZ", 1000);
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = (suseconds_t)(1000000 / (hz ? hz : 1000));
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

/* dl_iterate_phdr lists the executable first. */
static int first_object(struct dl_phdr_info *info, size_t size, void *base) {
    (void)size;
    *(uintptr_t *)base = info->dlpi_addr;
    return 1;
}

__attribute__((destructor)) static void vprof_stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    if (buf == MAP_FAILED || buf == NULL) {
        return;
    }
    uintptr_t base = 0;
    dl_iterate_phdr(first_object, &base);
    const char *prefix = getenv("VPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%ld", prefix && *prefix ? prefix : "vprof", (long)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        perror("vprof: fopen");
        return;
    }
    fprintf(out, "base %lx samples %lu dropped %lu\n", (unsigned long)base, samples, dropped);
    for (size_t at = 0; at < used; at += buf[at] + 1) {
        for (size_t i = 1; i <= buf[at]; i++) {
            fprintf(out, i == 1 ? "%lx" : " %lx", (unsigned long)buf[at + i]);
        }
        fputc('\n', out);
    }
    fclose(out);
    fprintf(stderr, "vprof: %lu samples (%lu dropped) in %s\n", samples, dropped, path);
}
