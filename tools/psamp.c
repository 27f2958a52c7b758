/* psamp: sample where a program spends its host time, with ptrace.

   Usage: psamp [-i MICROSECONDS] [-o PREFIX] [--] PROGRAM [ARG...]

   Forks and execs PROGRAM, seizes the child with PTRACE_SEIZE, and every
   MICROSECONDS (default 1000) stops it with PTRACE_INTERRUPT, records the
   instruction pointer and lets it continue.  It writes PREFIX.samples
   (default prefix "psamp"), one hexadecimal address a line, and
   PREFIX.maps, a copy of the child's /proc/<pid>/maps taken at the first
   sample and again as the child exits, which tools/psamp.py needs to map
   the addresses to functions and lines.

   A stop catches the child wherever it is, at a poll point or not, so
   unlike a SIGPROF handler in the OCaml runtime the samples are not
   biased towards allocation and poll points.  Only the child's main
   thread is sampled: other threads (OCaml domains beyond the first, the
   runtime's tick thread) run untraced.  Signals the child receives are
   passed on to it; a stop signal does not keep it stopped.  psamp traces
   only the child it starts, and exits with the child's status (128 plus
   the signal number when a signal killed it).

   Build: cc -O2 -Wall -Werror -o psamp tools/psamp.c (Linux, x86-64 or
   AArch64). */

#define _GNU_SOURCE
#include <elf.h>
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static void usage(void) {
  fprintf(stderr,
          "usage: psamp [-i MICROSECONDS] [-o PREFIX] [--] PROGRAM [ARG...]\n");
  exit(2);
}

/* The instruction pointer of a stopped tracee, or 0. */
static unsigned long pc_of(pid_t pid) {
  struct user_regs_struct regs;
  struct iovec io = {&regs, sizeof regs};
  if (ptrace(PTRACE_GETREGSET, pid, (void *)NT_PRSTATUS, &io) == -1) return 0;
#if defined(__x86_64__)
  return regs.rip;
#elif defined(__aarch64__)
  return regs.pc;
#else
#error "psamp supports x86-64 and AArch64"
#endif
}

static void copy_maps(pid_t pid, const char *path) {
  char src[64], buf[4096];
  size_t n;
  snprintf(src, sizeof src, "/proc/%d/maps", (int)pid);
  FILE *in = fopen(src, "r");
  if (!in) return;
  FILE *out = fopen(path, "w");
  if (out) {
    while ((n = fread(buf, 1, sizeof buf, in)) > 0) fwrite(buf, 1, n, out);
    fclose(out);
  }
  fclose(in);
}

int main(int argc, char **argv) {
  long interval = 1000;
  const char *prefix = "psamp";
  int i = 1;
  for (; i < argc; i++) {
    if (!strcmp(argv[i], "-i") && i + 1 < argc)
      interval = atol(argv[++i]);
    else if (!strcmp(argv[i], "-o") && i + 1 < argc)
      prefix = argv[++i];
    else if (!strcmp(argv[i], "--")) {
      i++;
      break;
    } else if (argv[i][0] == '-')
      usage();
    else
      break;
  }
  if (i >= argc || interval <= 0) usage();

  char samples_path[4096], maps_path[4096];
  snprintf(samples_path, sizeof samples_path, "%s.samples", prefix);
  snprintf(maps_path, sizeof maps_path, "%s.maps", prefix);
  FILE *samples = fopen(samples_path, "w");
  if (!samples) {
    perror(samples_path);
    return 2;
  }

  /* The child waits on a pipe until it is seized, so the exec is traced. */
  int go[2];
  if (pipe(go) == -1) {
    perror("pipe");
    return 2;
  }
  pid_t pid = fork();
  if (pid == -1) {
    perror("fork");
    return 2;
  }
  if (pid == 0) {
    char c;
    close(go[1]);
    if (read(go[0], &c, 1) != 1) _exit(127);
    close(go[0]);
    execvp(argv[i], argv + i);
    perror(argv[i]);
    _exit(127);
  }
  close(go[0]);
  long opts = PTRACE_O_TRACEEXEC | PTRACE_O_TRACEEXIT | PTRACE_O_EXITKILL;
  if (ptrace(PTRACE_SEIZE, pid, 0, (void *)opts) == -1) {
    perror("PTRACE_SEIZE");
    kill(pid, SIGKILL);
    return 2;
  }
  if (write(go[1], "x", 1) != 1) {
    perror("write");
    kill(pid, SIGKILL);
    return 2;
  }
  close(go[1]);

  /* Each round: let the child run for an interval, then stop it and
     record where it is.  A ptrace stop can take the place of an
     interrupt's own (a signal, the exec) or leave it queued, to fire as
     soon as the child resumes; so the round first reaps any stop that
     came while psamp slept, and interrupts only a running child.  Only
     an interrupt stop that answers this round's interrupt is a sample. */
  struct timespec pause = {interval / 1000000, (interval % 1000000) * 1000};
  int execed = 0, status = 0, have_maps = 0;
  long count = 0;
  for (;;) {
    int asked = 0;
    pid_t r;
    if (execed) {
      nanosleep(&pause, NULL);
      r = waitpid(pid, &status, __WALL | WNOHANG);
      if (r == 0 && ptrace(PTRACE_INTERRUPT, pid, 0, 0) == 0) asked = 1;
      if (r == 0) r = waitpid(pid, &status, __WALL);
    } else
      r = waitpid(pid, &status, __WALL);
    if (r == -1) {
      if (errno == EINTR) continue;
      perror("waitpid");
      return 2;
    }
    if (WIFEXITED(status) || WIFSIGNALED(status)) break;
    if (!WIFSTOPPED(status)) continue;
    int sig = WSTOPSIG(status), event = status >> 16, pass = 0;
    if (event == PTRACE_EVENT_EXEC)
      execed = 1;
    else if (event == PTRACE_EVENT_EXIT)
      copy_maps(pid, maps_path);
    else if (event == PTRACE_EVENT_STOP) {
      if (sig == SIGTRAP && asked) {
        unsigned long pc = pc_of(pid);
        if (pc) {
          fprintf(samples, "%lx\n", pc);
          count++;
        }
        if (!have_maps) {
          copy_maps(pid, maps_path);
          have_maps = 1;
        }
      }
    } else
      pass = sig; /* a signal the child received: deliver it */
    ptrace(PTRACE_CONT, pid, 0, (void *)(long)pass);
  }
  fclose(samples);
  fprintf(stderr, "psamp: %ld samples every %ld us in %s, maps in %s\n", count,
          interval, samples_path, maps_path);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}
