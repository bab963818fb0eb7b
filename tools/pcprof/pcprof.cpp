// pcprof: a PC sampler loaded with LD_PRELOAD.
//
// On load it arms ITIMER_PROF; each SIGPROF records the program counter the
// signal interrupted. At exit it writes the process's executable mappings
// and a histogram of the sampled PCs, which tools/pcprof/symbolize.py turns
// into tables by inlined function, out-of-line function and source line.
// Nothing is symbolized in the process and the handler only stores one word,
// so the sampled program runs its normal code path (no -pg, no rdtsc
// probes). The timer asks for 1 kHz; the kernel delivers ITIMER_PROF at its
// tick rate, so the rate is CONFIG_HZ (250 Hz on common distribution
// kernels) wherever that is lower.
//
//   LD_PRELOAD=build/tools/libpcprof.so PCPROF_OUT=run.pcprof <program> ...
//   python3 tools/pcprof/symbolize.py run.pcprof
//
// PCPROF_OUT names the output file (default pcprof.<pid>.out). Linux only.
// Samples from every thread of the process land in one histogram.
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // ~70 min at 250 Hz.

std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};

std::uintptr_t interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcprof: no program-counter accessor for this architecture"
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_samples[i] = interrupted_pc(context);
}

void set_timer(long usec) {
  itimerval timer{};
  timer.it_interval.tv_usec = usec;
  timer.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void pcprof_start() {
  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;
  set_timer(1000);  // 1 kHz requested.
}

__attribute__((destructor)) void pcprof_stop() {
  set_timer(0);
  const std::size_t taken = g_count.load();
  const std::size_t n = std::min(taken, kMaxSamples);

  const char* out_env = std::getenv("PCPROF_OUT");
  const std::string path =
      out_env != nullptr ? out_env : "pcprof." + std::to_string(getpid()) + ".out";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "pcprof: cannot write %s\n", path.c_str());
    return;
  }

  // Executable mappings, verbatim: symbolize.py turns a PC into a file
  // offset with them.
  std::fprintf(out, "# pcprof 1\n");
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      char perms[8] = {};
      if (std::sscanf(line, "%*s %7s", perms) == 1 && perms[2] == 'x')
        std::fprintf(out, "map %s", line);
    }
    std::fclose(maps);
  }

  std::sort(g_samples, g_samples + n);
  std::fprintf(out, "samples %zu dropped %zu\n", n, taken - n);
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && g_samples[j] == g_samples[i]) ++j;
    std::fprintf(out, "pc %zx %zu\n", static_cast<std::size_t>(g_samples[i]), j - i);
    i = j;
  }
  std::fclose(out);
  std::fprintf(stderr, "pcprof: %zu samples -> %s\n", n, path.c_str());
}

}  // namespace
