/* Monotonic wall clock for the benchmark's own timings: the stdlib only
   offers Sys.time (CPU seconds) and Unix.gettimeofday (steppable). */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
