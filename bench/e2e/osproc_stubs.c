/* A monotonic clock for the end-to-end benchmark: Unix.gettimeofday
   follows the wall clock, which may be stepped while a run measures. */

#include <time.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>

double bench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value bench_now_byte(value unit)
{
  return caml_copy_double(bench_now(unit));
}
