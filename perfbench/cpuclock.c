/* Process CPU time at nanosecond resolution, for Span.now. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_cpu_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_cpu_now_byte(value unit)
{
  return caml_copy_double(perfbench_cpu_now(unit));
}
