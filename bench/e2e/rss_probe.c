/* rss_probe REPORT COMMAND [ARG...]

   Runs COMMAND as a child of this small process, waits for it, and
   writes the child's peak resident set size in KiB (ru_maxrss) to the
   file REPORT. Exits with the child's status.

   The benchmark cannot read that number for its own children: Linux
   folds the parent's resident set at fork time into the child's
   ru_maxrss, so a child of the benchmark process reports at least the
   benchmark's own size. Forked from here, the floor is this program's
   few hundred KiB. */

#include <errno.h>
#include <stdio.h>
#include <unistd.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

int main(int argc, char **argv)
{
  struct rusage ru;
  int status;
  pid_t pid;
  FILE *out;

  if (argc < 3) {
    fprintf(stderr, "usage: rss_probe REPORT COMMAND [ARG...]\n");
    return 2;
  }
  pid = fork();
  if (pid < 0)
    return 2;
  if (pid == 0) {
    execv(argv[2], argv + 2);
    _exit(127);
  }
  while (wait4(pid, &status, 0, &ru) < 0)
    if (errno != EINTR)
      return 2;
  out = fopen(argv[1], "w");
  if (out == NULL)
    return 2;
  fprintf(out, "%ld\n", ru.ru_maxrss);
  if (fclose(out) != 0)
    return 2;
  if (WIFEXITED(status))
    return WEXITSTATUS(status);
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : 2;
}
