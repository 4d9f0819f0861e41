/* Minimal ppoll(2) binding for the live event loop.
 *
 * The caller keeps three parallel arrays (fds, events, revents) alive
 * across iterations; this stub copies the first [nfds] entries into a
 * C pollfd array, releases the OCaml runtime lock around the blocking
 * ppoll, and writes revents back after reacquiring it.  The copy-in /
 * copy-out is mandatory: the GC may move the OCaml arrays while the
 * lock is released.
 *
 * The timeout is in microseconds and becomes a struct timespec, so a
 * timer 50 us away sleeps about 50 us — poll(2)'s millisecond timeout
 * would have to round it up to a whole millisecond.  The timer
 * contract: a wait never ends early; it ends late only by the kernel's
 * timer slack and CPU contention.  A negative timeout blocks without a
 * deadline.  The signal mask is left alone (NULL sigmask).
 *
 * Errors (including EINTR) are reported as a -1 return, not an OCaml
 * exception — the loop treats a negative return as "zero descriptors
 * ready" and re-evaluates its timers, which is exactly the EINTR
 * behaviour the old select loop had.
 */

#define _GNU_SOURCE
#include <poll.h>
#include <stdlib.h>
#include <time.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

#define ICS_POLL_STACK_FDS 64

CAMLprim value ics_poll_stub(value v_fds, value v_events, value v_revents,
                             value v_nfds, value v_timeout_us)
{
  CAMLparam5(v_fds, v_events, v_revents, v_nfds, v_timeout_us);
  int nfds = Int_val(v_nfds);
  long timeout_us = Long_val(v_timeout_us);
  struct timespec ts;
  struct timespec *tsp = NULL;
  struct pollfd stack_pfds[ICS_POLL_STACK_FDS];
  struct pollfd *pfds = stack_pfds;
  int i, ret;

  if (nfds < 0 || nfds > Wosize_val(v_fds) || nfds > Wosize_val(v_events) ||
      nfds > Wosize_val(v_revents))
    caml_invalid_argument("ics_poll: nfds exceeds array size");

  if (timeout_us >= 0) {
    ts.tv_sec = timeout_us / 1000000;
    ts.tv_nsec = (timeout_us % 1000000) * 1000;
    tsp = &ts;
  }

  if (nfds > ICS_POLL_STACK_FDS) {
    pfds = malloc(nfds * sizeof(struct pollfd));
    if (pfds == NULL) caml_raise_out_of_memory();
  }

  for (i = 0; i < nfds; i++) {
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = (short)Int_val(Field(v_events, i));
    pfds[i].revents = 0;
  }

  caml_enter_blocking_section();
  ret = ppoll(pfds, (nfds_t)nfds, tsp, NULL);
  caml_leave_blocking_section();

  if (ret >= 0)
    for (i = 0; i < nfds; i++)
      Field(v_revents, i) = Val_int(pfds[i].revents);

  if (pfds != stack_pfds) free(pfds);
  CAMLreturn(Val_int(ret < 0 ? -1 : ret));
}
