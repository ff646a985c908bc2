/* epoll(7) binding for the netd event loop, and the gathered write
 * that sends a connection's queued frames in one syscall.
 *
 * The loop registers each descriptor once and asks the kernel only
 * for the ready ones, so a step costs O(ready), not O(registered).
 * Linux-only by design. Each registration carries an opaque OCaml
 * int tag, returned verbatim with its readiness, so the OCaml side
 * owns all bookkeeping (and can tell a stale event for a recycled
 * descriptor number from a live one).
 */

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <stdint.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#define GKM_READ 1
#define GKM_WRITE 2
#define GKM_MAX_EVENTS 1024

CAMLprim value gkm_netd_epoll_create(value unit)
{
    (void)unit;
    int fd = epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0)
        uerror("epoll_create1", Nothing);
    return Val_int(fd);
}

/* gkm_netd_epoll_ctl epfd op fd want tag
 *
 * op: 0 = add, 1 = modify, 2 = delete. want: GKM_READ | GKM_WRITE.
 * A delete of a descriptor the kernel no longer knows (already
 * closed, never added) is not an error: deregistration is idempotent.
 */
CAMLprim value gkm_netd_epoll_ctl(value vepfd, value vop, value vfd, value vwant, value vtag)
{
    static const int ops[] = { EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL };
    int op = ops[Int_val(vop)];
    int want = Int_val(vwant);
    struct epoll_event ev;
    memset(&ev, 0, sizeof ev);
    ev.events = ((want & GKM_READ) ? EPOLLIN : 0) | ((want & GKM_WRITE) ? EPOLLOUT : 0);
    ev.data.u64 = (uint64_t)Long_val(vtag);
    if (epoll_ctl(Int_val(vepfd), op, Int_val(vfd), &ev) != 0) {
        if (op == EPOLL_CTL_DEL && (errno == ENOENT || errno == EBADF))
            return Val_unit;
        uerror("epoll_ctl", Nothing);
    }
    return Val_unit;
}

/* gkm_netd_epoll_wait epfd out timeout_ms
 *
 * Waits (runtime lock released) for at most Wosize(out) / 2 events
 * and writes each as the pair (tag, ready) into the int array [out];
 * ready uses the GKM_READ / GKM_WRITE encoding, with hang-up and
 * error reported as both so either handler observes the failure.
 * Returns the number of events, 0 on timeout or EINTR.
 */
CAMLprim value gkm_netd_epoll_wait(value vepfd, value vout, value vtimeout)
{
    CAMLparam3(vepfd, vout, vtimeout);
    struct epoll_event evs[GKM_MAX_EVENTS];
    int max = (int)(Wosize_val(vout) / 2);
    int epfd = Int_val(vepfd), timeout = Int_val(vtimeout);
    int n, err;

    if (max > GKM_MAX_EVENTS)
        max = GKM_MAX_EVENTS;
    if (max < 1)
        caml_invalid_argument("gkm_netd_epoll_wait: empty event buffer");
    caml_release_runtime_system();
    n = epoll_wait(epfd, evs, max, timeout);
    err = errno; /* reacquiring the runtime may clobber it */
    caml_acquire_runtime_system();
    if (n < 0) {
        if (err == EINTR)
            CAMLreturn(Val_int(0));
        errno = err;
        uerror("epoll_wait", Nothing);
    }
    /* [out] is a registered root (a minor collection may have moved
       it while the lock was released) holding immediates only, so
       plain stores need no write barrier. */
    for (int i = 0; i < n; i++) {
        uint32_t re = evs[i].events;
        int ready = 0;
        if (re & (EPOLLIN | EPOLLHUP | EPOLLERR))
            ready |= GKM_READ;
        if (re & (EPOLLOUT | EPOLLHUP | EPOLLERR))
            ready |= GKM_WRITE;
        Field(vout, 2 * i) = Val_long((intnat)evs[i].data.u64);
        Field(vout, 2 * i + 1) = Val_int(ready);
    }
    CAMLreturn(Val_int(n));
}

/* IPv4 multicast socket options. The Unix module exposes neither
 * IP_ADD_MEMBERSHIP nor IP_MULTICAST_IF/TTL/LOOP, so the two calls
 * the data plane needs live here. Both return "" on success and the
 * strerror text on failure — group join is refused by some kernels
 * and containers (no multicast route, no CAP_NET_*), and the caller
 * degrades to TCP with a visible notice rather than aborting.
 */

static int gkm_parse_addr(const char *s, struct in_addr *out)
{
    return inet_pton(AF_INET, s, out) == 1 ? 0 : -1;
}

/* gkm_netd_mcast_join fd group iface
 *
 * IP_ADD_MEMBERSHIP of `group` (dotted quad) on the interface with
 * address `iface` ("" = INADDR_ANY, kernel's choice).
 */
CAMLprim value gkm_netd_mcast_join(value vfd, value vgroup, value viface)
{
    CAMLparam3(vfd, vgroup, viface);
    struct ip_mreq mreq;
    memset(&mreq, 0, sizeof mreq);
    if (gkm_parse_addr(String_val(vgroup), &mreq.imr_multiaddr) != 0)
        CAMLreturn(caml_copy_string("invalid multicast group address"));
    if (caml_string_length(viface) == 0)
        mreq.imr_interface.s_addr = htonl(INADDR_ANY);
    else if (gkm_parse_addr(String_val(viface), &mreq.imr_interface) != 0)
        CAMLreturn(caml_copy_string("invalid interface address"));
    if (setsockopt(Int_val(vfd), IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof mreq) != 0)
        CAMLreturn(caml_copy_string(strerror(errno)));
    CAMLreturn(caml_copy_string(""));
}

/* gkm_netd_mcast_sender_opts fd iface ttl loop
 *
 * Sender-side options: egress interface (IP_MULTICAST_IF, "" skips),
 * TTL, and whether the sending host's own subscribers receive a copy
 * (IP_MULTICAST_LOOP — required for the loopback lanes).
 */
CAMLprim value gkm_netd_mcast_sender_opts(value vfd, value viface, value vttl, value vloop)
{
    CAMLparam4(vfd, viface, vttl, vloop);
    int fd = Int_val(vfd);
    unsigned char ttl = (unsigned char)Int_val(vttl);
    unsigned char loop = Bool_val(vloop) ? 1 : 0;
    if (caml_string_length(viface) > 0) {
        struct in_addr iface;
        if (gkm_parse_addr(String_val(viface), &iface) != 0)
            CAMLreturn(caml_copy_string("invalid interface address"));
        if (setsockopt(fd, IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof iface) != 0)
            CAMLreturn(caml_copy_string(strerror(errno)));
    }
    if (setsockopt(fd, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof ttl) != 0)
        CAMLreturn(caml_copy_string(strerror(errno)));
    if (setsockopt(fd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop) != 0)
        CAMLreturn(caml_copy_string(strerror(errno)));
    CAMLreturn(caml_copy_string(""));
}

/* gkm_netd_writev fd ring head n off
 *
 * One writev(2) of [n] (at most GKM_MAX_IOV) frames of the bytes
 * array [ring], taken from slot [head] on, wrapping at the end, and
 * skipping [off] bytes of the first. The frames are written from the
 * OCaml heap in place: the call neither allocates nor releases the
 * runtime lock, so no collection can move them meanwhile, and on a
 * non-blocking socket it never waits. Returns the bytes written.
 */
#define GKM_MAX_IOV 64

CAMLprim value gkm_netd_writev(value vfd, value vring, value vhead, value vn, value voff)
{
    struct iovec iov[GKM_MAX_IOV];
    mlsize_t cap = Wosize_val(vring);
    intnat head = Long_val(vhead), n = Long_val(vn), off = Long_val(voff);
    ssize_t w;

    if (n < 1 || n > GKM_MAX_IOV || (mlsize_t)n > cap)
        caml_invalid_argument("gkm_netd_writev: frame count");
    for (intnat i = 0; i < n; i++) {
        value b = Field(vring, (head + i) % cap);
        size_t skip = i == 0 ? (size_t)off : 0;
        iov[i].iov_base = (char *)Bytes_val(b) + skip;
        iov[i].iov_len = caml_string_length(b) - skip;
    }
    w = writev(Int_val(vfd), iov, (int)n);
    if (w < 0)
        uerror("writev", Nothing);
    return Val_long(w);
}
