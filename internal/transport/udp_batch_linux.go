//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

// Vectored datagram I/O via sendmmsg/recvmmsg. One syscall moves a run of
// datagrams in either direction, which is where the per-frame syscall cost
// of the wire path goes once encode and buffering stop allocating. Only the
// 64-bit ports are wired up: the mmsghdr layout below matches the kernel
// ABI where struct msghdr is 56 bytes and pointers are 8 — exactly the
// amd64/arm64 case the build tag selects. Other platforms use the portable
// one-datagram-per-syscall fallback.

// recvRing is how many receive buffers each read loop cycles through; one
// recvmmsg can fill all of them.
const recvRing = 8

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the number of
// bytes the kernel moved for that slot.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// batchWriter holds the sendmmsg scratch arrays, sized to the largest batch
// seen, and the state of the write in progress, which the RawConn callback
// reads and writes through the writer instead of through captured locals:
// the callback is one method value built with the connection, so a steady
// stream of batches costs no allocations. Guarded by UDP.batchMu.
type batchWriter struct {
	rc    syscall.RawConn
	write func(fd uintptr) bool // w.sendmmsg
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	sas   []syscall.RawSockaddrInet4

	out  []mmsghdr // headers of the batch being written
	sent int       // how many of them the kernel has accepted
	serr error     // errno that ended the write
}

// sendmmsg is the RawConn.Write callback: it pushes w.out[w.sent:] into the
// socket, returning false to wait for writability.
func (w *batchWriter) sendmmsg(fd uintptr) bool {
	for w.sent < len(w.out) {
		r1, _, errno := syscall.Syscall6(uintptr(sysSendmmsg), fd,
			uintptr(unsafe.Pointer(&w.out[w.sent])), uintptr(len(w.out)-w.sent), 0, 0, 0)
		switch errno {
		case 0:
			w.sent += int(r1)
		case syscall.EAGAIN:
			return false // wait for writability, then retry
		case syscall.EINTR:
			// retry
		default:
			w.serr = errno
			return true
		}
	}
	return true
}

// writeBatch transmits outs with as few sendmmsg calls as possible and
// reports how many datagrams the kernel accepted before any failure.
func (u *UDP) writeBatch(outs []wireDatagram) (int, error) {
	if len(outs) == 0 {
		return 0, nil
	}
	w := &u.bw
	if w.rc == nil {
		rc, err := u.conn.SyscallConn()
		if err != nil {
			return sequentialWrite(u.conn, outs)
		}
		w.rc, w.write = rc, w.sendmmsg
	}
	if cap(w.hdrs) < len(outs) {
		w.hdrs = make([]mmsghdr, len(outs))
		w.iovs = make([]syscall.Iovec, len(outs))
		w.sas = make([]syscall.RawSockaddrInet4, len(outs))
	}
	hdrs := w.hdrs[:len(outs)]
	for i := range outs {
		ip := outs[i].addr.IP.To4()
		if ip == nil {
			// The socket is udp4; a non-v4 address here is a
			// programming error — fall back rather than corrupt.
			return sequentialWrite(u.conn, outs)
		}
		sa := &w.sas[i]
		sa.Family = syscall.AF_INET
		port := (*[2]byte)(unsafe.Pointer(&sa.Port))
		port[0] = byte(outs[i].addr.Port >> 8)
		port[1] = byte(outs[i].addr.Port)
		copy(sa.Addr[:], ip)
		iov := &w.iovs[i]
		iov.Base = &outs[i].env[0]
		iov.SetLen(len(outs[i].env))
		hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(sa)),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     iov,
			Iovlen:  1,
		}}
	}
	w.out, w.sent, w.serr = hdrs, 0, nil
	err := w.rc.Write(w.write)
	if w.serr == nil {
		w.serr = err
	}
	if w.serr != nil {
		return w.sent, fmt.Errorf("sendmmsg: %w", w.serr)
	}
	return w.sent, nil
}

// mmsgReader drains a socket with recvmmsg, filling a run of ring buffers
// per syscall. One per read loop; like batchWriter it keeps the state of the
// read in progress on itself and hands RawConn one prebuilt method value.
type mmsgReader struct {
	rc   syscall.RawConn
	recv func(fd uintptr) bool // r.recvmmsg
	hdrs []mmsghdr
	iovs []syscall.Iovec

	n    int   // headers offered to the kernel
	got  int   // datagrams it filled
	serr error // errno that ended the read
}

// recvmmsg is the RawConn.Read callback: one recvmmsg over r.hdrs[:r.n],
// returning false to wait for readability.
func (r *mmsgReader) recvmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(uintptr(sysRecvmmsg), fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(r.n), 0, 0, 0)
		switch errno {
		case 0:
			r.got = int(r1)
			return true
		case syscall.EAGAIN:
			return false // wait for readability
		case syscall.EINTR:
			// retry
		default:
			r.serr = errno
			return true
		}
	}
}

func newDatagramReader(conn *net.UDPConn) datagramReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return singleReader{conn}
	}
	r := &mmsgReader{
		rc:   rc,
		hdrs: make([]mmsghdr, recvRing),
		iovs: make([]syscall.Iovec, recvRing),
	}
	r.recv = r.recvmmsg
	return r
}

func (r *mmsgReader) read(bufs [][]byte, sizes []int) (int, error) {
	n := len(bufs)
	if n > len(r.hdrs) {
		n = len(r.hdrs)
	}
	for i := 0; i < n; i++ {
		iov := &r.iovs[i]
		iov.Base = &bufs[i][0]
		iov.SetLen(len(bufs[i]))
		// Sender addresses are unused (identity rides in the envelope),
		// so no Name buffer is supplied.
		r.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{Iov: iov, Iovlen: 1}}
	}
	r.n, r.got, r.serr = n, 0, nil
	if err := r.rc.Read(r.recv); err != nil {
		return 0, err // socket closed
	}
	if r.serr != nil {
		return 0, fmt.Errorf("recvmmsg: %w", r.serr)
	}
	for i := 0; i < r.got; i++ {
		sizes[i] = int(r.hdrs[i].n)
	}
	return r.got, nil
}
