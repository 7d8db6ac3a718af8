//go:build !linux || (!amd64 && !arm64)

package transport

import "net"

// Portable fallback: no vectored datagram syscalls, one syscall per
// datagram. SendBatch still buys the caller one lock acquisition and pooled
// sealing per run; the read loop uses a single reused buffer.

const recvRing = 1

type batchWriter struct{}

func (u *UDP) writeBatch(outs []wireDatagram) (int, error) {
	return sequentialWrite(u.conn, outs)
}

func newDatagramReader(conn *net.UDPConn) datagramReader {
	return singleReader{conn}
}
