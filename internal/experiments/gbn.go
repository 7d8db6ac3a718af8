package experiments

import (
	"errors"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/encoding"
	"uavmw/internal/protocol"
	"uavmw/internal/transport"
)

// goBackN is a TCP-like reliable ordered byte-message stream over an
// unreliable datagram transport: sliding window, cumulative acknowledgment,
// whole-window retransmission on timeout, strictly in-order delivery.
//
// It exists as the experimental baseline for the paper's §4.2 claim that
// the per-message ARQ scheme "is more efficient for event messages than the
// generic case provided by the TCP stack": under loss, GoBackN's in-order
// delivery head-of-line blocks every message behind a lost packet, while
// the ARQ engine delivers independent messages independently. Experiment E2
// measures exactly this difference, and nothing else uses it.
type goBackN struct {
	send    protocol.SendFunc
	peer    transport.NodeID
	window  int
	timeout time.Duration

	mu       sync.Mutex
	sendBase uint64 // lowest unacked seq
	nextSeq  uint64
	buf      map[uint64][]byte // unacked messages
	pending  [][]byte          // waiting for window space
	timer    *time.Timer
	closed   bool

	recvNext uint64 // next in-order seq expected
	recvBuf  map[uint64][]byte
	deliver  func(msg []byte)
	// deliverMu serializes handleData end to end so that two packets
	// processed concurrently cannot interleave their in-order delivery
	// batches (the stream guarantee would silently break).
	deliverMu sync.Mutex

	retransmits uint64 // the one figure E2 reads
}

// gbn wire format rides in MTEvent-typed frames? No — it has its own
// framing to stay independent of the middleware frame space:
//
//	u8  kind (0 data, 1 ack)
//	u64 seq (data: message seq; ack: cumulative next-expected)
//	raw payload (data only)
const (
	gbnData uint8 = 0
	gbnAck  uint8 = 1
)

// errGBNClosed reports use after Close.
var errGBNClosed = errors.New("gbn stream closed")

// newGoBackN builds one direction of a stream to peer. deliver receives
// messages strictly in send order.
func newGoBackN(peer transport.NodeID, send protocol.SendFunc, deliver func([]byte), timeout time.Duration, window int) *goBackN {
	return &goBackN{
		send:    send,
		peer:    peer,
		window:  window,
		timeout: timeout,
		buf:     make(map[uint64][]byte),
		recvBuf: make(map[uint64][]byte),
		deliver: deliver,
	}
}

// Retransmits counts messages sent again by window timeouts.
func (g *goBackN) Retransmits() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.retransmits
}

// Send queues one message for reliable in-order delivery.
func (g *goBackN) Send(msg []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errGBNClosed
	}
	if g.nextSeq-g.sendBase >= uint64(g.window) {
		g.pending = append(g.pending, bufpool.Copy(msg))
		return nil
	}
	g.transmitLocked(msg)
	return nil
}

// transmitLocked assigns a seq and sends. Caller holds g.mu.
func (g *goBackN) transmitLocked(msg []byte) {
	seq := g.nextSeq
	g.nextSeq++
	cp := bufpool.Copy(msg)
	g.buf[seq] = cp
	if g.timer == nil {
		g.timer = time.AfterFunc(g.timeout, g.onTimeout)
	}
	g.rawSend(gbnData, seq, cp)
}

func (g *goBackN) rawSend(kind uint8, seq uint64, payload []byte) {
	w := encoding.NewWriter(9 + len(payload))
	w.Uint8(kind)
	w.Uint64(seq)
	w.Raw(payload)
	// The window timer is the recovery path for a lost transmission.
	_ = g.send(g.peer, w.Bytes())
}

// onTimeout retransmits the whole unacked window (classic Go-Back-N).
func (g *goBackN) onTimeout() {
	g.mu.Lock()
	if g.closed || len(g.buf) == 0 {
		g.timer = nil
		g.mu.Unlock()
		return
	}
	var frames []struct {
		seq uint64
		msg []byte
	}
	for seq := g.sendBase; seq < g.nextSeq; seq++ {
		if msg, ok := g.buf[seq]; ok {
			frames = append(frames, struct {
				seq uint64
				msg []byte
			}{seq, msg})
		}
	}
	g.retransmits += uint64(len(frames))
	g.timer = time.AfterFunc(g.timeout, g.onTimeout)
	g.mu.Unlock()
	for _, f := range frames {
		g.rawSend(gbnData, f.seq, f.msg)
	}
}

// HandlePacket consumes one raw packet from the peer (both data and acks).
func (g *goBackN) HandlePacket(payload []byte) {
	r := encoding.NewReader(payload)
	kind := r.Uint8()
	seq := r.Uint64()
	if r.Err() != nil {
		return
	}
	switch kind {
	case gbnAck:
		g.handleAck(seq)
	case gbnData:
		g.handleData(seq, r.Raw(r.Remaining()))
	}
}

func (g *goBackN) handleAck(nextExpected uint64) {
	g.mu.Lock()
	if nextExpected <= g.sendBase {
		g.mu.Unlock()
		return // stale cumulative ack
	}
	for seq := g.sendBase; seq < nextExpected; seq++ {
		delete(g.buf, seq)
	}
	g.sendBase = nextExpected
	// Window slid: admit pending messages.
	var admit [][]byte
	for len(g.pending) > 0 && g.nextSeq-g.sendBase < uint64(g.window) {
		admit = append(admit, g.pending[0])
		g.pending = g.pending[1:]
		g.transmitLocked(admit[len(admit)-1])
	}
	if len(g.buf) == 0 && g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	g.mu.Unlock()
}

func (g *goBackN) handleData(seq uint64, data []byte) {
	g.deliverMu.Lock()
	defer g.deliverMu.Unlock()
	g.mu.Lock()
	var toDeliver [][]byte
	switch {
	case seq < g.recvNext:
		// Duplicate of already-delivered data; re-ack.
	case seq == g.recvNext:
		toDeliver = append(toDeliver, bufpool.Copy(data))
		g.recvNext++
		// Drain any buffered successors.
		for {
			next, ok := g.recvBuf[g.recvNext]
			if !ok {
				break
			}
			delete(g.recvBuf, g.recvNext)
			toDeliver = append(toDeliver, next)
			g.recvNext++
		}
	default:
		// Out of order: buffer (receiver-side buffering is kinder than
		// the classic drop-everything GBN and still preserves the
		// in-order delivery semantics being compared).
		if _, dup := g.recvBuf[seq]; !dup && seq-g.recvNext < uint64(g.window)*4 {
			g.recvBuf[seq] = bufpool.Copy(data)
		}
	}
	ackTo := g.recvNext
	deliver := g.deliver
	g.mu.Unlock()

	g.rawSend(gbnAck, ackTo, nil)
	if deliver != nil {
		for _, msg := range toDeliver {
			deliver(msg)
		}
	}
}

// Unacked reports messages awaiting acknowledgment plus queued ones.
func (g *goBackN) Unacked() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.buf) + len(g.pending)
}

// Close stops the retransmission timer; undelivered messages are dropped.
func (g *goBackN) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
}
