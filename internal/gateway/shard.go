package gateway

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/uerr"
)

// Conn is the write side of an external client connection. *net.TCPConn
// satisfies it; experiments attach in-memory sinks so 100k clients do not
// need 100k file descriptors.
type Conn interface {
	io.Writer
	io.Closer
	// SetWriteDeadline bounds the next Write, as on net.Conn.
	SetWriteDeadline(t time.Time) error
}

// fastWriteDeadline is the write budget on the shard writer. A healthy
// client's kernel socket buffer absorbs a frame in microseconds; a write
// that cannot finish inside this window means the client's TCP window is
// full, and the client is moved off the shared writer onto its own slow
// drain so it cannot hold up shard-mates for more than one window, once
// per stall episode.
const fastWriteDeadline = 5 * time.Millisecond

// qent is one queued frame: a retained reference into the shared encode
// plus the delivery class that picks the backpressure policy.
type qent struct {
	s   *bufpool.Shared
	rel bool // reliable (event) frame: may not be silently superseded
}

// shard owns a subset of the clients: their subscription index, their
// ready list and the single writer goroutine draining them. Fan-out for a
// sample touches each shard's lock once — there is no gateway-wide lock
// on the sample path.
type shard struct {
	g       *Gateway
	trigger clock.Trigger

	mu    sync.Mutex
	subs  map[topicKey]map[*Client]struct{}
	all   map[*Client]struct{}
	ready []*Client // FIFO with head index rh, compacted when drained
	rh    int
}

func newShard(g *Gateway) *shard {
	sh := &shard{
		g:       g,
		trigger: clock.NewTrigger(g.clk),
		subs:    make(map[topicKey]map[*Client]struct{}),
		all:     make(map[*Client]struct{}),
	}
	// The writer parks on a clock-managed trigger, so under a virtual
	// clock simulated time cannot advance past a shard with queued
	// frames — deliveries stay time-accurate in experiments.
	clock.Go(g.clk, sh.run)
	return sh
}

// clients snapshots the shard's client set (shutdown path).
func (sh *shard) clients() []*Client {
	sh.mu.Lock()
	out := make([]*Client, 0, len(sh.all))
	for c := range sh.all {
		out = append(out, c)
	}
	sh.mu.Unlock()
	return out
}

func (sh *shard) attachLocked(key topicKey, c *Client) {
	m := sh.subs[key]
	if m == nil {
		m = make(map[*Client]struct{}, 4)
		sh.subs[key] = m
	}
	m[c] = struct{}{}
}

func (sh *shard) detachLocked(key topicKey, c *Client) {
	if m := sh.subs[key]; m != nil {
		delete(m, c)
		if len(m) == 0 {
			delete(sh.subs, key)
		}
	}
}

// fanOut enqueues one retained reference to s on every client subscribed
// to key and wakes the writer. Eviction decisions (reliable backlog past
// the limit) are collected under the lock and applied outside it.
func (sh *shard) fanOut(key topicKey, s *bufpool.Shared, reliable bool) {
	var evict []*Client
	sh.mu.Lock()
	m := sh.subs[key]
	n := len(m)
	for c := range m {
		if sh.enqueueLocked(c, s, reliable) {
			evict = append(evict, c)
		}
	}
	sh.mu.Unlock()
	if n > 0 {
		sh.trigger.Signal()
	}
	for _, c := range evict {
		sh.g.drop(c, reasonReliable, true)
	}
}

// enqueueLocked (sh.mu held) pushes a retained reference to s onto c's
// ring. On a full ring the policy is per delivery class: the oldest
// variable sample is superseded to make room (for either class of
// incoming frame), but reliable frames are never silently dropped to make
// room — an incoming variable sample behind an all-reliable backlog is
// itself dropped, and an incoming reliable frame counts toward the
// client's eviction (reported via the return).
func (sh *shard) enqueueLocked(c *Client, s *bufpool.Shared, reliable bool) (evict bool) {
	g := sh.g
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if c.qn == len(c.ring) {
		head := c.ring[c.qh]
		switch {
		case !head.rel:
			c.ring[c.qh] = qent{}
			c.qh++
			if c.qh == len(c.ring) {
				c.qh = 0
			}
			c.qn--
			head.s.Release()
			g.m.dropOld.Inc()
		case !reliable:
			c.mu.Unlock()
			g.m.dropOld.Inc()
			return false
		default:
			c.relDrops++
			evict = c.relDrops >= reliableDropLimit
			c.mu.Unlock()
			return evict
		}
	}
	i := c.qh + c.qn
	if i >= len(c.ring) {
		i -= len(c.ring)
	}
	c.ring[i] = qent{s: s.Retain(), rel: reliable}
	c.qn++
	if !c.inReady && !c.stalled {
		c.inReady = true
		sh.readyPushLocked(c)
	}
	c.mu.Unlock()
	return false
}

func (sh *shard) readyPushLocked(c *Client) {
	if sh.rh > 0 && sh.rh == len(sh.ready) {
		sh.ready = sh.ready[:0]
		sh.rh = 0
	}
	sh.ready = append(sh.ready, c)
}

func (sh *shard) popReady() *Client {
	sh.mu.Lock()
	if sh.rh >= len(sh.ready) {
		sh.ready = sh.ready[:0]
		sh.rh = 0
		sh.mu.Unlock()
		return nil
	}
	c := sh.ready[sh.rh]
	sh.ready[sh.rh] = nil
	sh.rh++
	sh.mu.Unlock()
	return c
}

// run is the shard writer: park until signalled, then drain ready clients.
func (sh *shard) run() {
	for {
		if !sh.trigger.Wait(-1) {
			return
		}
		for {
			c := sh.popReady()
			if c == nil {
				break
			}
			sh.service(c)
		}
	}
}

// service writes up to writerBatch frames to c, then requeues it if more
// remain (fairness inside the shard). A write that misses the fast
// deadline marks the client stalled and hands it to its own slow drain
// goroutine — the shared writer never waits on one socket twice.
func (sh *shard) service(c *Client) {
	g := sh.g
	for budget := writerBatch; ; {
		c.mu.Lock()
		if c.closed || c.stalled {
			c.mu.Unlock()
			return
		}
		if c.cur == nil {
			if c.qn == 0 {
				c.inReady = false
				c.mu.Unlock()
				return
			}
			c.popFrameLocked()
		}
		s := c.cur.Retain() // writer's grip: outlives a concurrent drop
		off := c.off
		c.mu.Unlock()

		_ = c.conn.SetWriteDeadline(time.Now().Add(fastWriteDeadline))
		n, err := c.conn.Write(s.Bytes()[off:])
		if n > 0 {
			g.m.bytesOut.Add(uint64(n))
		}
		switch {
		case err == nil:
			c.finishFrame(s)
			budget--
			if budget == 0 {
				// Still inReady: put it back so the next pass continues.
				sh.mu.Lock()
				c.mu.Lock()
				if !c.closed && !c.stalled && (c.qn > 0 || c.cur != nil) {
					sh.readyPushLocked(c)
				} else {
					c.inReady = false
				}
				c.mu.Unlock()
				sh.mu.Unlock()
				return
			}
		case isTimeout(err):
			c.mu.Lock()
			if !c.closed {
				c.off = off + n
				c.stalled = true
			}
			closed := c.closed
			c.mu.Unlock()
			s.Release()
			if !closed {
				// Unmanaged goroutine on purpose: it blocks in socket
				// writes, which no clock can account for. Under a
				// virtual clock in-memory conns never stall, so this
				// path only runs in real time.
				go c.slowDrain()
			}
			return
		default:
			s.Release()
			g.drop(c, reasonWriteFail, true)
			return
		}
	}
}

// slowDrain owns a stalled client: blocking writes under the full
// WriteStall deadline, eviction after StallLimit consecutive misses,
// return to the shared writer once the backlog clears.
func (c *Client) slowDrain() {
	g := c.g
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if c.cur == nil {
			if c.qn == 0 {
				// Drained: back to the fast path. inReady is still set
				// from the stall hand-off, so clear it; the next enqueue
				// re-links the client into the ready list.
				c.stalled = false
				c.inReady = false
				c.stallRun = 0
				c.mu.Unlock()
				return
			}
			c.popFrameLocked()
		}
		s := c.cur.Retain()
		off := c.off
		c.mu.Unlock()

		_ = c.conn.SetWriteDeadline(time.Now().Add(g.opts.WriteStall))
		n, err := c.conn.Write(s.Bytes()[off:])
		if n > 0 {
			g.m.bytesOut.Add(uint64(n))
		}
		switch {
		case err == nil:
			c.finishFrame(s)
		case isTimeout(err):
			c.mu.Lock()
			evict := false
			if !c.closed {
				c.off = off + n
				c.stallRun++
				evict = c.stallRun >= g.opts.StallLimit
			}
			c.mu.Unlock()
			s.Release()
			if evict {
				g.drop(c, reasonStall, true)
				return
			}
		default:
			s.Release()
			g.drop(c, reasonWriteFail, true)
			return
		}
	}
}

func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Client is one attached external consumer. Its write queue is a fixed
// ring of retained references into shared encodes; the ring never grows,
// so a slow client's cost is bounded at attach time.
type Client struct {
	g  *Gateway
	sh *shard

	conn Conn

	mu       sync.Mutex
	ring     []qent
	qh, qn   int // head index, queued count
	cur      *bufpool.Shared
	off      int // bytes of cur already written
	stallRun int // consecutive stalled writes (slow path)
	relDrops int // reliable frames dropped on a full ring
	inReady  bool
	stalled  bool
	closed   bool
	subs     map[topicKey]struct{}
}

// Attach registers an externally-managed connection and returns its
// client handle. Used by ServeConn for real sockets and directly by
// experiments for in-memory ones.
func (g *Gateway) Attach(conn Conn) (*Client, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, uerr.New(g.reg, codeGwAccept, "gateway closed")
	}
	sh := g.shards[g.nextSh%uint64(len(g.shards))]
	g.nextSh++
	g.mu.Unlock()

	c := &Client{
		g:    g,
		sh:   sh,
		conn: conn,
		ring: make([]qent, g.opts.QueueLen),
		subs: make(map[topicKey]struct{}, 4),
	}
	sh.mu.Lock()
	sh.all[c] = struct{}{}
	sh.mu.Unlock()
	g.m.clients.Add(1)
	g.m.accepted.Inc()
	return c, nil
}

// Subscribe taps stream/name for this client. The first subscriber
// gateway-wide creates the single fabric subscription; everyone else
// shares it. New variable subscribers get the cached last value
// immediately — no air-link round trip.
func (c *Client) Subscribe(stream Stream, name string) error {
	ts, err := c.subscribeTopic(stream, name)
	if err != nil || ts == nil {
		return err
	}
	c.replayLast(ts)
	return nil
}

// subscribeTopic links the client into the shared topic without the
// cache replay (the wire loop acks the request between the two). A nil
// topic with nil error is a duplicate subscribe — a no-op.
func (c *Client) subscribeTopic(stream Stream, name string) (*topicState, error) {
	g := c.g
	key := topicKey{stream: stream, name: name}
	ts, err := g.acquireTopic(key)
	if err != nil {
		return nil, err
	}
	sh := c.sh
	sh.mu.Lock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		sh.mu.Unlock()
		g.releaseTopic(key)
		return nil, uerr.New(g.reg, codeGwSubscribe, "client closed")
	}
	if _, dup := c.subs[key]; dup {
		c.mu.Unlock()
		sh.mu.Unlock()
		g.releaseTopic(key)
		return nil, nil
	}
	c.subs[key] = struct{}{}
	sh.attachLocked(key, c)
	c.mu.Unlock()
	sh.mu.Unlock()
	g.m.subs.Add(1)
	return ts, nil
}

// replayLast serves the last-value cache to a fresh variable subscriber.
func (c *Client) replayLast(ts *topicState) {
	if ts.key.stream != StreamVariable {
		return
	}
	ts.mu.Lock()
	last := ts.last
	if last != nil {
		last.Retain()
	}
	ts.mu.Unlock()
	if last == nil {
		return
	}
	// The hit counts before the replay is queued, so a client that has
	// received it also sees it counted.
	c.g.m.cacheHits.Inc()
	sh := c.sh
	sh.mu.Lock()
	sh.enqueueLocked(c, last, false)
	sh.mu.Unlock()
	last.Release()
	sh.trigger.Signal()
}

// Unsubscribe detaches one stream/name tap.
func (c *Client) Unsubscribe(stream Stream, name string) {
	g := c.g
	key := topicKey{stream: stream, name: name}
	sh := c.sh
	sh.mu.Lock()
	c.mu.Lock()
	_, had := c.subs[key]
	if had {
		delete(c.subs, key)
	}
	c.mu.Unlock()
	if had {
		sh.detachLocked(key, c)
	}
	sh.mu.Unlock()
	if had {
		g.m.subs.Add(-1)
		g.releaseTopic(key)
	}
}

// Close detaches the client cleanly.
func (c *Client) Close() {
	c.g.drop(c, reasonBye, false)
}

// popFrameLocked (c.mu held) moves the ring head into cur.
func (c *Client) popFrameLocked() {
	e := c.ring[c.qh]
	c.ring[c.qh] = qent{}
	c.qh++
	if c.qh == len(c.ring) {
		c.qh = 0
	}
	c.qn--
	c.cur = e.s
	c.off = 0
}

// finishFrame retires a fully-written frame: the queue's reference and
// the writer's grip both drop (unless a concurrent drop already released
// the queue side).
func (c *Client) finishFrame(s *bufpool.Shared) {
	c.g.m.framesOut.Inc()
	c.mu.Lock()
	ownQueueRef := !c.closed && c.cur == s
	if ownQueueRef {
		c.cur = nil
		c.off = 0
		c.stallRun = 0
	}
	c.mu.Unlock()
	if ownQueueRef {
		s.Release() // the queue's reference
	}
	s.Release() // the writer's grip
}

// releaseQueueLocked (c.mu held) releases every queued reference on drop.
func (c *Client) releaseQueueLocked() {
	for ; c.qn > 0; c.qn-- {
		c.ring[c.qh].s.Release()
		c.ring[c.qh] = qent{}
		c.qh++
		if c.qh == len(c.ring) {
			c.qh = 0
		}
	}
	c.qh = 0
	if c.cur != nil {
		c.cur.Release()
		c.cur = nil
	}
}
