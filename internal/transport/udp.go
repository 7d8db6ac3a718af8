package transport

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"sync"

	"uavmw/internal/bufpool"
	"uavmw/internal/encoding"
	"uavmw/internal/intern"
)

// UDP is the datagram transport used between airframe nodes on the real
// LAN. Unicast packets travel node-to-node; group packets use IPv4
// multicast so one wire packet reaches every subscribed node, which is the
// §4.1 bandwidth argument.
//
// Every datagram carries a small envelope (magic, kind, sender, group) so
// receivers can attribute packets without reverse DNS of ephemeral ports.
type UDP struct {
	id   NodeID
	conn *net.UDPConn // unicast socket, also used to send multicast

	mu      sync.Mutex
	peers   map[NodeID]*net.UDPAddr
	groups  map[string]*udpGroup
	joined  map[string]bool // groups joined (native or fan-out)
	handler Handler
	closed  bool

	fanout bool // emulate multicast with unicast copies to all peers

	wg    sync.WaitGroup
	stats counters

	groupBase int // base UDP port for derived multicast groups

	// SendBatch scratch, guarded by batchMu: resolved datagrams, the
	// pooled envelopes to release, and the platform syscall state.
	batchMu   sync.Mutex
	batchOuts []wireDatagram
	batchEnvs [][]byte
	bw        batchWriter
}

type udpGroup struct {
	addr *net.UDPAddr
	conn *net.UDPConn
}

var _ Transport = (*UDP)(nil)
var _ Multicaster = (*UDP)(nil)
var _ BatchSender = (*UDP)(nil)

// envelope bytes.
const (
	udpMagic     = 0xA7
	udpUnicast   = 0
	udpMulticast = 1
)

// UDPOption customizes a UDP transport.
type UDPOption func(*UDP)

// WithGroupPortBase sets the first UDP port used for derived multicast
// group addresses (default 17000). Distinct deployments on one host must
// use distinct bases.
func WithGroupPortBase(port int) UDPOption {
	return func(u *UDP) { u.groupBase = port }
}

// WithUnicastFanout emulates group sends with one unicast copy per known
// peer, for networks that do not route IP multicast (§4.1: multicast is
// used "when the underlying network allows it"). Group delivery filtering
// still applies: only peers that joined the group see the packet.
func WithUnicastFanout() UDPOption {
	return func(u *UDP) { u.fanout = true }
}

// NewUDP binds a unicast socket for node id on bindAddr (e.g.
// "127.0.0.1:0") and records the initial peer address book.
func NewUDP(id NodeID, bindAddr string, peers map[NodeID]string, opts ...UDPOption) (*UDP, error) {
	if id == "" {
		return nil, fmt.Errorf("transport: empty node id: %w", ErrUnknownNode)
	}
	laddr, err := net.ResolveUDPAddr("udp4", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bindAddr, err)
	}
	conn, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: bind %q: %w", bindAddr, err)
	}
	u := &UDP{
		id:        id,
		conn:      conn,
		peers:     make(map[NodeID]*net.UDPAddr, len(peers)),
		groups:    make(map[string]*udpGroup),
		joined:    make(map[string]bool),
		groupBase: 17000,
	}
	for _, opt := range opts {
		opt(u)
	}
	for peer, addr := range peers {
		if err := u.AddPeer(peer, addr); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	u.wg.Add(1)
	go u.readLoop(conn, nil)
	return u, nil
}

// LocalAddr returns the bound unicast address, useful when binding port 0.
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// AddPeer records or updates the unicast address of a peer node. It is
// idempotent: re-adding a known peer with a new address replaces the old
// one, so a bearer endpoint that moves at runtime (discovery advertising a
// fresh address) takes effect on the next Send.
func (u *UDP) AddPeer(id NodeID, addr string) error {
	if id == "" {
		return fmt.Errorf("transport: add peer: empty node id: %w", ErrUnknownNode)
	}
	uaddr, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %q addr %q: %w", id, addr, err)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.peers[id] = uaddr
	return nil
}

// RemovePeer forgets a peer's unicast address. Subsequent Sends to it fail
// with ErrUnknownNode until a new AddPeer. Removing an unknown peer is a
// no-op.
func (u *UDP) RemovePeer(id NodeID) {
	u.mu.Lock()
	defer u.mu.Unlock()
	delete(u.peers, id)
}

// Node implements Transport.
func (u *UDP) Node() NodeID { return u.id }

// NativeMulticast implements Multicaster: false in fan-out mode, where a
// group send costs one wire packet per peer.
func (u *UDP) NativeMulticast() bool { return !u.fanout }

// SetHandler implements Transport.
func (u *UDP) SetHandler(h Handler) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.handler = h
}

func (u *UDP) currentHandler() Handler {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.handler
}

// GroupAddr derives the deterministic multicast address for a group name:
// 239.255.h/16 with a port in [base, base+512). Both ends derive the same
// address from the name alone, so no rendezvous service is needed.
func (u *UDP) GroupAddr(group string) *net.UDPAddr {
	h := fnv.New32a()
	_, _ = h.Write([]byte(group))
	s := h.Sum32()
	return &net.UDPAddr{
		IP:   net.IPv4(239, 255, byte(s>>8), byte(s)),
		Port: u.groupBase + int(s%512),
	}
}

// envelopeLen is the sealed size of one datagram: magic, kind, u32-prefixed
// sender id and group, payload.
func (u *UDP) envelopeLen(group string, payload []byte) int {
	return 10 + len(u.id) + len(group) + len(payload)
}

// seal appends the envelope onto dst (typically a pooled buffer the caller
// releases once the kernel has the bytes).
func (u *UDP) seal(dst []byte, kind uint8, group string, payload []byte) []byte {
	dst = append(dst, udpMagic, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(u.id)))
	dst = append(dst, u.id...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(group)))
	dst = append(dst, group...)
	return append(dst, payload...)
}

// Send implements Transport.
func (u *UDP) Send(to NodeID, payload []byte) error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return fmt.Errorf("transport: send from %q: %w", u.id, ErrClosed)
	}
	addr := u.peers[to]
	u.mu.Unlock()
	if addr == nil {
		return fmt.Errorf("transport: send to %q: %w", to, ErrUnknownNode)
	}
	env := u.seal(bufpool.Get(u.envelopeLen("", payload)), udpUnicast, "", payload)
	u.stats.sent(len(payload))
	_, err := u.conn.WriteToUDP(env, addr)
	bufpool.Put(env) // the kernel copied the bytes; WriteToUDP retains nothing
	if err != nil {
		u.stats.dropped()
		return fmt.Errorf("transport: udp send to %q: %w", to, err)
	}
	u.stats.wire(len(payload))
	return nil
}

// SendGroup implements Transport.
func (u *UDP) SendGroup(group string, payload []byte) error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return fmt.Errorf("transport: send from %q: %w", u.id, ErrClosed)
	}
	var peerAddrs []*net.UDPAddr
	if u.fanout {
		peerAddrs = make([]*net.UDPAddr, 0, len(u.peers))
		for _, addr := range u.peers {
			peerAddrs = append(peerAddrs, addr)
		}
	}
	u.mu.Unlock()
	env := u.seal(bufpool.Get(u.envelopeLen(group, payload)), udpMulticast, group, payload)
	u.stats.sent(len(payload))
	if u.fanout {
		for _, addr := range peerAddrs {
			if _, err := u.conn.WriteToUDP(env, addr); err != nil {
				u.stats.dropped()
				continue
			}
			u.stats.wire(len(payload))
		}
		bufpool.Put(env)
		return nil
	}
	_, err := u.conn.WriteToUDP(env, u.GroupAddr(group))
	bufpool.Put(env)
	if err != nil {
		u.stats.dropped()
		return fmt.Errorf("transport: udp multicast to %q: %w", group, err)
	}
	u.stats.wire(len(payload))
	return nil
}

// Join implements Transport: opens a multicast listener on the group's
// derived address, or just records membership in fan-out mode.
func (u *UDP) Join(group string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return fmt.Errorf("transport: join from %q: %w", u.id, ErrClosed)
	}
	u.joined[group] = true
	if u.fanout {
		return nil
	}
	if _, joined := u.groups[group]; joined {
		return nil
	}
	gaddr := u.GroupAddr(group)
	conn, err := net.ListenMulticastUDP("udp4", nil, gaddr)
	if err != nil {
		return fmt.Errorf("transport: join group %q at %v: %w", group, gaddr, err)
	}
	g := &udpGroup{addr: gaddr, conn: conn}
	u.groups[group] = g
	u.wg.Add(1)
	go u.readLoop(conn, g)
	return nil
}

// Leave implements Transport. Leaving a group that was never joined (or
// already left) is a no-op; leaving after Close reports ErrClosed like the
// other operations.
func (u *UDP) Leave(group string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return fmt.Errorf("transport: leave from %q: %w", u.id, ErrClosed)
	}
	delete(u.joined, group)
	g, joined := u.groups[group]
	if !joined {
		return nil
	}
	delete(u.groups, group)
	return g.conn.Close()
}

// Stats implements Transport.
func (u *UDP) Stats() Stats { return u.stats.snapshot() }

// Close implements Transport.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	groups := u.groups
	u.groups = make(map[string]*udpGroup)
	u.mu.Unlock()

	_ = u.conn.Close()
	for _, g := range groups {
		_ = g.conn.Close()
	}
	u.wg.Wait()
	return nil
}

// envelopeNames interns the sender ids and group names of arriving
// envelopes, apart from the channel names of the frames inside them.
var envelopeNames intern.Table

// datagramReader fills bufs with arriving datagrams, their lengths in
// sizes, and reports how many it filled.
type datagramReader interface {
	read(bufs [][]byte, sizes []int) (int, error)
}

// singleReader reads one datagram per call. It uses Read, not ReadFromUDP:
// identity rides in the envelope, and the sender address ReadFromUDP
// returns would cost an allocation per datagram.
type singleReader struct{ conn *net.UDPConn }

func (r singleReader) read(bufs [][]byte, sizes []int) (int, error) {
	n, err := r.conn.Read(bufs[0])
	if err != nil {
		return 0, err
	}
	sizes[0] = n
	return 1, nil
}

// maxDatagram bounds receive buffers; UDP payloads beyond typical MTU-sized
// frames are fragmented by the protocol layer, but loopback jumbo frames
// still fit here.
const maxDatagram = 64 << 10

func (u *UDP) readLoop(conn *net.UDPConn, g *udpGroup) {
	defer u.wg.Done()
	// A ring of pooled receive buffers. Where recvmmsg is available (Linux)
	// one syscall fills a run of them; elsewhere the ring is a single buffer
	// and read degenerates to one Read. Handlers see the buffers
	// directly (no per-datagram copy): each filled slot is wrapped in a
	// refcounted bufpool.Shared and delivered as Packet.Owner, so a handler
	// that needs the payload past its call Retains the buffer instead of
	// copying. The loop drops its own reference after the handler returns
	// and refills the slot from the pool — in steady state the consumer's
	// Release has already returned the previous buffer, so the ring cycles
	// through pooled storage without touching the GC.
	rd := newDatagramReader(conn)
	bufs := make([][]byte, recvRing)
	for i := range bufs {
		bufs[i] = bufpool.Get(maxDatagram)[:maxDatagram]
	}
	sizes := make([]int, recvRing)
	for {
		n, err := rd.read(bufs, sizes)
		if err != nil {
			for i := range bufs {
				bufpool.Put(bufs[i])
			}
			return // closed
		}
		for i := 0; i < n; i++ {
			owner := bufpool.Share(bufs[i][:sizes[i]])
			u.handleDatagram(bufs[i][:sizes[i]], owner)
			owner.Release()
			bufs[i] = bufpool.Get(maxDatagram)[:maxDatagram]
		}
	}
}

func (u *UDP) handleDatagram(data []byte, owner *bufpool.Shared) {
	r := encoding.NewReader(data)
	if r.Uint8() != udpMagic {
		u.stats.dropped()
		return
	}
	kind := r.Uint8()
	from := NodeID(envelopeNames.String(r.RawBytes()))
	group := envelopeNames.String(r.RawBytes())
	if r.Err() != nil || from == "" {
		u.stats.dropped()
		return
	}
	payload := r.Raw(r.Remaining())
	if kind == udpMulticast && from == u.id {
		// Multicast loopback echoes our own sends; the middleware's
		// local bypass already delivered them.
		return
	}
	if kind == udpMulticast {
		// Fan-out copies arrive on the unicast socket; deliver only if
		// this node joined the group.
		u.mu.Lock()
		member := u.joined[group]
		u.mu.Unlock()
		if !member {
			return
		}
	}
	h := u.currentHandler()
	if h == nil {
		u.stats.dropped()
		return
	}
	// No copy: payload aliases the pooled ring buffer, whose lifetime the
	// Owner reference controls (the Packet ownership contract).
	u.stats.recv(len(payload))
	pkt := Packet{From: from, Payload: payload, Owner: owner}
	if kind == udpMulticast {
		pkt.Group = group
	} else {
		pkt.To = u.id
	}
	h(pkt)
}

// wireDatagram is one resolved, sealed datagram awaiting transmission.
type wireDatagram struct {
	env  []byte // sealed envelope (pooled)
	addr *net.UDPAddr
	pay  int // payload bytes, for wire accounting
}

// SendBatch implements BatchSender: it seals every message into a pooled
// envelope, resolves addresses under one lock acquisition, and hands the
// whole run to the platform writer — sendmmsg on Linux, a WriteToUDP loop
// elsewhere. Group messages expand to their fan-out targets when the
// transport runs in fan-out mode.
func (u *UDP) SendBatch(msgs []BatchMessage) error {
	if len(msgs) == 0 {
		return nil
	}
	u.batchMu.Lock()
	defer u.batchMu.Unlock()
	outs := u.batchOuts[:0]
	envs := u.batchEnvs[:0]

	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return fmt.Errorf("transport: udp batch from %q: %w", u.id, ErrClosed)
	}
	var firstErr error
	for i := range msgs {
		m := &msgs[i]
		if m.Group != "" {
			env := u.seal(bufpool.Get(u.envelopeLen(m.Group, m.Payload)), udpMulticast, m.Group, m.Payload)
			envs = append(envs, env)
			u.stats.sent(len(m.Payload))
			if u.fanout {
				for _, addr := range u.peers {
					outs = append(outs, wireDatagram{env: env, addr: addr, pay: len(m.Payload)})
				}
			} else {
				outs = append(outs, wireDatagram{env: env, addr: u.GroupAddr(m.Group), pay: len(m.Payload)})
			}
			continue
		}
		addr, ok := u.peers[m.To]
		if !ok {
			u.stats.dropped()
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: udp batch to %q: %w", m.To, ErrUnknownNode)
			}
			continue
		}
		env := u.seal(bufpool.Get(u.envelopeLen("", m.Payload)), udpUnicast, "", m.Payload)
		envs = append(envs, env)
		u.stats.sent(len(m.Payload))
		outs = append(outs, wireDatagram{env: env, addr: addr, pay: len(m.Payload)})
	}
	u.mu.Unlock()

	sent, werr := u.writeBatch(outs)
	for i := range outs {
		if i < sent {
			u.stats.wire(outs[i].pay)
		} else {
			u.stats.dropped()
		}
	}
	if werr != nil && firstErr == nil {
		firstErr = fmt.Errorf("transport: udp batch from %q: %w", u.id, werr)
	}

	// The kernel (or the fallback WriteToUDP loop) copied every envelope
	// it accepted; recycle them all.
	for i, env := range envs {
		bufpool.Put(env)
		envs[i] = nil
	}
	for i := range outs {
		outs[i] = wireDatagram{}
	}
	u.batchOuts = outs[:0]
	u.batchEnvs = envs[:0]
	return firstErr
}

// sequentialWrite is the portable datagram batch writer: one WriteToUDP per
// datagram. It reports how many datagrams were accepted before the first
// failure.
func sequentialWrite(conn *net.UDPConn, outs []wireDatagram) (int, error) {
	for i, out := range outs {
		if _, err := conn.WriteToUDP(out.env, out.addr); err != nil {
			return i, err
		}
	}
	return len(outs), nil
}
