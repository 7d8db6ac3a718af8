package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
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
// Each send is one write and each receive one read; the wire path
// allocates nothing per datagram.
type UDP struct {
	id   NodeID
	conn *net.UDPConn // unicast socket, also used to send multicast

	mu    sync.Mutex
	peers map[NodeID]netip.AddrPort
	// peerAddrs holds the addresses in peers. AddPeer and RemovePeer
	// replace it, never write into it, so a fan-out send ranges over the
	// slice it read under mu after releasing the lock.
	peerAddrs []netip.AddrPort
	groups    map[string]*net.UDPConn // native multicast listeners
	joined    map[string]bool         // groups joined (native or fan-out)
	handler   Handler
	closed    bool

	fanout bool // emulate multicast with unicast copies to all peers

	wg    sync.WaitGroup
	stats counters

	groupBase int // base UDP port for derived multicast groups
}

var _ Transport = (*UDP)(nil)
var _ Multicaster = (*UDP)(nil)

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
		peers:     make(map[NodeID]netip.AddrPort, len(peers)),
		groups:    make(map[string]*net.UDPConn),
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
	go u.readLoop(conn)
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
	// The socket is udp4: an IPv4 address resolves in its 16-byte form, and
	// an empty host (":port") means this host, as it does to WriteToUDP.
	ip := uaddr.AddrPort().Addr().Unmap()
	if !ip.IsValid() {
		ip = netip.IPv4Unspecified()
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.peers[id] = netip.AddrPortFrom(ip, uint16(uaddr.Port))
	u.rebuildPeerAddrsLocked()
	return nil
}

// RemovePeer forgets a peer's unicast address. Subsequent Sends to it fail
// with ErrUnknownNode until a new AddPeer. Removing an unknown peer is a
// no-op.
func (u *UDP) RemovePeer(id NodeID) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, ok := u.peers[id]; ok {
		delete(u.peers, id)
		u.rebuildPeerAddrsLocked()
	}
}

// rebuildPeerAddrsLocked replaces peerAddrs with a fresh slice of the
// address book. Caller holds u.mu.
func (u *UDP) rebuildPeerAddrsLocked() {
	addrs := make([]netip.AddrPort, 0, len(u.peers))
	for _, ap := range u.peers {
		addrs = append(addrs, ap)
	}
	u.peerAddrs = addrs
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
// 239.255.h/16 with a port in [base, base+512), h the group's 32-bit
// FNV-1a hash. Both ends derive the same address from the name alone, so
// no rendezvous service is needed.
func (u *UDP) GroupAddr(group string) netip.AddrPort {
	s := uint32(2166136261)
	for i := 0; i < len(group); i++ {
		s ^= uint32(group[i])
		s *= 16777619
	}
	ip := netip.AddrFrom4([4]byte{239, 255, byte(s >> 8), byte(s)})
	return netip.AddrPortFrom(ip, uint16(u.groupBase+int(s%512)))
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
	addr, ok := u.peers[to]
	u.mu.Unlock()
	if !ok {
		return fmt.Errorf("transport: send to %q: %w", to, ErrUnknownNode)
	}
	env := u.seal(bufpool.Get(u.envelopeLen("", payload)), udpUnicast, "", payload)
	u.stats.sent(len(payload))
	_, err := u.conn.WriteToUDPAddrPort(env, addr)
	bufpool.Put(env) // the kernel copied the bytes; the write retains nothing
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
	peerAddrs := u.peerAddrs
	u.mu.Unlock()
	env := u.seal(bufpool.Get(u.envelopeLen(group, payload)), udpMulticast, group, payload)
	defer bufpool.Put(env)
	u.stats.sent(len(payload))
	if u.fanout {
		for _, addr := range peerAddrs {
			if _, err := u.conn.WriteToUDPAddrPort(env, addr); err != nil {
				u.stats.dropped()
				continue
			}
			u.stats.wire(len(payload))
		}
		return nil
	}
	if _, err := u.conn.WriteToUDPAddrPort(env, u.GroupAddr(group)); err != nil {
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
	conn, err := net.ListenMulticastUDP("udp4", nil, net.UDPAddrFromAddrPort(gaddr))
	if err != nil {
		return fmt.Errorf("transport: join group %q at %v: %w", group, gaddr, err)
	}
	u.groups[group] = conn
	u.wg.Add(1)
	go u.readLoop(conn)
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
	conn, joined := u.groups[group]
	if !joined {
		return nil
	}
	delete(u.groups, group)
	return conn.Close()
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
	u.groups = make(map[string]*net.UDPConn)
	u.mu.Unlock()

	_ = u.conn.Close()
	for _, conn := range groups {
		_ = conn.Close()
	}
	u.wg.Wait()
	return nil
}

// envelopeNames interns the sender ids and group names of arriving
// envelopes, apart from the channel names of the frames inside them.
var envelopeNames intern.Table

// maxDatagram sizes the read loop's buffer; UDP payloads beyond typical
// MTU-sized frames are fragmented by the protocol layer, but loopback
// jumbo frames still fit here.
const maxDatagram = 64 << 10

func (u *UDP) readLoop(conn *net.UDPConn) {
	defer u.wg.Done()
	buf := bufpool.Get(maxDatagram)[:maxDatagram]
	for u.receive(conn, buf) {
	}
	bufpool.Put(buf)
}

// receive reads one datagram from conn into buf, the read loop's own
// buffer, and delivers it, reporting false once the socket is closed. The
// datagram's n bytes are copied into a pooled buffer of their own size,
// which travels as Packet.Owner, so a handler that needs the payload past
// its call Retains it instead of copying, and a held small datagram pins a
// small buffer, not a 64 KiB one. The read uses Read, not ReadFromUDP:
// identity rides in the envelope, and the sender address ReadFromUDP
// returns would cost an allocation per datagram. In steady state the
// consumer's Release has already returned an earlier copy, so the loop
// cycles through pooled storage without touching the GC.
func (u *UDP) receive(conn *net.UDPConn, buf []byte) bool {
	n, err := conn.Read(buf)
	if err != nil {
		return false // closed
	}
	data := append(bufpool.Get(n), buf[:n]...)
	owner := bufpool.Share(data)
	u.handleDatagram(data, owner)
	owner.Release()
	return true
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
	// No copy: payload aliases the pooled receive buffer, whose lifetime
	// the Owner reference controls (the Packet ownership contract).
	u.stats.recv(len(payload))
	pkt := Packet{From: from, Payload: payload, Owner: owner}
	if kind == udpMulticast {
		pkt.Group = group
	} else {
		pkt.To = u.id
	}
	h(pkt)
}
