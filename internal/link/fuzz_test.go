package link

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"uavmw/internal/protocol"
)

// FuzzProbe feeds the plane's probe handlers what a peer puts on the wire: a
// probe payload and an echo payload, arriving on one of the plane's two
// bearers or an unknown one, while outstanding probes on the bearer were
// sent age before. Nothing may panic; a probe is echoed iff its payload is
// exactly the 8-byte nonce, on the bearer it came in on and carrying those
// bytes; and an echo moves the bearer's RTT and echo count only when its
// payload is exactly a nonce that is still outstanding.
func FuzzProbe(f *testing.F) {
	// More seeds are committed under testdata/fuzz/FuzzProbe.
	nonce := func(n uint64) []byte { return binary.BigEndian.AppendUint64(nil, n) }
	f.Add(nonce(1), nonce(1), uint8(0), uint8(1), uint16(80))
	f.Add(nonce(7), nonce(3), uint8(1), uint8(4), uint16(0))
	f.Add([]byte{1}, append(nonce(1), 0), uint8(0), uint8(2), uint16(5))
	f.Add([]byte{}, nonce(9), uint8(2), uint8(8), uint16(500))

	f.Fuzz(func(t *testing.T, probe, echo []byte, bearerSeed, outstanding uint8, ageMS uint16) {
		tp := newTestPlane()
		bearer := []string{"wifi", "radio", "nosuch"}[bearerSeed%3]
		now := tp.clk.Now()
		for _, b := range tp.Bearers() {
			for i := 0; i < int(outstanding); i++ {
				b.Monitor.NextProbe(now.Add(-time.Duration(ageMS) * time.Millisecond))
			}
		}

		tp.HandleProbe(bearer, "gs", &protocol.Frame{Type: protocol.MTProbe, Payload: probe})
		if echoed := len(tp.sent) > 0; echoed != (len(probe) == probeSize) {
			t.Fatalf("%d-byte probe: %d echoes sent", len(probe), len(tp.sent))
		}
		if len(tp.sent) > 0 {
			if e := tp.sent[0]; len(tp.sent) != 1 || e.typ != protocol.MTProbeEcho ||
				e.bearer != bearer || e.to != "gs" || !bytes.Equal(e.nonce, probe) {
				t.Fatalf("probe %x answered with %+v", probe, tp.sent)
			}
		}

		b := tp.byName[bearer]
		if b == nil {
			tp.HandleProbeEcho(bearer, &protocol.Frame{Type: protocol.MTProbeEcho, Payload: echo})
			return
		}
		answers := false
		if len(echo) == probeSize {
			b.Monitor.mu.Lock()
			_, answers = b.Monitor.probes[binary.BigEndian.Uint64(echo)]
			b.Monitor.mu.Unlock()
		}
		before := b.Monitor.Report(now)
		tp.HandleProbeEcho(bearer, &protocol.Frame{Type: protocol.MTProbeEcho, Payload: echo})
		after := b.Monitor.Report(now)
		switch {
		case answers && after.ProbesEchoed != before.ProbesEchoed+1:
			t.Fatalf("echo %x of an outstanding probe not counted", echo)
		case !answers && (after.RTT != before.RTT || after.ProbesEchoed != before.ProbesEchoed):
			t.Fatalf("echo %x, which answers no outstanding probe, moved the RTT %v → %v, echoes %d → %d",
				echo, before.RTT, after.RTT, before.ProbesEchoed, after.ProbesEchoed)
		}
	})
}
