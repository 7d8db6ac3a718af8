package protocol

import (
	"errors"
	"sync"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// errCount sums a component's typed-error family by category.
func errCount(reg *metrics.Registry, component string, cat uerr.Category) uint64 {
	return reg.SumCounters(component, "errors", metrics.L("category", cat.String()))
}

// A first-transmission failure must reach the result callback as a typed
// CatSend error and increment arq.errors{send}.
func TestARQFirstTransmitFailureIsTypedAndCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	a := NewARQ(func(transport.NodeID, []byte) error {
		return errors.New("no route")
	}, WithMetrics(reg))
	defer a.Close()

	var mu sync.Mutex
	var got error
	done := make(chan struct{})
	err := a.Send("peer", 1, []byte("x"), func(e error) {
		mu.Lock()
		got = e
		mu.Unlock()
		close(done)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		t.Fatal("failing first transmission reported success")
	}
	if !uerr.IsCategory(got, uerr.CatSend) {
		t.Fatalf("result error %v is not CatSend", got)
	}
	if code, _ := uerr.CodeOf(got); code != codeARQFirstTx {
		t.Fatalf("result error code %q, want %q", code, codeARQFirstTx)
	}
	if n := errCount(reg, "arq", uerr.CatSend); n != 1 {
		t.Fatalf("arq.errors{send} = %d, want 1", n)
	}
}

// Retransmission sends used to be discarded with `_ =`; every failed
// retry must now count under arq.errors{send} even though the timer is
// the recovery path.
func TestARQRetransmitFailuresAreCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := clock.NewVirtual()
	first := true
	var final error
	clk.Run(func() {
		a := NewARQ(func(transport.NodeID, []byte) error {
			if first {
				first = false
				return nil // first transmission succeeds; retries fail
			}
			return errors.New("bearer blackout")
		}, WithMetrics(reg), WithClock(clk), WithMaxRetries(3))
		defer a.Close()

		done := make(chan error, 1)
		if err := a.Send("peer", 7, []byte("x"), func(e error) { done <- e }); err != nil {
			t.Fatal(err)
		}
		for {
			select {
			case final = <-done:
				return
			default:
				clk.Sleep(5 * time.Millisecond)
			}
		}
	})
	if !uerr.Is(final, ErrTimeout) {
		t.Fatalf("final error %v, want ErrTimeout after exhausted retries", final)
	}
	if !uerr.IsCategory(final, uerr.CatTimeout) {
		t.Fatalf("final error %v is not CatTimeout", final)
	}
	if n := errCount(reg, "arq", uerr.CatSend); n == 0 {
		t.Fatal("failed retransmissions left arq.errors{send} at 0")
	}
	if n := errCount(reg, "arq", uerr.CatTimeout); n != 1 {
		t.Fatalf("arq.errors{timeout} = %d, want 1", n)
	}
}

// Duplicate in-flight sequence numbers are protocol violations and must
// be typed as such.
func TestARQDuplicateSeqIsProtocolViolation(t *testing.T) {
	reg := metrics.NewRegistry()
	a := NewARQ(func(transport.NodeID, []byte) error { return nil }, WithMetrics(reg))
	defer a.Close()

	if err := a.Send("peer", 1, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	err := a.Send("peer", 1, []byte("y"), nil)
	if !uerr.IsCode(err, codeARQDupSeq) {
		t.Fatalf("duplicate send returned %v, want %q", err, codeARQDupSeq)
	}
	if n := errCount(reg, "arq", uerr.CatProtocol); n != 1 {
		t.Fatalf("arq.errors{protocol_violation} = %d, want 1", n)
	}
}
