package leakcheck

import (
	"os"
	"os/signal"
	"strings"
	"testing"
	"time"
)

// TestSignalNotifyAfterBaselineSettles: a signal.Notify after the count is
// taken, as the fuzz coordinator makes, starts no goroutine the count
// missed.
func TestSignalNotifyAfterBaselineSettles(t *testing.T) {
	start := baseline()
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	defer signal.Stop(c)
	if err := settle(start, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestLeakedGoroutineFailsSettle: a goroutine still parked when the
// timeout ends fails settle, with its stack in the error.
func TestLeakedGoroutineFailsSettle(t *testing.T) {
	start := baseline()
	release := make(chan struct{})
	parked := make(chan struct{})
	go func() {
		close(parked)
		<-release
	}()
	<-parked
	err := settle(start, 50*time.Millisecond)
	close(release)
	if err == nil {
		t.Fatal("settle passed with a goroutine still parked")
	}
	if !strings.Contains(err.Error(), "TestLeakedGoroutineFailsSettle") {
		t.Errorf("error lacks the leaked goroutine's stack:\n%v", err)
	}
	if err := settle(start, Settle); err != nil {
		t.Fatalf("released goroutine did not exit: %v", err)
	}
}
