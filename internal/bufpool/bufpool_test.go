package bufpool_test

import (
	"testing"

	"uavmw/internal/bufpool"
	"uavmw/internal/protocol"
)

// TestMTUDatagramTakesTwoKiBClass pins the class an MTU-sized datagram
// draws from: a full batch, a file chunk or a UDP envelope under the
// default MTU holds 2 KiB, not 4.
func TestMTUDatagramTakesTwoKiBClass(t *testing.T) {
	b := bufpool.Get(protocol.DefaultMTU)
	defer bufpool.Put(b)
	if c := cap(b); c != 2048 {
		t.Fatalf("cap(Get(%d)) = %d, want 2048", protocol.DefaultMTU, c)
	}
}
