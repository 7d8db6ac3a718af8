package bufpool

import (
	"testing"
)

func TestSharedLastReleaseRecyclesBuffer(t *testing.T) {
	buf := Get(64)
	buf = append(buf, "payload"...)
	s := Share(buf)
	if s.Refs() != 1 {
		t.Fatalf("fresh Shared refs = %d, want 1", s.Refs())
	}
	if string(s.Bytes()) != "payload" {
		t.Fatalf("Bytes = %q", s.Bytes())
	}

	r := s.Retain()
	if r != s {
		t.Fatal("Retain must return the same handle")
	}
	if s.Refs() != 2 {
		t.Fatalf("refs after Retain = %d, want 2", s.Refs())
	}
	s.Release()
	if s.Refs() != 1 {
		t.Fatalf("refs after first Release = %d, want 1", s.Refs())
	}
	if string(s.Bytes()) != "payload" {
		t.Fatal("buffer reclaimed while a reference was live")
	}
	s.Release() // final: buffer back to the pool, handle to the freelist
}

func TestSharedOverReleasePanics(t *testing.T) {
	s := Share(Get(16))
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	s.Release()
}

// TestSharedCycleAllocationFree pins the fan-out hot path contract: a
// Share/Retain/Release cycle reuses pooled headers and buffers, so the
// encode-once fan-out adds zero allocations per sample once warm.
func TestSharedCycleAllocationFree(t *testing.T) {
	op := func() {
		s := Share(Get(256))
		for i := 0; i < 8; i++ {
			s.Retain()
		}
		for i := 0; i < 8; i++ {
			s.Release()
		}
		s.Release()
	}
	for i := 0; i < 4; i++ {
		op() // warm the freelists
	}
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("Share/Retain/Release cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestSharedHookFiresOnceOnFinalRelease pins the release hook: it runs on
// the final Release only, exactly once, with the buffer already back in the
// pool, and a recycled handle does not carry it into its next life.
func TestSharedHookFiresOnceOnFinalRelease(t *testing.T) {
	var fired, idleAtHook int
	hook := func() {
		fired++
		idleAtHook = Idle(64)
	}
	buf := Get(64)
	idle := Idle(64)
	s := ShareHooked(buf, hook)
	s.Retain()
	s.Retain()
	s.Release()
	s.Release()
	if fired != 0 {
		t.Fatalf("hook fired %d times with a reference still live", fired)
	}
	s.Release()
	if fired != 1 {
		t.Fatalf("hook fired %d times on the final Release, want 1", fired)
	}
	if idleAtHook != idle+1 {
		t.Errorf("pool held %d idle buffers when the hook ran, want %d: the buffer was not back yet", idleAtHook, idle+1)
	}
	plain := Share(Get(64)) // likely the same recycled handle
	plain.Release()
	if fired != 1 {
		t.Errorf("a recycled handle ran the previous hook: fired %d times", fired)
	}

	// Hooked handles cycle without allocating, like plain ones.
	op := func() {
		s := ShareHooked(Get(256), hook)
		s.Retain().Release()
		s.Release()
	}
	op()
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Errorf("hooked Share/Release cycle allocates %.1f/op, want 0", allocs)
	}
}
