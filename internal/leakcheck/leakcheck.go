// Package leakcheck fails a test binary whose goroutines outlive its tests.
// A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, Main waits up to Settle for the goroutine count to
// fall back to what it was before the first test, then fails the binary
// with every goroutine's stack. A goroutine still running then is a fixture
// or a Close that does not end what it started.
package leakcheck

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"testing"
	"time"
)

// Settle bounds how long goroutines may take to exit after the last test.
const Settle = 2 * time.Second

// Main runs the package's tests, checks for leftover goroutines, and exits.
func Main(m *testing.M) {
	start := baseline()
	code := m.Run()
	if code == 0 {
		if err := settle(start, Settle); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// baseline counts goroutines before the first test. It first starts the
// runtime's signal loop, which never exits once started: the fuzz
// coordinator's signal.Notify would otherwise add it after the count.
func baseline() int {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	return runtime.NumGoroutine()
}

// settle waits up to timeout for the goroutine count to return to start.
func settle(start int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leakcheck: %d goroutines %v after the tests, %d before them:\n\n%s",
				runtime.NumGoroutine(), timeout, start, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
